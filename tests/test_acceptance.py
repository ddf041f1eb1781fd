"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> <name>: PASS|FAIL`` line (run pytest
with ``-s`` to see them live).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from seisgof import (FocalMechanism, QualityLevel, TimeSeries, Unit,
                     aggregate, arias_duration, arias_intensity, build_grid,
                     default_scenario, moment_tensor, p_value, pearson,
                     quality, radiation_pattern, response_spectrum,
                     score_pair, score_scalar, significant, synth_fullspace,
                     tf_gof)
from seisgof.cli import main as cli_main
from seisgof.ensemble import (METRICS, PARAMETERS, CorrelationTable,
                              correlation_tables)
from seisgof.gof_tf import TfConfig, record_tf_gof
from seisgof.imeasures import G
from seisgof.source import Medium, PointSourceScenario, scenario_to_dict
from seisgof.traceio import write_record

from conftest import random_series
from test_ensemble import _planted_results

DATA = Path(__file__).parent / "data"
M0 = 2.81e16


def _checked(num, name, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} {name}: PASS")


def test_criterion_01_self_comparison(default_synthetic):
    def check():
        rec = default_synthetic
        start = time.perf_counter()
        anderson = score_pair(rec, rec)
        tf = record_tf_gof(rec, rec)
        elapsed = time.perf_counter() - start
        for comp, scores in anderson.items():
            finite = scores.scores[np.isfinite(scores.scores)]
            assert finite.size == scores.scores.size, f"{comp}: skipped bands"
            assert np.all(scores.scores == 10.0), comp
            for im, (mx, mean, mn) in aggregate(scores).items():
                assert mx == mean == mn == 10.0, (comp, im)
                assert quality(mean) is QualityLevel.EXCELLENT
        for comp, gof in tf.items():
            assert gof.eg == 10.0 and gof.pg == 10.0, comp
            for arr in (gof.teg, gof.tpg, gof.feg, gof.fpg, gof.tfeg,
                        gof.tfpg):
                assert np.all(arr == 10.0), comp
        assert elapsed < 5.0, f"self-comparison took {elapsed:.2f} s"

    _checked(1, "self-comparison is exactly 10 in < 5 s", check)


def test_criterion_02_anderson_scalar_score():
    def check():
        assert abs(score_scalar(1.0, 2.0) - 10.0 * np.exp(-1.0)) < 1e-9
        rng = np.random.default_rng(101)
        for _ in range(1000):
            p1, p2 = rng.uniform(-20.0, 20.0, size=2)
            assert score_scalar(p1, p2) == score_scalar(p2, p1)
        assert quality(5.54) is QualityLevel.FAIR
        assert quality(6.10) is QualityLevel.GOOD

    _checked(2, "scalar score formula, symmetry, quality bins", check)


def test_criterion_03_tf_invariances(default_synthetic):
    def check():
        cfg = TfConfig(f_min=0.5, f_max=10.0, n_freqs=12)
        ref = default_synthetic.ew
        doubled = ref.with_samples(2.0 * ref.samples)
        assert tf_gof(ref, doubled).pg == 10.0
        flipped = ref.with_samples(-ref.samples)
        assert tf_gof(ref, flipped).eg == 10.0
        rng = np.random.default_rng(103)
        for _ in range(100):
            a = random_series(rng, n=256, dt=0.02)
            b = random_series(rng, n=256, dt=0.02)
            gof = tf_gof(a, b, cfg)
            values = np.concatenate([
                [gof.eg, gof.pg], gof.teg, gof.tpg, gof.feg, gof.fpg,
                gof.tfeg.ravel(), gof.tfpg.ravel()])
            assert values.min() >= 0.0 and values.max() <= 10.0

    _checked(3, "TF invariances and range over random pairs", check)


def test_criterion_04_intensity_measure_oracles():
    def check():
        const = TimeSeries(0.001, 0.0, np.ones(1001), Unit.ACCELERATION)
        ia = arias_intensity(const)
        expected = np.pi / (2.0 * G)
        assert abs(ia - expected) < 1e-3 * expected
        da = arias_duration(const)
        assert abs(da - 0.70 * const.duration) <= const.dt
        t_osc = 1.0
        t = np.arange(int(40.0 / 0.005) + 1) * 0.005
        resonant = TimeSeries(0.005, 0.0, np.sin(2 * np.pi * t / t_osc),
                              Unit.ACCELERATION)
        sa = response_spectrum(resonant, damping=0.05,
                               periods=np.array([t_osc]))
        assert abs(sa[0] - 10.0) < 0.02 * 10.0

    _checked(4, "intensity-measure closed-form oracles", check)


def test_criterion_05_moment_tensor():
    def check():
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0))
        assert grid.size == 27
        for angles in grid.angles():
            mt = moment_tensor(FocalMechanism(*angles), M0)
            assert abs(np.trace(mt.matrix)) < 1e-9 * M0
            assert np.allclose(mt.eigenvalues(), [-M0, 0.0, M0],
                               atol=1e-6 * M0)
        pure = moment_tensor(FocalMechanism(0.0, 90.0, 0.0), 1.0)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.allclose(pure.matrix, expected, atol=1e-12)
        bench = moment_tensor(FocalMechanism(45.0, 55.0, 90.0), M0)
        mzz = M0 * np.sin(np.radians(110.0))
        assert abs(bench.matrix[2, 2] - mzz) < 1e-6 * mzz

    _checked(5, "moment-tensor identities across the grid", check)


def test_criterion_06_synthesizer_physics():
    def check():
        med = Medium(rho=2500.0, vp=3366.0, vs=2047.0)
        fm = FocalMechanism(45.0, 55.0, 90.0)
        peaks = []
        for r, depth in ((20_000.0, 1000.0), (40_000.0, 2000.0)):
            horiz = np.sqrt(r ** 2 - depth ** 2)
            scn = PointSourceScenario(hypocenter=(0, 0, depth),
                                      receiver=(horiz, 0.0), medium=med,
                                      duration=r / med.vs + 4.0, dt=0.005)
            rec = synth_fullspace(scn, fm)
            t = rec.ew.times
            t_s = r / med.vs
            win = (t >= t_s - 0.2) & (t <= t_s + 2.0)
            peaks.append(max(np.abs(ts.samples[win]).max()
                             for _, ts in rec.components()))
        assert abs(peaks[0] / peaks[1] - 2.0) < 0.05 * 2.0

        ss = FocalMechanism(0.0, 90.0, 0.0)
        a_p_nodal, _ = radiation_pattern(ss, (1.0, 0.0, 0.0))
        a_p_max, _ = radiation_pattern(ss, (1.0, 1.0, 0.0))
        assert abs(a_p_nodal) < 0.01 * abs(a_p_max)
        r, depth = 60_000.0, 500.0
        horiz = np.sqrt(r ** 2 - depth ** 2)

        def p_window_peak(azimuth_deg):
            az = np.radians(azimuth_deg)
            scn = PointSourceScenario(
                hypocenter=(0, 0, depth),
                receiver=(horiz * np.cos(az), horiz * np.sin(az)),
                medium=med, duration=r / med.vs + 3.0, dt=0.005)
            rec = synth_fullspace(scn, ss)
            t = rec.ew.times
            win = (t >= r / med.vp - 0.1) & (t <= r / med.vs - 1.0)
            return max(np.abs(ts.samples[win]).max()
                       for _, ts in rec.components())

        assert p_window_peak(0.0) < 0.01 * p_window_peak(45.0)

        scn = default_scenario()
        start = time.perf_counter()
        rec = synth_fullspace(scn, fm)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        t_p = scn.hypocentral_distance / med.vp
        before = rec.ew.times < t_p - scn.dt
        for _, ts in rec.components():
            assert np.all(ts.samples[before] == 0.0)

    _checked(6, "far-field decay, nodal suppression, causality", check)


def test_criterion_07_earth_model():
    def check():
        from seisgof import default_crustal_model, layer_at, vp_basin, vs_basin
        assert vs_basin(0.0) == 300.0
        assert vs_basin(100.0) == 837.0
        assert vp_basin(400.0) == 2116.0
        model = default_crustal_model()
        expected_rows = [
            (0.0, 2500.0, 3366.0, 2047.0, 400.0, 180.0),
            (628.0, 2600.0, 5995.0, 3645.0, 400.0, 180.0),
            (1197.0, 2300.0, 1967.0, 1200.0, 400.0, 180.0),
            (1416.0, 2500.0, 3831.0, 2291.0, 400.0, 180.0),
            (2026.0, 2500.0, 3908.0, 2314.0, 400.0, 180.0),
            (2194.0, 2600.0, 5819.0, 3457.0, 400.0, 180.0),
            (5956.0, 2600.0, 5951.0, 3616.0, 400.0, 180.0),
        ]
        for depth_top, rho, vp, vs, qp, qs in expected_rows:
            layer = layer_at(model, depth_top)
            assert (layer.depth_top, layer.rho, layer.vp, layer.vs,
                    layer.qp, layer.qs) == (depth_top, rho, vp, vs, qp, qs)

    _checked(7, "basin formulas and crustal table verbatim", check)


def _normalized_tree(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_dir():
            continue
        rel = str(path.relative_to(root))
        if path.name == "manifest.json":
            body = json.loads(path.read_text())
            body.pop("generated_at", None)
            out[rel] = json.dumps(body, sort_keys=True)
        else:
            out[rel] = path.read_bytes()
    return out


@pytest.mark.slow
def test_criterion_08_sweep_pipeline(tmp_path):
    def check():
        scenario = default_scenario()
        fm = FocalMechanism(45.0, 55.0, 90.0)
        (tmp_path / "scenario.json").write_text(
            json.dumps(scenario_to_dict(scenario, fm)))
        reference = synth_fullspace(scenario, FocalMechanism(47.0, 57.0, 95.0))
        write_record(reference, tmp_path / "recorded.csv")
        (tmp_path / "config.json").write_text(json.dumps({
            "scenario": "scenario.json",
            "reference": "recorded.csv",
        }))
        cfg_path = str(tmp_path / "config.json")

        start = time.perf_counter()
        assert cli_main(["sweep", "--config", cfg_path,
                         "--out", str(tmp_path / "out1"),
                         "--workers", "1"]) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"sweep took {elapsed:.0f} s"

        manifest = json.loads((tmp_path / "out1" / "manifest.json").read_text())
        assert manifest["grid"]["strikes"] == [40.0, 45.0, 50.0]
        assert manifest["grid"]["dips"] == [50.0, 55.0, 60.0]
        assert manifest["grid"]["rakes"] == [80.0, 90.0, 100.0]
        runs = sorted((tmp_path / "out1" / "runs").iterdir())
        assert len(runs) == 27

        assert cli_main(["sweep", "--config", cfg_path,
                         "--out", str(tmp_path / "out2"),
                         "--workers", "1"]) == 0
        assert cli_main(["sweep", "--config", cfg_path,
                         "--out", str(tmp_path / "out3"),
                         "--workers", "2"]) == 0
        tree1 = _normalized_tree(tmp_path / "out1")
        assert tree1 == _normalized_tree(tmp_path / "out2")
        assert tree1 == _normalized_tree(tmp_path / "out3")

    _checked(8, "27-run sweep, bit-identical at any worker count", check)


def test_criterion_09_correlation_statistics():
    def check():
        results = _planted_results(lambda s, d, r: 0.25 * r + 2.0 - 20.0)
        tables = correlation_tables(results)
        for table in tables.values():
            i_rake = table.parameters.index("rake")
            for j in range(len(table.metrics)):
                assert abs(table.r[i_rake, j] - 1.0) < 1e-12
                assert table.p[i_rake, j] < 0.05
            for param in ("strike", "dip"):
                i = table.parameters.index(param)
                assert np.all(np.abs(table.r[i]) < 1e-9)

        rng = np.random.default_rng(107)
        n = 27
        for target in (0.1, 0.3, 0.5):
            x = rng.standard_normal(n)
            y = target * x + rng.standard_normal(n)
            r_obs = pearson(x, y)
            if abs(r_obs) > 0.6:
                continue
            p_t = p_value(r_obs, n)
            n_perm = 100_000
            perms = rng.permuted(np.tile(y, (n_perm, 1)), axis=1)
            dx = x - x.mean()
            dy = perms - perms.mean(axis=1, keepdims=True)
            r_perm = (dy @ dx) / np.sqrt((dx @ dx) * (dy * dy).sum(axis=1))
            p_perm = float(np.mean(np.abs(r_perm) >= abs(r_obs)))
            assert abs(p_t - p_perm) < 0.02, (r_obs, p_t, p_perm)

        r = np.array([[0.9, 0.1], [0.5, 0.2], [0.8, -0.3]])
        p = np.array([[0.01, 0.8], [0.2, 0.9], [0.04, 0.06]])
        table = CorrelationTable(component="ew", parameters=PARAMETERS,
                                 metrics=("EG", "PG"), r=r, p=p, n=27)
        masked = significant(table, alpha=0.05)
        assert np.isnan(masked.r[0, 1]) and np.isnan(masked.r[1, 0])
        assert masked.r[0, 0] == 0.9 and masked.r[2, 0] == 0.8
        assert not np.any(masked.r[~np.isfinite(masked.r)] == 0.0)

    _checked(9, "planted correlations, permutation oracle, masking", check)


def test_criterion_10_report_fidelity(tmp_path):
    def check():
        from seisgof.cli import cmd_report
        out = tmp_path / "report"
        assert cmd_report(DATA / "fixture_run", out) == 0
        for name in ("correlation_ew.svg", "correlation_ns.svg",
                     "correlation_ud.svg", "grouped_ew.svg",
                     "grouped_ns.svg", "grouped_ud.svg"):
            assert ((out / name).read_bytes()
                    == (DATA / "golden" / name).read_bytes()), name
        grouped = (out / "grouped_ew.svg").read_text()
        for color in ("#d73027", "#ffd966", "#ffffff"):
            assert color in grouped
        heatmap = (out / "correlation_ew.svg").read_text()
        assert 'fill="#ffffff" stroke="#cccccc"' in heatmap  # blank cells

    _checked(10, "golden-file report with quality colors and blanks", check)
