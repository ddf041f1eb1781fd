from collections import Counter

import numpy as np
import pytest

from seisgof import (AndersonConfig, BandSpec, FocalMechanism, Record3C,
                     TfConfig, align_records, build_grid, correlation_tables,
                     default_scenario, ensemble, gof_anderson, gof_tf,
                     group_report, p_value, pearson, record_tf_gof, run_sweep,
                     score_pair, significant, synth_fullspace)
from seisgof.ensemble import (METRICS, PARAMETERS, CorrelationTable,
                              ReferenceScorer, RunResult, metric_values)
from seisgof.gof_anderson import IMS, AndersonScores, default_bands
from seisgof.gof_tf import TfGof


class TestBuildGrid:
    def test_default_grid_matches_benchmark_lists(self):
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0))
        assert grid.strikes == (40.0, 45.0, 50.0)
        assert grid.dips == (50.0, 55.0, 60.0)
        assert grid.rakes == (80.0, 90.0, 100.0)
        angles = grid.angles()
        assert len(angles) == 27
        assert (40.0, 50.0, 80.0) in angles
        assert (50.0, 60.0, 100.0) in angles

    def test_degenerate_grid(self):
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0), (0.0, 0.0, 0.0))
        assert grid.size == 1

    def test_dip_leaving_range_is_error(self):
        with pytest.raises(ValueError):
            build_grid(FocalMechanism(45.0, 88.0, 90.0), (5.0, 5.0, 10.0))

    def test_deterministic_order(self):
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0))
        assert grid.angles() == sorted(grid.angles())


class TestPearson:
    def test_exact_linear_relation(self):
        x = np.arange(27.0)
        r = pearson(x, 2.0 * x + 1.0)
        assert r == 1.0
        assert p_value(r, 27) < 1e-6

    def test_anticorrelation(self):
        x = np.arange(27.0)
        assert pearson(x, -3.0 * x + 2.0) == -1.0

    def test_independent_samples_stay_small(self):
        # |r| < 0.5 holds with probability ~0.992 for n = 27; check the
        # Monte-Carlo fraction rather than every draw
        rng = np.random.default_rng(41)
        hits = sum(abs(pearson(rng.standard_normal(27),
                               rng.standard_normal(27))) < 0.5
                   for _ in range(1000))
        assert hits / 1000 >= 0.98

    def test_constant_input_is_error(self):
        with pytest.raises(ValueError):
            pearson(np.full(27, 3.0), np.arange(27.0))
        with pytest.raises(ValueError):
            pearson(np.arange(27.0), np.zeros(27))

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            pearson(np.array([1.0, 2.0]), np.array([3.0, 4.0]))

    def test_p_value_matches_scipy_t_distribution(self):
        from scipy import stats

        for n in (3, 4, 10, 27, 200):
            for r in (-0.999, -0.5, -1e-3, 0.0, 0.2, 0.7, 0.9999):
                t = r * np.sqrt((n - 2) / (1.0 - r * r))
                assert p_value(r, n) == 2.0 * stats.t.sf(abs(t), n - 2)

    def test_p_value_against_permutation_oracle(self):
        # light version of the acceptance oracle: 2e4 shuffles, 0.03 window
        rng = np.random.default_rng(43)
        x = rng.standard_normal(27)
        y = 0.4 * x + rng.standard_normal(27)
        r_obs = pearson(x, y)
        assert abs(r_obs) <= 0.8
        p_t = p_value(r_obs, 27)
        n_perm = 20_000
        perms = np.array([rng.permutation(y) for _ in range(n_perm)])
        dx = x - x.mean()
        dy = perms - perms.mean(axis=1, keepdims=True)
        num = dy @ dx
        den = np.sqrt((dx @ dx) * (dy * dy).sum(axis=1))
        r_perm = num / den
        p_perm = np.mean(np.abs(r_perm) >= abs(r_obs))
        assert abs(p_t - p_perm) < 0.03


def _planted_results(metric_fn):
    """27 RunResults whose every metric is a planted function of the angles."""
    grid = build_grid(FocalMechanism(45.0, 55.0, 90.0))
    bands = default_bands()
    results = []
    for angles in grid.angles():
        value = metric_fn(*angles)
        tf = {}
        anderson = {}
        for comp in ("ew", "ns", "ud"):
            tf[comp] = TfGof(times=np.zeros(2), freqs=np.ones(2),
                             eg=value, pg=value,
                             teg=np.full(2, value), tpg=np.full(2, value),
                             feg=np.full(2, value), fpg=np.full(2, value),
                             tfeg=np.full((2, 2), value),
                             tfpg=np.full((2, 2), value))
            anderson[comp] = AndersonScores(
                IMS, bands, np.full((len(IMS), len(bands)), value))
        results.append(RunResult(angles=angles, tf=tf, anderson=anderson))
    return results


class TestCorrelationTables:
    def test_planted_rake_dependence(self):
        # metric = rake/4 + 2 stays inside [0, 10] -> exact r for rake,
        # exact zero for strike/dip by factorial orthogonality
        results = _planted_results(lambda s, d, r: 0.25 * r + 2.0 - 20.0)
        tables = correlation_tables(results)
        for table in tables.values():
            i_rake = table.parameters.index("rake")
            i_strike = table.parameters.index("strike")
            i_dip = table.parameters.index("dip")
            for j in range(len(table.metrics)):
                assert abs(table.r[i_rake, j] - 1.0) < 1e-12
                assert table.p[i_rake, j] < 0.05
                assert abs(table.r[i_strike, j]) < 1e-9
                assert abs(table.r[i_dip, j]) < 1e-9

    def test_constant_metric_flagged_undefined(self):
        results = _planted_results(lambda s, d, r: 5.0)
        tables = correlation_tables(results)
        for table in tables.values():
            assert np.all(np.isnan(table.r))
            assert np.all(np.isnan(table.p))

    def test_failed_runs_drop_from_n(self):
        results = _planted_results(lambda s, d, r: 0.25 * r - 18.0)
        results[3] = RunResult(angles=results[3].angles, error="boom")
        tables = correlation_tables(results)
        assert tables["ew"].n == 26

    def test_metrics_axis_matches_figure(self):
        assert METRICS == ("EG", "PG", "pga", "pgv", "pgd", "ia", "da", "de",
                           "iv", "sa", "fs", "cstar")


class TestSignificant:
    def test_masking_blanks_not_zeros(self):
        r = np.array([[0.9, 0.1], [0.5, -0.2], [1.0, 0.3]])
        p = np.array([[0.01, 0.8], [0.04, 0.9], [0.001, 0.06]])
        table = CorrelationTable(component="ew", parameters=PARAMETERS,
                                 metrics=("EG", "PG"), r=r, p=p, n=27)
        masked = significant(table, alpha=0.05)
        assert masked.r[0, 0] == 0.9
        assert np.isnan(masked.r[0, 1])
        assert not np.any(masked.r[np.isnan(masked.r)] == 0.0)
        # boundary: p = alpha stays visible ("p <= 0.05")
        edge = CorrelationTable(component="ew", parameters=PARAMETERS,
                                metrics=("EG",),
                                r=np.array([[0.5], [0.5], [0.5]]),
                                p=np.array([[0.05], [0.051], [0.049]]), n=27)
        masked_edge = significant(edge, alpha=0.05)
        assert masked_edge.r[0, 0] == 0.5
        assert np.isnan(masked_edge.r[1, 0])


class TestGroupReport:
    def test_grouping_shares_nine_runs(self):
        results = _planted_results(lambda s, d, r: 0.1 * (s + d + r) - 14.0)
        rows = group_report(results)
        assert len(rows) == 3 * 3 * 3 * len(METRICS)
        for row in rows:
            assert len(row.scores) == 9
            assert row.min <= row.mean <= row.max

    def test_planted_group_means(self):
        results = _planted_results(lambda s, d, r: 0.25 * r - 18.0)
        rows = group_report(results)
        for row in rows:
            if row.parameter == "rake":
                assert np.isclose(row.mean, 0.25 * row.value - 18.0)
                assert np.isclose(row.min, row.max)


@pytest.fixture(scope="module")
def small_sweep_inputs():
    scenario = default_scenario(duration=12.0, dt=0.01)
    reference = synth_fullspace(scenario, FocalMechanism(47.0, 57.0, 95.0))
    a_cfg = AndersonConfig(bands=BandSpec(((0.5, 1.0), (1.0, 2.0))),
                           periods=np.logspace(np.log10(0.1), 1.0, 8))
    t_cfg = TfConfig(f_min=0.5, f_max=5.0, n_freqs=10)
    return scenario, reference, a_cfg, t_cfg


class TestRunSweep:
    def test_serial_sweep_produces_results(self, small_sweep_inputs):
        scenario, reference, a_cfg, t_cfg = small_sweep_inputs
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0), (5.0, 0.0, 0.0))
        results = run_sweep(scenario, grid, reference,
                            anderson_config=a_cfg, tf_config=t_cfg)
        assert len(results) == 3
        assert all(res.error is None for res in results)
        assert [res.angles for res in results] == grid.angles()

    def test_worker_count_does_not_change_results(self, small_sweep_inputs):
        scenario, reference, a_cfg, t_cfg = small_sweep_inputs
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0), (5.0, 0.0, 0.0))
        serial = run_sweep(scenario, grid, reference, anderson_config=a_cfg,
                           tf_config=t_cfg, workers=1)
        parallel = run_sweep(scenario, grid, reference, anderson_config=a_cfg,
                             tf_config=t_cfg, workers=2)
        for rs, rp in zip(serial, parallel):
            assert rs.angles == rp.angles
            for comp in ("ew", "ns", "ud"):
                assert rs.tf[comp].eg == rp.tf[comp].eg
                assert rs.tf[comp].pg == rp.tf[comp].pg
                ms, mp = rs.anderson[comp].scores, rp.anderson[comp].scores
                assert np.array_equal(ms, mp, equal_nan=True)

    def test_metric_values_shape(self, small_sweep_inputs):
        scenario, reference, a_cfg, t_cfg = small_sweep_inputs
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0), (0.0, 0.0, 0.0))
        res = run_sweep(scenario, grid, reference, anderson_config=a_cfg,
                        tf_config=t_cfg)[0]
        vals = metric_values(res, "ew")
        assert set(vals) == set(METRICS)
        assert all(np.isfinite(v) for v in vals.values())


class TestReferenceScorer:
    def test_equals_per_pair_scoring(self, small_sweep_inputs):
        scenario, reference, a_cfg, t_cfg = small_sweep_inputs
        synthetics = [synth_fullspace(scenario, FocalMechanism(*angles))
                      for angles in ((40.0, 50.0, 80.0), (45.0, 55.0, 90.0),
                                     (50.0, 60.0, 100.0))]
        # Another grid between runs on the reference's grid replaces the
        # prepared reference and then brings the first one back.
        other = default_scenario(duration=10.0, dt=0.02)
        synthetics.insert(2, synth_fullspace(other,
                                             FocalMechanism(45.0, 60.0, 80.0)))
        scorer = ReferenceScorer(reference, a_cfg, t_cfg)
        for synthetic in synthetics:
            anderson, tf = scorer.score(synthetic)
            rec, sim = align_records(reference, synthetic)
            want_a = score_pair(rec, sim, config=a_cfg)
            want_tf = record_tf_gof(rec, sim, t_cfg)
            assert list(anderson) == list(tf) == ["ew", "ns", "ud"]
            for comp in ("ew", "ns", "ud"):
                assert np.array_equal(anderson[comp].scores,
                                      want_a[comp].scores, equal_nan=True)
                assert anderson[comp].skipped == want_a[comp].skipped
                got, want = tf[comp], want_tf[comp]
                assert (got.eg, got.pg) == (want.eg, want.pg)
                for name in ("times", "freqs", "teg", "tpg", "feg", "fpg",
                             "tfeg", "tfpg"):
                    assert np.array_equal(getattr(got, name),
                                          getattr(want, name))

    @pytest.mark.filterwarnings("ignore:.*periods at or below 2\\*dt")
    def test_serial_sweep_prepares_the_reference_once(self, monkeypatch):
        scenario = default_scenario(duration=12.0, dt=0.02)
        reference = synth_fullspace(scenario, FocalMechanism(47.0, 57.0, 95.0))
        calls = Counter()

        def count(module, name):
            func = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        bank_rows = []
        bank = gof_anderson.bandpass_bank

        def counting_bank(traces, edges, *args):
            bank_rows.append(len(traces) * len(edges))
            return bank(traces, edges, *args)

        monkeypatch.setattr(gof_anderson, "bandpass_bank", counting_bank)
        count(gof_tf, "cwt")
        results = run_sweep(scenario, build_grid(FocalMechanism(45.0, 55.0,
                                                                90.0)),
                            reference)
        assert len(results) == 27
        assert all(res.error is None for res in results)
        # One bank of 3 components x 7 bands for the reference, then one
        # per run.
        assert bank_rows == [21] * (1 + 27)
        assert calls == {"cwt": 3 + 27 * 3}

    def test_silent_reference_component_fails_every_run(
            self, small_sweep_inputs, monkeypatch):
        scenario, reference, a_cfg, t_cfg = small_sweep_inputs
        silent = Record3C(ew=reference.ew, ns=reference.ns,
                          ud=reference.ud.with_samples(
                              np.zeros(reference.ud.n)))
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0), (5.0, 0.0, 0.0))
        tasks = []

        class RecordingPool(ensemble.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                columns = [list(it) for it in iterables]
                tasks.extend(zip(*columns))
                return super().map(fn, *columns, **kwargs)

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", RecordingPool)
        for workers in (1, 2):
            results = run_sweep(scenario, grid, silent, anderson_config=a_cfg,
                                tf_config=t_cfg, workers=workers)
            assert [res.angles for res in results] == grid.angles()
            assert {res.error for res in results} == {
                "ValueError: reference trace is identically zero; "
                "misfit normalization is undefined"}
        # Pool tasks carry the angles only; the reference goes to each
        # worker once.
        assert tasks == [(angles,) for angles in grid.angles()]
