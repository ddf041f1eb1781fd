import dataclasses
import json
import math
import pickle
import struct
import sys
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seisgof import (FocalMechanism, build_grid, default_scenario, ensemble,
                     gof_anderson, gof_tf, p_value, pearson, record_tf_gof,
                     score_pair, significant, synth_fullspace)
from seisgof.ensemble import (METRICS, PARAMETERS, CorrelationTable,
                              ReferenceScorer, RunResult, correlation_tables,
                              group_report, metric_values, run_dir_name,
                              run_sweep, synthesize)
from seisgof.gof_anderson import (IMS, AndersonConfig, AndersonScores,
                                  BandSpec, anderson_summary, default_bands)
from seisgof.gof_tf import TfConfig
from seisgof.signal import (COMPONENTS, Record3C, TimeSeries, Unit,
                            align_records)
from seisgof.traceio import meta_path_for, write_record

# The stated tolerance of p_value: relative to the exact value at the
# given r, for the 3 to 27 samples a sweep has, tested up to 200. No other
# output of a sweep may change a byte.
P_VALUE_REL_TOL = 1e-12


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

    def test_non_finite_input_is_error(self):
        # max(-1.0, nan) is -1.0: a NaN must not pass as r = -1, p = 0.
        y = np.arange(27.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                pearson(np.arange(27.0), np.where(y == 3.0, bad, y))
            with pytest.raises(ValueError, match="non-finite"):
                pearson(np.where(y == 3.0, bad, y), np.arange(27.0))

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            pearson(np.array([1.0, 2.0]), np.array([3.0, 4.0]))

    def test_p_value_matches_scipy_t_distribution(self):
        # Within the stated tolerance, not bit for bit: p_value is not
        # scipy's code. t is formed from (1 - r)(1 + r), as p_value forms
        # 1 - r^2; near |r| = 1, 1 - r * r would round the oracle's input.
        from scipy import stats

        for n in (3, 4, 10, 27, 200):
            for r in (-0.999, -0.5, -1e-3, 0.0, 0.2, 0.7, 0.9999):
                t = r * math.sqrt((n - 2) / ((1.0 - r) * (1.0 + r)))
                expected = 2.0 * stats.t.sf(abs(t), n - 2)
                assert p_value(r, n) == pytest.approx(
                    expected, rel=P_VALUE_REL_TOL, abs=0.0)

    @pytest.mark.parametrize("n", (3, 4, 5, 10, 27, 28, 50, 200))
    def test_p_value_is_the_exact_incomplete_beta(self, n):
        # The exact two-sided p at the given r is I_{1-r^2}(nu/2, 1/2),
        # here at 80 digits. r near +-1 and near 0, where 1 - r^2 and r^2
        # lose digits to each other; around the 5 % threshold, where the
        # continued fraction's terms cancel; and uniform r.
        import mpmath

        rng = np.random.default_rng(n)
        rs = np.concatenate([
            [1.0 - 1e-15, -(1.0 - 1e-15), 1e-12, -1e-12, 0.5],
            1.0 - 10.0 ** rng.uniform(-15.5, -1.0, 40),
            10.0 ** rng.uniform(-12.0, -1.0, 40),
            np.minimum(rng.uniform(0.0, 8.0, 60) / math.sqrt(n), 1.0),
            rng.uniform(-1.0, 1.0, 60)])
        for r in rs:
            r = float(r)
            with mpmath.workdps(80):
                exact = mpmath.betainc((n - 2) / 2, 0.5, 0,
                                       1 - mpmath.mpf(r) ** 2,
                                       regularized=True)
            p = p_value(r, n)
            if float(exact) < sys.float_info.min:
                # below the normal floats: 0.0 where it underflows
                assert abs(p - float(exact)) <= (P_VALUE_REL_TOL
                                                 * sys.float_info.min), r
            else:
                assert abs(p - exact) <= P_VALUE_REL_TOL * exact, r

    @pytest.mark.parametrize("n", (3, 4, 27, 200))
    def test_p_value_ends(self, n):
        assert p_value(0.0, n) == 1.0
        assert p_value(-0.0, n) == 1.0
        assert p_value(1.0, n) == 0.0
        assert p_value(-1.0, n) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1.0, 1.0), st.integers(3, 200))
    def test_p_value_is_even_in_r(self, r, n):
        assert (struct.pack("<d", p_value(-r, n))
                == struct.pack("<d", p_value(r, n)))

    @pytest.mark.parametrize("n", (3, 4, 5, 10, 27, 200))
    def test_p_value_falls_with_abs_r_inside_the_unit_interval(self, n):
        p = np.array([p_value(float(r), n)
                      for r in np.linspace(0.0, 1.0, 2001)])
        assert ((0.0 <= p) & (p <= 1.0)).all()
        assert (np.diff(p) <= 0.0).all()

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
        anderson = {comp: AndersonScores(
            IMS, bands, np.full((len(IMS), len(bands)), value))
            for comp in COMPONENTS}
        summary = {"tf": {comp: {"EG": value, "PG": value}
                          for comp in COMPONENTS},
                   "anderson": anderson_summary(anderson)}
        results.append(RunResult(angles=angles, summary=summary))
    return results


def _trace_bytes(csv_path):
    """The bytes of a trace CSV and of its sidecar; None if there is none."""
    if not csv_path.exists():
        return None
    return csv_path.read_bytes(), meta_path_for(csv_path).read_bytes()


def _written(out_dir, angles):
    """What a sweep wrote under ``out_dir`` for one run: the bytes of its
    gof.json, and of its synthetic.csv and sidecar (None for a failed
    run)."""
    run_dir = out_dir / "runs" / run_dir_name(angles)
    return ((run_dir / "gof.json").read_bytes(),
            _trace_bytes(run_dir / "synthetic.csv"))


def _trace_file(record, tmp_path):
    """The bytes the sweep writes for a run's synthetic ``record``."""
    return _trace_bytes(write_record(record, tmp_path / "expected.csv"))


def _gof_json(angles, anderson, tf):
    """The gof.json bytes of a run with these per-pair scores."""
    payload = {"angles": dict(zip(PARAMETERS, angles)), "error": None,
               "tf": {comp: {"EG": gof.eg, "PG": gof.pg}
                      for comp, gof in tf.items()},
               "anderson": anderson_summary(anderson)}
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


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

    def test_non_finite_metric_flagged_undefined(self):
        # One run whose every metric is NaN leaves every cell undefined,
        # and so never significant.
        results = _planted_results(
            lambda s, d, r: np.nan if (s, d, r) == (40.0, 50.0, 80.0)
            else 0.25 * r - 18.0)
        for table in correlation_tables(results).values():
            assert np.all(np.isnan(table.r))
            assert np.all(np.isnan(table.p))
            assert np.all(np.isnan(significant(table).r))

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


class TestChunks:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    def test_split_is_balanced_and_within_the_cap(self, workers):
        # The fewest contiguous chunks, in run order, whose count is a
        # multiple of the worker count, with sizes within the cap that
        # differ by at most one; one run each if there are fewer runs than
        # workers.
        cap = ensemble.SWEEP_CHUNK_MAX_RUNS
        for n in range(1, 61):
            runs = list(range(n))
            chunks = ensemble._chunks(runs, workers)
            sizes = [len(chunk) for chunk in chunks]
            assert [run for chunk in chunks for run in chunk] == runs
            assert 1 <= min(sizes) and max(sizes) - min(sizes) <= 1
            assert max(sizes) <= cap
            if n < workers:
                assert sizes == [1] * n
                continue
            assert len(chunks) % workers == 0
            fewer = len(chunks) - workers
            assert fewer == 0 or -(-n // fewer) > cap

    def test_default_grid_is_two_chunks_at_one_or_two_workers(self):
        angles = build_grid(FocalMechanism(45.0, 55.0, 90.0)).angles()
        for workers in (1, 2):
            chunks = ensemble._chunks(angles, workers)
            assert [len(chunk) for chunk in chunks] == [14, 13]
            assert chunks[0] + chunks[1] == angles


class TestRunSweep:
    def test_the_pool_type_is_the_one_attribute_loaded_on_use(self):
        # ensemble.__getattr__ resolves ProcessPoolExecutor and nothing
        # else, so a misspelt name is still an AttributeError.
        from concurrent.futures.process import ProcessPoolExecutor
        assert ensemble.ProcessPoolExecutor is ProcessPoolExecutor
        with pytest.raises(AttributeError, match="ThreadPoolExecutor"):
            ensemble.ThreadPoolExecutor

    @pytest.mark.parametrize("workers,started", [(2, 2), (64, 27)])
    def test_pool_starts_no_more_workers_than_chunks(
            self, small_sweep_inputs, monkeypatch, tmp_path, workers,
            started):
        # Under fork a pool starts all its workers at once: 64 for the 27
        # one-run chunks of the default grid would leave 37 idle. A
        # stand-in pool records its size and runs the chunks in this
        # process, so the test starts none.
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        def no_record(angles):
            raise RuntimeError("no record")

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(ensemble, "_SWEEP", None)
        _, reference, a_cfg, t_cfg = small_sweep_inputs
        results = run_sweep(no_record,
                            build_grid(FocalMechanism(45.0, 55.0, 90.0)),
                            reference, tmp_path, anderson_config=a_cfg,
                            tf_config=t_cfg, workers=workers)
        assert sizes == [started]
        assert [res.error for res in results] == [
            "RuntimeError: no record"] * 27

    def test_serial_sweep_produces_results(self, small_sweep_inputs,
                                           tmp_path):
        scenario, reference, a_cfg, t_cfg = small_sweep_inputs
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0), (5.0, 0.0, 0.0))
        results = run_sweep(partial(synthesize, scenario, None), grid,
                            reference, tmp_path, anderson_config=a_cfg,
                            tf_config=t_cfg)
        assert len(results) == 3
        assert all(res.error is None for res in results)
        assert [res.angles for res in results] == grid.angles()
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
            run_dir_name(angles) for angles in grid.angles()]

    def test_worker_count_does_not_change_results(self, small_sweep_inputs,
                                                  tmp_path):
        scenario, reference, a_cfg, t_cfg = small_sweep_inputs
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0), (5.0, 0.0, 0.0))
        serial = run_sweep(partial(synthesize, scenario, None), grid,
                           reference, tmp_path / "w1", anderson_config=a_cfg,
                           tf_config=t_cfg, workers=1)
        parallel = run_sweep(partial(synthesize, scenario, None), grid,
                             reference, tmp_path / "w2",
                             anderson_config=a_cfg, tf_config=t_cfg,
                             workers=2)
        assert len(serial) == len(parallel) == 3
        for rs, rp in zip(serial, parallel):
            assert rs.angles == rp.angles
            assert rs.error is rp.error is None
            assert (_written(tmp_path / "w1", rs.angles)
                    == _written(tmp_path / "w2", rp.angles))

    def test_results_hold_only_what_the_sweep_writes(self, small_sweep_inputs,
                                                     tmp_path):
        # Pool workers write each run's files and send back only its
        # angles and gof.json summary: no samples, no time-frequency planes.
        # A result that carried its 1,201-sample synthetic took about 31 KB.
        scenario, reference, a_cfg, t_cfg = small_sweep_inputs
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0), (5.0, 0.0, 0.0))
        out = tmp_path / "sweep"
        results = run_sweep(partial(synthesize, scenario, None), grid,
                            reference, out, anderson_config=a_cfg,
                            tf_config=t_cfg, workers=2)
        assert [res.angles for res in results] == grid.angles()
        assert [f.name for f in dataclasses.fields(RunResult)] == [
            "angles", "summary", "error"]
        for res in results:
            assert len(pickle.dumps(res)) < 4 * 1024
            synthetic = synth_fullspace(scenario, FocalMechanism(*res.angles))
            rec, sim = align_records(reference, synthetic)
            want = _gof_json(res.angles, score_pair(rec, sim, config=a_cfg),
                             record_tf_gof(rec, sim, t_cfg))
            assert _written(out, res.angles) == (
                want, _trace_file(synthetic, tmp_path))

    def test_metric_values_shape(self, small_sweep_inputs, tmp_path):
        scenario, reference, a_cfg, t_cfg = small_sweep_inputs
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0), (0.0, 0.0, 0.0))
        res = run_sweep(partial(synthesize, scenario, None), grid, reference,
                        tmp_path, anderson_config=a_cfg, tf_config=t_cfg)[0]
        vals = metric_values(res, "ew")
        assert set(vals) == set(METRICS)
        assert all(np.isfinite(v) for v in vals.values())


class TestReferenceScorer:
    def test_equals_per_pair_scoring(self, small_sweep_inputs, monkeypatch,
                                     tmp_path):
        scenario, reference, a_cfg, t_cfg = small_sweep_inputs
        synthetics = {angles: synth_fullspace(scenario,
                                              FocalMechanism(*angles))
                      for angles in ((40.0, 50.0, 80.0), (45.0, 55.0, 90.0),
                                     (50.0, 60.0, 100.0))}
        # With one run per call, a run on another grid between runs on the
        # reference's grid replaces the prepared reference and then brings
        # the first one back.
        angles = list(synthetics)
        angles.insert(2, (45.0, 60.0, 80.0))
        synthetics[angles[2]] = synth_fullspace(
            default_scenario(duration=10.0, dt=0.02),
            FocalMechanism(*angles[2]))
        prepared = []
        prepare = ensemble.tf_reference

        def counting_reference(ts, config):
            prepared.append(ts.n)
            return prepare(ts, config)

        monkeypatch.setattr(ensemble, "tf_reference", counting_reference)
        scorer = ReferenceScorer(reference, a_cfg, t_cfg)
        out = tmp_path / "sweep"
        results = [res for run in angles for res in scorer.run_many(
            [run], synthetics.__getitem__, out)]
        assert prepared == [1201] * 3 + [1001] * 3 + [1201] * 3
        assert [res.angles for res in results] == angles
        for res in results:
            rec, sim = align_records(reference, synthetics[res.angles])
            want = _gof_json(res.angles, score_pair(rec, sim, config=a_cfg),
                             record_tf_gof(rec, sim, t_cfg))
            assert _written(out, res.angles) == (
                want, _trace_file(synthetics[res.angles], tmp_path))

    @pytest.mark.filterwarnings("ignore:.*periods at or below 2\\*dt")
    def test_serial_sweep_prepares_the_reference_once(self, monkeypatch,
                                                      tmp_path):
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

        def counting_bank(x, dt, edges, *args):
            bank_rows.append(len(x) * len(edges))
            return bank(x, dt, edges, *args)

        monkeypatch.setattr(gof_anderson, "bandpass_bank", counting_bank)
        count(gof_tf, "cwt")
        results = run_sweep(partial(synthesize, scenario, None),
                            build_grid(FocalMechanism(45.0, 55.0, 90.0)),
                            reference, tmp_path)
        assert len(results) == 27
        assert all(res.error is None for res in results)
        # One bank of 3 components x 7 bands per record for each chunk of
        # runs; the reference joins the first. 27 runs are 14 + 13.
        sizes = [len(c) for c in ensemble._chunks(list(range(27)), 1)]
        assert sizes == [14, 13]
        assert bank_rows == [21 * (1 + sizes[0])] + [21 * n for n in sizes[1:]]
        assert calls == {"cwt": 3 + 27 * 3}

    @pytest.mark.filterwarnings("ignore:.*periods at or below 2\\*dt")
    def test_a_chunk_is_compared_in_one_batch(self, monkeypatch, tmp_path):
        # A 14-run chunk on the 50-Hz grid of the benchmark's sweep: one
        # compare_anderson call for its 42 (reference, synthetic) pairs,
        # and the FFT screen leaves at most two np.correlate calls per
        # band, where every kept lag (51 of them) used to be computed.
        scenario = default_scenario(duration=12.0, dt=0.02)
        reference = synth_fullspace(scenario, FocalMechanism(47.0, 57.0, 95.0))
        angles = build_grid(FocalMechanism(45.0, 55.0, 90.0)).angles()[:14]
        batches, calls = [], []
        compare, correlate = ensemble.compare_anderson, np.correlate

        def recording(pairs, config):
            pairs = list(pairs)
            batches.append(len(pairs))
            return compare(pairs, config)

        def counting(*args, **kwargs):
            calls.append(args[0].size)
            return correlate(*args, **kwargs)

        monkeypatch.setattr(ensemble, "compare_anderson", recording)
        monkeypatch.setattr(np, "correlate", counting)
        scorer = ReferenceScorer(reference, AndersonConfig(), TfConfig())
        results = scorer.run_many(angles, partial(synthesize, scenario, None),
                                  tmp_path)
        assert all(res.error is None for res in results)
        assert batches == [14 * 3]
        assert len(calls) <= 2 * 14 * 3 * len(default_bands())

    def test_silent_reference_component_fails_every_run(
            self, small_sweep_inputs, monkeypatch, tmp_path):
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
            out = tmp_path / f"w{workers}"
            results = run_sweep(partial(synthesize, scenario, None), grid,
                                silent, out, anderson_config=a_cfg,
                                tf_config=t_cfg, workers=workers)
            assert [res.angles for res in results] == grid.angles()
            assert {res.error for res in results} == {
                "ValueError: reference trace is identically zero; "
                "misfit normalization is undefined"}
            assert not list(out.glob("runs/*/synthetic.csv"))
        # Pool tasks carry chunks of angles only; the reference goes to
        # each worker once.
        assert tasks == [(chunk,) for chunk in ensemble._chunks(grid.angles(),
                                                                2)]


class TestBatchFailures:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failures_stay_per_run(self, small_sweep_inputs, monkeypatch,
                                   tmp_path):
        scenario, reference, a_cfg, t_cfg = small_sweep_inputs
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0), (5.0, 5.0, 0.0))
        angles = grid.angles()
        other_grid = default_scenario(duration=10.0, dt=0.02)
        synth = ensemble.synth_fullspace

        def scaled(record, scale, unit=Unit.ACCELERATION):
            return Record3C(**{name: TimeSeries(
                ts.dt, ts.t0, ts.samples / np.abs(ts.samples).max() * scale,
                unit) for name, ts in record.components()})

        def fake_synth(scn, fm, stf=None):
            # The first chunk holds one run of each kind of failure, one
            # run on another grid and an ordinary run.
            run = angles.index((fm.strike, fm.dip, fm.rake))
            if run == 0:
                raise RuntimeError("synthesis failed")
            if run == 3:
                return synth(other_grid, fm, stf)
            record = synth(scn, fm, stf)
            if run == 1:  # it overflows to NaN TF misfits inside the batch
                return scaled(record, 1e308)
            if run == 2:  # alignment rejects it before the batch
                return scaled(record, 1.0, Unit.VELOCITY)
            return record

        monkeypatch.setattr(ensemble, "synth_fullspace", fake_synth)
        monkeypatch.setattr(ensemble, "SWEEP_CHUNK_MAX_RUNS", 6)
        assert [len(c) for c in ensemble._chunks(angles, 1)] == [5, 4]
        serial, parallel = (
            run_sweep(partial(synthesize, scenario, None), grid, reference,
                      tmp_path / f"w{workers}", anderson_config=a_cfg,
                      tf_config=t_cfg, workers=workers)
            for workers in (1, 2))
        with pytest.raises(ValueError) as overflow:
            record_tf_gof(*align_records(reference, fake_synth(
                scenario, FocalMechanism(*angles[1]))), t_cfg)
        assert [res.error for res in serial[:3]] == [
            "RuntimeError: synthesis failed",
            f"ValueError: {overflow.value}",
            "UnitError: unit mismatch: m/s2 vs m/s"]
        for i, run in enumerate(angles):
            res_s, res_p = serial[i], parallel[i]
            assert res_s.angles == res_p.angles == run
            assert res_s.error == res_p.error
            written = _written(tmp_path / "w1", run)
            assert _written(tmp_path / "w2", run) == written
            if i < 3:
                assert written[1] is None
                continue
            assert res_s.error is None
            synthetic = fake_synth(scenario, FocalMechanism(*run))
            rec, sim = align_records(reference, synthetic)
            assert written == (
                _gof_json(run, score_pair(rec, sim, config=a_cfg),
                          record_tf_gof(rec, sim, t_cfg)),
                _trace_file(synthetic, tmp_path))
