import dataclasses

import numpy as np
import pytest

from seisgof import (QualityLevel, TimeSeries, Unit, aggregate, gof_anderson,
                     imeasures, quality, score_pair, score_scalar)
from seisgof.gof_anderson import (IMS, SCALAR_IMS, AndersonConfig, BandSpec,
                                  default_bands)
from seisgof.imeasures import compute_intensity_vector, cross_correlation
from seisgof.signal import Record3C, bandpass

from conftest import burst_series, record_from_arrays

TEN_OVER_E = 10.0 * np.exp(-1.0)


def measure_row(scores, im):
    """The scores of measure ``im`` in every band."""
    return scores.scores[scores.ims.index(im)]


class TestScoreScalar:
    def test_identical_parameters(self):
        assert score_scalar(3.7, 3.7) == 10.0

    def test_closed_form_value(self):
        assert abs(score_scalar(1.0, 2.0) - TEN_OVER_E) < 1e-12

    def test_degenerate_conventions(self):
        assert score_scalar(0.0, 0.0) == 10.0
        assert score_scalar(0.0, 5.0) == 0.0
        assert score_scalar(5.0, 0.0) == 0.0

    def test_opposite_signs_use_magnitude_denominator(self):
        # denominator is min(|p1|, |p2|) = 0.5
        expected = 10.0 * np.exp(-((1.5 / 0.5) ** 2))
        assert abs(score_scalar(-0.5, 1.0) - expected) < 1e-12

    def test_symmetry_over_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            p1, p2 = rng.uniform(-10, 10, size=2)
            assert score_scalar(p1, p2) == score_scalar(p2, p1)

    def test_range(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            p1, p2 = rng.uniform(-5, 5, size=2)
            assert 0.0 <= score_scalar(p1, p2) <= 10.0


class TestQuality:
    def test_paper_values(self):
        assert quality(5.54) is QualityLevel.FAIR
        assert quality(6.10) is QualityLevel.GOOD

    def test_bin_edges(self):
        assert quality(1.0) is QualityLevel.POOR
        assert quality(3.999) is QualityLevel.POOR
        assert quality(4.0) is QualityLevel.FAIR
        assert quality(6.0) is QualityLevel.GOOD
        assert quality(8.0) is QualityLevel.EXCELLENT
        assert quality(10.0) is QualityLevel.EXCELLENT

    def test_low_scores_clamp_to_poor(self):
        assert quality(0.2) is QualityLevel.POOR


class TestBandSpec:
    def test_default_bands(self):
        bands = default_bands()
        assert len(bands) == 7
        assert bands.edges[0] == (0.05, 0.1)
        assert bands.edges[-1] == (5.0, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BandSpec(((1.0, 0.5),))
        with pytest.raises(ValueError):
            BandSpec(((1.0, 2.0), (0.5, 3.0)))


class TestAndersonConfig:
    """AndersonConfig checks its own fields when it is built, so a config
    built in code is held to the ranges that load_config's is."""

    @pytest.mark.parametrize("fields, name", [
        ({"damping": 0.0}, "damping"), ({"damping": 1.0}, "damping"),
        ({"damping": 2.0}, "damping"), ({"damping": np.nan}, "damping"),
        ({"duration_lo": -0.1}, "duration"),
        ({"duration_hi": 1.5}, "duration"),
        ({"duration_lo": 0.8}, "duration"),
        ({"duration_lo": np.nan}, "duration"),
        ({"duration_hi": np.nan}, "duration"),
        ({"max_lag": -0.1}, "max_lag"), ({"max_lag": np.nan}, "max_lag"),
        ({"periods": np.array([30.0, 100.0])}, "no Sa period lies in a band"),
        ({"periods": np.array([0.02, 0.05]),
          "bands": BandSpec(((0.05, 0.1), (0.1, 0.25)))}, "no Sa period"),
    ])
    def test_field_out_of_range_is_rejected_when_built(self, fields, name):
        with pytest.raises(ValueError, match=name):
            AndersonConfig(**fields)

    def test_range_edges_are_accepted(self):
        cfg = AndersonConfig(damping=0.999, duration_lo=0.0, duration_hi=1.0,
                             max_lag=0.0)
        assert (cfg.duration_lo, cfg.duration_hi, cfg.max_lag) == (0, 1, 0)

    def test_built_config_is_frozen(self):
        cfg = AndersonConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.max_lag = -0.1
        assert cfg.max_lag == 0.5

    def test_negative_max_lag_is_not_scored(self, burst_record):
        # Scoring catches cross_correlation's own ValueError per band, so
        # the config must fail first: otherwise every cstar cell would be
        # skipped as "zero variance in band".
        with pytest.raises(ValueError, match=r"^max_lag=-0.1 must be"):
            score_pair(burst_record, burst_record,
                       AndersonConfig(max_lag=-0.1))


def _quick_config():
    return AndersonConfig(bands=BandSpec(((0.25, 0.5), (0.5, 1.0),
                                          (1.0, 2.0))),
                          periods=np.logspace(np.log10(0.1), 1.0, 12))


@pytest.fixture(scope="module")
def burst_record():
    rng = np.random.default_rng(23)
    base = burst_series(freq=1.0, dt=0.01, duration=40.96, center=20.0,
                        width=4.0)
    noise = 0.3 * rng.standard_normal(base.n)
    second = burst_series(freq=0.5, dt=0.01, duration=40.96, center=22.0,
                          width=5.0)
    return record_from_arrays(base.samples + noise,
                              second.samples + 0.2 * noise,
                              0.7 * base.samples - 0.1 * noise, dt=0.01)


class TestScorePair:
    def test_self_comparison_is_exactly_ten(self, burst_record):
        scores = score_pair(burst_record, burst_record,
                            config=_quick_config())
        for comp, sc in scores.items():
            finite = sc.scores[np.isfinite(sc.scores)]
            assert finite.size > 0
            assert np.all(finite == 10.0), comp
            for im, (mx, mean, mn) in aggregate(sc).items():
                assert mx == mean == mn == 10.0

    def test_doubled_amplitude_known_scores(self, burst_record):
        doubled = Record3C(
            ew=burst_record.ew.with_samples(2.0 * burst_record.ew.samples),
            ns=burst_record.ns.with_samples(2.0 * burst_record.ns.samples),
            ud=burst_record.ud.with_samples(2.0 * burst_record.ud.samples))
        scores = score_pair(burst_record, doubled, config=_quick_config())
        for sc in scores.values():
            assert np.allclose(measure_row(sc, "pga"), TEN_OVER_E, atol=1e-9)
            assert np.allclose(measure_row(sc, "pgv"), TEN_OVER_E, atol=1e-9)
            assert np.allclose(measure_row(sc, "sa"), TEN_OVER_E, atol=1e-9)
            assert np.allclose(measure_row(sc, "fs"), TEN_OVER_E, atol=1e-9)
            assert np.allclose(measure_row(sc, "ia"), 10.0 * np.exp(-9.0),
                               atol=1e-9)
            assert np.allclose(measure_row(sc, "da"), 10.0, atol=1e-9)
            assert np.allclose(measure_row(sc, "de"), 10.0, atol=1e-9)
            assert np.allclose(measure_row(sc, "cstar"), 10.0, atol=1e-9)

    def test_symmetry(self, burst_record):
        doubled = Record3C(
            ew=burst_record.ew.with_samples(2.0 * burst_record.ew.samples),
            ns=burst_record.ns.with_samples(2.0 * burst_record.ns.samples),
            ud=burst_record.ud.with_samples(2.0 * burst_record.ud.samples))
        cfg = _quick_config()
        ab = score_pair(burst_record, doubled, config=cfg)
        ba = score_pair(doubled, burst_record, config=cfg)
        for comp in ab:
            a, b = ab[comp].scores, ba[comp].scores
            mask = np.isfinite(a)
            assert np.array_equal(mask, np.isfinite(b))
            assert np.allclose(a[mask], b[mask], atol=1e-9)

    def test_monotone_degradation_with_scale(self, burst_record):
        cfg = _quick_config()
        pga_scores = []
        for c in (1.0, 1.5, 2.0, 3.0, 5.0):
            sim = Record3C(
                ew=burst_record.ew.with_samples(c * burst_record.ew.samples),
                ns=burst_record.ns.with_samples(c * burst_record.ns.samples),
                ud=burst_record.ud.with_samples(c * burst_record.ud.samples))
            sc = score_pair(burst_record, sim, config=cfg)["ew"]
            pga_scores.append(np.nanmean(measure_row(sc, "pga")))
        assert all(a >= b for a, b in zip(pga_scores, pga_scores[1:]))

    def test_scores_within_range_and_aggregates_ordered(self, burst_record):
        rng = np.random.default_rng(29)
        noisy = Record3C(
            ew=burst_record.ew.with_samples(
                burst_record.ew.samples + 0.5 * rng.standard_normal(burst_record.ew.n)),
            ns=burst_record.ns.with_samples(
                burst_record.ns.samples + 0.5 * rng.standard_normal(burst_record.ns.n)),
            ud=burst_record.ud.with_samples(
                burst_record.ud.samples + 0.5 * rng.standard_normal(burst_record.ud.n)))
        scores = score_pair(burst_record, noisy, config=_quick_config())
        for sc in scores.values():
            finite = sc.scores[np.isfinite(sc.scores)]
            assert np.all((finite >= 0.0) & (finite <= 10.0))
            for mx, mean, mn in aggregate(sc).values():
                if np.isfinite(mean):
                    assert mn <= mean <= mx

    def test_band_beyond_nyquist_skipped_and_flagged(self, burst_record):
        cfg = AndersonConfig(bands=BandSpec(((0.5, 1.0), (30.0, 60.0))),
                             periods=np.logspace(np.log10(0.1), 1.0, 10))
        scores = score_pair(burst_record, burst_record, config=cfg)
        sc = scores["ew"]
        assert np.all(np.isnan(sc.scores[:, 1]))
        assert any(idx == 1 for _, idx, _ in sc.skipped)
        # aggregates come from the surviving band only
        for mx, mean, mn in aggregate(sc).values():
            assert np.isfinite(mean)

    def test_misaligned_records_rejected(self, burst_record):
        other = record_from_arrays(burst_record.ew.samples[:-1],
                                   burst_record.ns.samples[:-1],
                                   burst_record.ud.samples[:-1], dt=0.01)
        with pytest.raises(ValueError):
            score_pair(burst_record, other, config=_quick_config())

    # anderson_features checks once that a batch is on one grid, before it
    # stacks the traces into one sample array; tests/test_properties.py
    # draws such batches, and batches with a trace that is not
    # acceleration.
    @pytest.mark.parametrize("grid", [(0.02, 0.0, 4097), (0.01, 0.5, 4097),
                                      (0.01, 0.0, 4096)])
    def test_records_on_different_grids_rejected(self, burst_record, grid):
        dt, t0, n = grid
        other = TimeSeries(dt, t0, np.ones(n), Unit.ACCELERATION)
        with pytest.raises(ValueError, match="common grid"):
            score_pair(burst_record, Record3C(other, other, other),
                       config=_quick_config())

    def test_every_band_beyond_nyquist_skipped(self, burst_record):
        cfg = AndersonConfig(bands=BandSpec(((30.0, 60.0), (60.0, 90.0))))
        for sc in score_pair(burst_record, burst_record, cfg).values():
            assert np.all(np.isnan(sc.scores))
            assert [idx for _, idx, _ in sc.skipped] == [0, 1]


def _per_band_scores(rec_ts, sim_ts, cfg):
    # Reference: score each band on its own through the public one-trace
    # functions, each trace's Sa computed by itself.
    scores = np.full((len(IMS), len(cfg.bands)), np.nan)
    skipped = []
    for bi, (f_lo, f_hi) in enumerate(cfg.bands.edges):
        rec_b, sim_b = (bandpass(ts, f_lo, f_hi) for ts in (rec_ts, sim_ts))
        iv_r, iv_s = (compute_intensity_vector(ts, damping=cfg.damping,
                                               periods=cfg.periods)
                      for ts in (rec_b, sim_b))
        for im in SCALAR_IMS:
            scores[IMS.index(im), bi] = score_scalar(
                float(getattr(iv_r, im)[0]), float(getattr(iv_s, im)[0]))
        for im, freqs, r, s in (
                ("sa", 1.0 / iv_r.periods, iv_r.sa[0], iv_s.sa[0]),
                ("fs", iv_r.freqs, iv_r.fs[0], iv_s.fs[0])):
            mask = ((freqs >= f_lo) & (freqs <= f_hi)
                    & np.isfinite(r) & np.isfinite(s))
            scores[IMS.index(im), bi] = np.mean(
                [score_scalar(x, y) for x, y in zip(r[mask], s[mask])])
        try:
            rho = cross_correlation(rec_b, sim_b, cfg.max_lag)
        except ValueError:
            skipped.append(("cstar", bi, "zero variance in band"))
        else:
            scores[IMS.index("cstar"), bi] = 10.0 * max(0.0, rho)
    return scores, tuple(skipped)


@pytest.mark.filterwarnings("ignore:.*periods at or below 2\\*dt")
def test_score_pair_runs_one_batched_kernel_per_record(monkeypatch):
    rng = np.random.default_rng(43)
    dt = 0.02
    base = burst_series(freq=1.0, dt=dt, duration=12.0, width=2.0)
    noise = 0.2 * rng.standard_normal(base.n)
    rec = record_from_arrays(base.samples + noise, base.samples[::-1],
                             0.5 * base.samples, dt=dt)
    # A silent UD component exercises the zero-variance skip rule.
    sim = record_from_arrays(1.5 * base.samples, base.samples[::-1] + noise,
                             np.zeros(base.n), dt=dt)
    kernel = imeasures._newmark_sdof_max
    pairs = []

    def counting(ag, trace, *args):
        pairs.append(trace.size)
        return kernel(ag, trace, *args)

    monkeypatch.setattr(imeasures, "_newmark_sdof_max", counting)
    measures = gof_anderson.intensity_measures
    rows = []

    def counting_measures(acc, *args, **kwargs):
        rows.append(len(acc))
        return measures(acc, *args, **kwargs)

    monkeypatch.setattr(gof_anderson, "intensity_measures", counting_measures)
    cfg = AndersonConfig()
    scores = score_pair(rec, sim, config=cfg)
    # One call for both records: 2 x 3 components x the 38 periods inside
    # their bands, and 2 x 3 components x 7 bands measured traces.
    assert pairs == [228]
    assert rows == [42]

    for name, rec_ts in rec.components():
        expected, skipped = _per_band_scores(rec_ts, getattr(sim, name), cfg)
        assert np.array_equal(scores[name].scores, expected, equal_nan=True)
        assert scores[name].skipped == skipped
    assert len(scores["ud"].skipped) == len(default_bands())
