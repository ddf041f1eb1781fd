"""Property tests of the invariants batched scoring rests on, and of the
scalar score, mechanism normalization, trace files, the detrend, the
cross-correlation and the unit checks.

A row of a batched filter or response-spectrum pass must not depend on
the rows it is batched with, nor on where it sits in the batch; a bank too
big for one pass is sliced, which must not change a bit either.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seisgof import FocalMechanism, TimeSeries, Unit, score_pair, signal
from seisgof.gof_anderson import (AndersonConfig, BandSpec, anderson_features,
                                  score_scalar)
from seisgof.imeasures import (cross_correlation, intensity_measures,
                               response_spectra)
from seisgof.signal import (Record3C, UnitError, bandpass_bank, detrend_rows,
                            require_same_grid)
from seisgof.traceio import meta_path_for, read_record, write_record

from conftest import (batch_row, full_mode_cross_correlation,
                      one_trace_measures, record_from_arrays)

EDGES = ((0.1, 0.5), (0.5, 2.0), (2.0, 8.0))
PERIODS = np.array([0.05, 0.1, 0.2, 1.0, 4.0])

FEW = settings(max_examples=40, deadline=None)


@st.composite
def batches(draw, min_samples=40, max_samples=300):
    """(rows, position): a batch of 1-5 random rows on one grid, with a
    drawn position in it, at amplitudes from 1e-6 to 1e5."""
    n = draw(st.integers(min_samples, max_samples))
    count = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6, 5, (count, 1))
    rows = scale * rng.standard_normal((count, n))
    if draw(st.booleans()):
        rows[rng.integers(count)] = 0.0
    return rows, draw(st.integers(0, count - 1))


def traces_of(rows, dt=0.02):
    return [TimeSeries(dt, 0.0, x, Unit.ACCELERATION) for x in rows]


@FEW
@given(batches(), st.booleans())
def test_bank_row_ignores_its_batch_mates(batch, zero_phase):
    rows, pos = batch
    alone = bandpass_bank(rows[pos:pos + 1], 0.02, EDGES, 4, zero_phase)
    together = bandpass_bank(rows, 0.02, EDGES, 4, zero_phase)
    bands = len(EDGES)
    assert np.array_equal(alone, together[pos * bands:(pos + 1) * bands])


@FEW
@given(batches(), st.integers(0, 2 ** 32 - 1))
def test_spectra_row_ignores_its_batch_mates(batch, seed):
    rows, pos = batch
    where = np.random.default_rng(seed).random((len(rows), PERIODS.size)) < 0.6
    alone = response_spectra(rows[pos:pos + 1], 0.02, 0.05, PERIODS,
                             where=where[pos:pos + 1])
    together = response_spectra(rows, 0.02, 0.05, PERIODS, where=where)
    assert np.array_equal(alone[0], together[pos], equal_nan=True)


@FEW
@given(batches(), st.floats(-1e3, 1e3))
def test_measures_row_is_the_one_trace_measures(batch, drift):
    # Amplitudes over eleven decades, zero rows or bare lines, and a drift
    # for the detrend: every row must be what the one-trace oracle gives
    # it.
    rows, pos = batch
    rows = rows + drift * np.linspace(0.0, 1.0, rows.shape[1])
    measures = intensity_measures(rows, 0.0, 0.02, periods=PERIODS)
    for i, acc in enumerate(traces_of(rows)):
        assert batch_row(measures, i) == one_trace_measures(acc, PERIODS)


@FEW
@given(batches(), st.integers(0, 3000), st.booleans())
def test_bank_split_at_the_cap_keeps_every_bit(batch, cap, zero_phase):
    rows, _ = batch
    whole = bandpass_bank(rows, 0.02, EDGES, 4, zero_phase)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signal, "BANK_MAX_VALUES", cap)
        sliced = bandpass_bank(rows, 0.02, EDGES, 4, zero_phase)
    assert np.array_equal(whole, sliced)


@FEW
@given(st.integers(100, 600), st.sampled_from([0.005, 0.01, 0.02]),
       st.integers(0, 2 ** 32 - 1))
def test_record_scored_against_itself_is_ten(n, dt, seed):
    rng = np.random.default_rng(seed)
    rows = 10.0 ** rng.uniform(-6, 3, (3, 1)) * rng.standard_normal((3, n))
    rec = record_from_arrays(*rows, dt=dt)
    bands = BandSpec(((0.5, 1.0), (1.0, 5.0), (5.0, 30.0)))
    for scores in score_pair(rec, rec, AndersonConfig(bands=bands)).values():
        finite = scores.scores[np.isfinite(scores.scores)]
        assert finite.size and np.all(finite == 10.0)


MAGNITUDES = st.floats(1e-300, 1e308)
SIGNED = st.tuples(MAGNITUDES, st.booleans()).map(
    lambda m: -m[0] if m[1] else m[0])


@settings(max_examples=300, deadline=None)
@given(SIGNED, SIGNED)
def test_scalar_score_is_symmetric_and_in_range(p1, p2):
    score = score_scalar(p1, p2)
    assert score == score_scalar(p2, p1)
    assert 0.0 <= score <= 10.0
    assert score_scalar(p1, p1) == 10.0
    # exp(-x^2) rounds to 1 only below a relative difference of about 1e-8.
    if abs(p1 - p2) > 1e-7 * min(abs(p1), abs(p2)):
        assert score < 10.0
    # Vector measures reach the score as numpy scalars.
    with np.errstate(over="ignore"):
        assert score_scalar(np.float64(p1), np.float64(p2)) == score


ANGLES = st.floats(-1e4, 1e4)


@settings(max_examples=300, deadline=None)
@given(ANGLES, st.floats(0.0, 90.0), ANGLES)
def test_mechanism_normalization_is_in_range_and_stable(strike, dip, rake):
    fm = FocalMechanism(strike, dip, rake)
    assert 0.0 <= fm.strike < 360.0
    assert -180.0 < fm.rake <= 180.0
    assert FocalMechanism(fm.strike, fm.dip, fm.rake) == fm


@FEW
@given(st.integers(2, 60), st.sampled_from([0.005, 0.01, 0.02, 0.04]),
       st.floats(-100.0, 100.0), st.integers(0, 2 ** 32 - 1))
def test_trace_csv_round_trip_is_byte_identical(tmp_path_factory, n, dt, t0,
                                                seed):
    rng = np.random.default_rng(seed)
    rows = 10.0 ** rng.uniform(-12, 3, (3, 1)) * rng.standard_normal((3, n))
    rec = Record3C(*(TimeSeries(dt, t0, x, Unit.ACCELERATION) for x in rows),
                   station_id="TST", epicentral_distance=1e4)
    work = tmp_path_factory.mktemp("trace")
    first = write_record(rec, work / "first.csv")
    second = write_record(read_record(first), work / "second.csv")
    assert second.read_bytes() == first.read_bytes()
    assert (meta_path_for(second).read_bytes()
            == meta_path_for(first).read_bytes())


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5000), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
       st.floats(0.0, 1e6), st.integers(0, 2 ** 32 - 1))
def test_detrend_is_polyfit_within_bound(n, offset, slope, magnitude, seed):
    # The closed-form line fit and np.polyfit's scaled lstsq round
    # differently: 1.3e-15 of the row's max apart at most in 3,000 draws
    # like these. Among subnormal values rounding is absolute instead, and
    # a slope's spacing times the distance from the centre stays below one
    # spacing per sample. The closed form's own bound, against a
    # long-double fit, is in tests/test_long_double_oracles.py.
    t = np.arange(n, dtype=float)
    x = (offset + slope * t
         + magnitude * np.random.default_rng(seed).standard_normal(n))
    fit_slope, intercept = np.polyfit(t, x, 1)
    want = x - (fit_slope * t + intercept)
    err = np.abs(detrend_rows(x[None])[0] - want).max()
    floor = n * np.finfo(float).smallest_subnormal
    assert err <= 1e-14 * np.abs(x).max() + floor


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5000), st.floats(-1e6, 1e6), st.floats(1e-6, 1e6),
       st.floats(0.0, 60.0), st.integers(0, 2 ** 32 - 1))
def test_cross_correlation_is_full_mode_bit_for_bit(n, offset, magnitude,
                                                     max_lag, seed):
    # Up to 60 s of lags at 100 Hz: beyond the record for every n below
    # 6,000, so both the kept lags and the full mode are drawn.
    rng = np.random.default_rng(seed)
    a, b = (TimeSeries(0.01, 0.0, offset + magnitude * rng.standard_normal(n),
                       Unit.ACCELERATION) for _ in range(2))
    assert (cross_correlation(a, b, max_lag)
            == full_mode_cross_correlation(a, b, max_lag))


UNITS = st.sampled_from(list(Unit))


@FEW
@given(batches(), UNITS, UNITS)
def test_mixed_units_are_not_one_grid(batch, unit_a, unit_b):
    rows, pos = batch
    a = TimeSeries(0.02, 0.0, rows[pos], unit_a)
    b = TimeSeries(0.02, 0.0, rows[pos], unit_b)
    if unit_a is unit_b:
        require_same_grid(a, b)
    else:
        with pytest.raises(UnitError):
            require_same_grid(a, b)


def traces_of(rows, dt=0.02):
    return [TimeSeries(dt, 0.0, x, Unit.ACCELERATION) for x in rows]


# The batched measures take one sample array; anderson_features checks
# that the traces it stacks into one are acceleration on one grid.
@FEW
@given(batches(), st.sampled_from([Unit.VELOCITY, Unit.DISPLACEMENT]))
def test_measures_reject_a_row_that_is_not_acceleration(batch, unit):
    rows, pos = batch
    traces = traces_of(rows)
    traces[pos] = TimeSeries(0.02, 0.0, rows[pos], unit)
    with pytest.raises(UnitError):
        anderson_features(traces, AndersonConfig(BandSpec(EDGES),
                                                 periods=PERIODS))


@FEW
@given(batches(), st.sampled_from(["dt", "t0", "n"]))
def test_measures_reject_rows_on_different_grids(batch, what):
    rows, pos = batch
    x = rows[pos]
    other = {"dt": TimeSeries(0.01, 0.0, x, Unit.ACCELERATION),
             "t0": TimeSeries(0.02, 0.02, x, Unit.ACCELERATION),
             "n": TimeSeries(0.02, 0.0, x[:-1], Unit.ACCELERATION)}[what]
    traces = traces_of(rows)
    traces.insert(pos, other)
    with pytest.raises(ValueError, match="common grid"):
        anderson_features(traces, AndersonConfig(BandSpec(EDGES),
                                                 periods=PERIODS))
