"""Property tests of the invariants batched scoring rests on.

A row of a batched filter or response-spectrum pass must not depend on
the rows it is batched with, nor on where it sits in the batch; a bank too
big for one pass is sliced, which must not change a bit either.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seisgof import TimeSeries, Unit, score_pair, signal
from seisgof.gof_anderson import AndersonConfig, BandSpec
from seisgof.imeasures import response_spectra
from seisgof.signal import bandpass_bank

from conftest import record_from_arrays

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
    alone = bandpass_bank(traces_of(rows[pos:pos + 1]), EDGES, 4, zero_phase)
    together = bandpass_bank(traces_of(rows), EDGES, 4, zero_phase)
    for want, got in zip(alone[0], together[pos]):
        assert np.array_equal(want.samples, got.samples)


@FEW
@given(batches(), st.integers(0, 2 ** 32 - 1))
def test_spectra_row_ignores_its_batch_mates(batch, seed):
    rows, pos = batch
    where = np.random.default_rng(seed).random((len(rows), PERIODS.size)) < 0.6
    alone = response_spectra(traces_of(rows[pos:pos + 1]), 0.05, PERIODS,
                             True, where[pos:pos + 1])
    together = response_spectra(traces_of(rows), 0.05, PERIODS, True, where)
    assert np.array_equal(alone[0], together[pos], equal_nan=True)


@FEW
@given(batches(), st.integers(0, 3000), st.booleans())
def test_bank_split_at_the_cap_keeps_every_bit(batch, cap, zero_phase):
    rows, _ = batch
    traces = traces_of(rows)
    whole = bandpass_bank(traces, EDGES, 4, zero_phase)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signal, "BANK_MAX_VALUES", cap)
        sliced = bandpass_bank(traces, EDGES, 4, zero_phase)
    for want_row, got_row in zip(whole, sliced):
        for want, got in zip(want_row, got_row):
            assert np.array_equal(want.samples, got.samples)


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
