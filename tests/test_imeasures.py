import time

import numpy as np
import pytest

from seisgof import (TimeSeries, Unit, arias_duration, arias_intensity,
                     imeasures, response_spectrum)
from seisgof.imeasures import (G, compute_intensity_vector, cross_correlation,
                               default_periods, intensity_measures,
                               response_spectra)
from seisgof.signal import (BANK_MAX_VALUES, UnitError, cumulative_trapezoid,
                            detrend_rows)

from conftest import (batch_row, burst_series, energy_window,
                      full_mode_cross_correlation, full_mode_lags,
                      newmark_one_trace, one_trace_measures, running_integral,
                      sine_series)


def constant(value, dt=0.001, duration=1.0, unit=Unit.ACCELERATION):
    n = int(round(duration / dt)) + 1
    return TimeSeries(dt, 0.0, np.full(n, float(value)), unit)


def peaks(ts):
    """(PGA, PGV, PGD) of one acceleration trace."""
    m = compute_intensity_vector(ts, periods=np.array([1.0]))
    return m.pga[0], m.pgv[0], m.pgd[0]


def sine_velocity(freq=2.0, dt=0.001, duration=5.0):
    """a = -w sin(w t) over whole cycles: its velocity, cos(w t) - 1, is
    cos(w t) once detrended."""
    w = 2.0 * np.pi * freq
    t = np.arange(int(round(duration / dt)) + 1) * dt
    return TimeSeries(dt, 0.0, -w * np.sin(w * t), Unit.ACCELERATION)


class TestPeaks:
    def test_unit_sine_pga(self):
        ts = sine_series(freq=1.0, dt=0.001, duration=2.0)
        pga, _, _ = peaks(ts)
        assert abs(pga - 1.0) < 1e-3

    def test_constant_acceleration_pgv(self):
        # The velocity of a constant acceleration is a line, which the
        # detrend after the integration removes.
        ts = constant(1.0)
        _, pgv, _ = peaks(ts)
        assert pgv < 1e-12

    def test_zero_trace(self):
        ts = constant(0.0)
        assert peaks(ts) == (0.0, 0.0, 0.0)

    def test_requires_acceleration(self):
        with pytest.raises(UnitError):
            compute_intensity_vector(sine_series(unit=Unit.VELOCITY))

    def test_unit_sine_pgv(self):
        _, pgv, _ = peaks(sine_velocity())
        assert abs(pgv - 1.0) < 1e-3


class TestArias:
    def test_constant_value(self):
        # closed form: pi/(2 g) * 1 over one second
        ts = constant(1.0)
        assert abs(arias_intensity(ts) - np.pi / (2 * G)) < 1e-4 * np.pi / (2 * G)

    def test_quadratic_scaling(self):
        ts = sine_series(dt=0.001, duration=3.0)
        doubled = ts.with_samples(2.0 * ts.samples)
        assert np.isclose(arias_intensity(doubled), 4.0 * arias_intensity(ts),
                          rtol=1e-12)

    def test_zero_trace(self):
        assert arias_intensity(constant(0.0)) == 0.0


class TestDurations:
    def test_constant_duration_fraction(self):
        ts = constant(2.0, dt=0.01, duration=4.0)
        da = arias_duration(ts)
        assert abs(da - 0.70 * ts.duration) <= ts.dt

    def test_full_thresholds(self):
        ts = burst_series()
        assert np.isclose(arias_duration(ts, 0.0, 1.0), ts.duration,
                          atol=ts.dt)

    def test_impulse(self):
        x = np.zeros(1001)
        x[500] = 3.0
        ts = TimeSeries(0.01, 0.0, x, Unit.ACCELERATION)
        assert arias_duration(ts) <= 2 * ts.dt

    def test_zero_energy(self):
        with pytest.raises(ValueError):
            arias_duration(constant(0.0))

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            arias_duration(constant(1.0), 0.8, 0.2)


def test_arias_wrappers_equal_the_oracle_bit_for_bit():
    # Lengths from 2 samples, amplitudes from 1e-170, whose squares
    # underflow to zero, and all-zero traces: Ia is the trapezoid integral
    # and Da the window of the buildup, or a ValueError without energy.
    rng = np.random.default_rng(61)
    zero_energy = 0
    for k in range(1200):
        n = int(rng.integers(2, 300))
        dt = float(rng.choice([0.001, 0.005, 0.01, 0.02]))
        x = 10.0 ** rng.uniform(-170, 100) * rng.standard_normal(n)
        if k % 10 == 0:
            x[:] = 0.0
        acc = TimeSeries(dt, float(rng.uniform(-5.0, 5.0)), x,
                         Unit.ACCELERATION)
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
        assert (arias_intensity(acc)
                == np.pi / (2.0 * G) * np.trapezoid(x ** 2, dx=dt))
        if running_integral(x ** 2, dt)[-1] > 0:
            assert (arias_duration(acc, lo, hi)
                    == energy_window(x, dt, acc.times, lo, hi))
        else:
            zero_energy += 1
            with pytest.raises(ValueError, match="zero-energy"):
                arias_duration(acc, lo, hi)
    assert zero_energy > 120
    # A buildup so small that pi/(2 g) times it underflows: Ia is zero,
    # but the trace has energy and so a duration.
    x = np.zeros(50)
    x[20] = 3.2e-162
    acc = TimeSeries(1.0, 0.0, x, Unit.ACCELERATION)
    assert arias_intensity(acc) == 0.0
    assert arias_duration(acc) == energy_window(x, 1.0, acc.times)


class TestEnergyPair:
    def test_unit_sine_velocity(self):
        ts = sine_velocity()
        m = compute_intensity_vector(ts, periods=np.array([1.0]))
        assert abs(m.iv[0] - ts.duration / 2.0) < 1e-4 * ts.duration / 2.0

    def test_duration_mirrors_arias(self):
        # De is Da's construction applied to the detrended velocity; a
        # steady velocity builds up evenly.
        for ts in (burst_series(freq=1.5, dt=0.01), sine_velocity()):
            m = compute_intensity_vector(ts, periods=np.array([1.0]))
            vel = detrend_rows(cumulative_trapezoid(ts.samples[None],
                                                    ts.dt))[0]
            assert m.de[0] == arias_duration(ts.with_samples(vel))
        assert abs(m.de[0] - 0.70 * ts.duration) <= ts.dt


class TestResponseSpectrum:
    def test_resonant_amplification(self):
        # steady-state displacement amplification at resonance is 1/(2 zeta)
        t_osc = 1.0
        dt = 0.005
        ts = sine_series(freq=1.0 / t_osc, dt=dt, duration=40.0)
        sa = response_spectrum(ts, damping=0.05, periods=np.array([t_osc]))
        assert abs(sa[0] - 10.0) < 0.02 * 10.0

    def test_rigid_limit_approaches_pga(self):
        ts = burst_series(freq=1.0, dt=5e-4, duration=8.0, center=4.0)
        pga = np.abs(ts.samples).max()
        sa = response_spectrum(ts, periods=np.array([0.02]))
        assert abs(sa[0] - pga) < 0.03 * pga

    def test_zero_input(self):
        ts = constant(0.0, dt=0.005, duration=2.0)
        sa = response_spectrum(ts, periods=np.array([0.5, 1.0]))
        assert np.all(sa == 0.0)

    def test_short_periods_skipped_with_warning(self):
        ts = sine_series(dt=0.01, duration=2.0)
        with pytest.warns(UserWarning):
            sa = response_spectrum(ts, periods=np.array([0.01, 1.0]))
        assert np.isnan(sa[0]) and np.isfinite(sa[1])

    def test_non_negative_and_continuous(self):
        ts = burst_series(freq=2.0)
        sa = response_spectrum(ts, periods=default_periods())
        assert np.all(np.isfinite(sa))
        assert np.all(sa >= 0.0)


class TestResponseSpectra:
    def test_rows_equal_the_one_trace_loop_bit_for_bit(self):
        rng = np.random.default_rng(41)
        dt = 0.02
        rows = rng.standard_normal((5, 401))
        rows[2] = 0.0
        periods = default_periods()
        valid = periods > 2.0 * dt
        with pytest.warns(UserWarning):
            sa = response_spectra(rows, dt, 0.05, periods)
        assert sa.shape == (5, periods.size)
        assert np.all(np.isnan(sa[:, ~valid]))
        for row, ag in zip(sa, rows):
            expected = newmark_one_trace(ag, dt, periods[valid], 0.05)
            assert np.array_equal(row[valid], expected)
        assert np.all(sa[2, valid] == 0.0)

    def test_rows_equal_the_one_trace_loop_at_extreme_values(self):
        # The in-place step must round, overflow and propagate NaN as the
        # one-trace loop does: the same bits, as int64, on rows scaled to
        # the subnormal and the overflow ends and on a row with a NaN.
        rng = np.random.default_rng(45)
        rows = rng.standard_normal((4, 301))
        rows *= np.array([[1e-310], [1e307], [1.0], [1.0]])
        rows[3, 150] = np.nan
        periods = np.array([0.1, 0.5, 2.0])
        with np.errstate(all="ignore"):
            sa = response_spectra(rows, 0.02, 0.05, periods)
            expected = [newmark_one_trace(ag, 0.02, periods, 0.05)
                        for ag in rows]
        assert np.array_equal(sa.view(np.int64),
                              np.array(expected).view(np.int64))
        assert np.isnan(sa[3]).all() and not np.isfinite(sa[1]).all()

    @pytest.mark.parametrize("block_values", [1, 7, 64])
    def test_blocks_of_samples_change_no_bit(self, monkeypatch,
                                             block_values):
        # The kernel transposes and gathers the samples one block at a
        # time: blocks of one step, of a few steps with a ragged last
        # block, and one block for the whole record give the bits of the
        # one-trace loop, overflow, subnormals and NaN included.
        rng = np.random.default_rng(46)
        rows = rng.standard_normal((5, 257))
        rows *= np.array([[1e-310], [1e300], [1e-300], [1.0], [1.0]])
        rows[4, 100] = np.nan
        periods = np.array([0.1, 0.5, 2.0])
        monkeypatch.setattr(imeasures, "SA_BLOCK_VALUES", block_values)
        with np.errstate(all="ignore"):
            sa = response_spectra(rows, 0.02, 0.05, periods)
            expected = [newmark_one_trace(ag, 0.02, periods, 0.05)
                        for ag in rows]
        assert np.array_equal(sa.view(np.int64),
                              np.array(expected).view(np.int64))

    def test_working_set_does_not_grow_with_the_record(self):
        # A whole-record transposed copy of these rows and its load steps
        # would take 2 x 4 x 40,001 x 8 B = 2.6 MB; the blocks take a few
        # SA_BLOCK_VALUES-sized arrays.
        import tracemalloc

        rows = np.random.default_rng(47).standard_normal((4, 40_001))
        periods = np.array([0.1, 0.5, 2.0])
        tracemalloc.start()
        try:
            response_spectra(rows, 0.02, 0.05, periods)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * imeasures.SA_BLOCK_VALUES * 8 + 100_000

    def test_kernel_holds_each_trace_once(self, monkeypatch):
        # Every (trace, period) pair is an oscillator, but the samples
        # reach the kernel once per trace, not once per pair.
        kernel = imeasures._newmark_sdof_max
        calls = []

        def recording(ag, trace, *args):
            calls.append((ag.shape, np.bincount(trace).tolist()))
            return kernel(ag, trace, *args)

        monkeypatch.setattr(imeasures, "_newmark_sdof_max", recording)
        rows = np.random.default_rng(44).standard_normal((4, 301))
        periods = np.array([0.1, 0.5, 2.0])
        sa = response_spectra(rows, 0.02, 0.05, periods)
        assert calls == [((4, 301), [3, 3, 3, 3])]
        for row, ag in zip(sa, rows):
            assert np.array_equal(
                row, newmark_one_trace(ag, 0.02, periods, 0.05))

    def test_where_computes_only_the_wanted_pairs(self):
        rng = np.random.default_rng(42)
        rows = rng.standard_normal((3, 301))
        periods = np.array([0.02, 0.1, 0.5, 2.0, 8.0])
        where = rng.random((3, periods.size)) < 0.5
        where[:, 0] = True  # at 2*dt: skipped even where wanted
        with pytest.warns(UserWarning):
            full = response_spectra(rows, 0.02, 0.05, periods)
        with pytest.warns(UserWarning):
            part = response_spectra(rows, 0.02, 0.05, periods, where=where)
        wanted = where & (periods > 0.04)
        assert np.array_equal(part[wanted], full[wanted])
        assert np.all(np.isnan(part[~wanted]))

    def test_single_trace_spectrum_is_one_row(self):
        ts = burst_series(freq=2.0)
        periods = np.array([0.1, 0.5, 2.0])
        rows = np.stack([0.5 * ts.samples[::-1], ts.samples])
        batch = response_spectra(rows, ts.dt, periods=periods)
        assert np.array_equal(response_spectrum(ts, periods=periods), batch[1])

    def test_requires_acceleration_traces(self):
        # The one-trace functions check the unit; a sample array has none
        # (anderson_features checks its traces').
        velocity = sine_series(unit=Unit.VELOCITY)
        with pytest.raises(UnitError):
            response_spectrum(velocity)
        with pytest.raises(UnitError):
            compute_intensity_vector(velocity)

    def test_empty_batch_is_empty(self):
        # A batch of no rows, as when every band is beyond the Nyquist
        # frequency (tests/test_gof_anderson.py), has no measures.
        none = np.empty((0, 301))
        assert response_spectra(none, 0.02).shape == (0, 50)
        m = intensity_measures(none, 0.0, 0.02)
        assert m.pga.shape == (0,) and m.fs.shape == (0, 151)


class TestCrossCorrelation:
    def test_self_is_one(self):
        ts = burst_series()
        assert cross_correlation(ts, ts) == 1.0

    def test_sign_flip_at_zero_lag(self):
        x = np.zeros(1000)
        x[300:340] = np.hanning(40)  # one-sided pulse
        ts = TimeSeries(0.01, 0.0, x, Unit.ACCELERATION)
        flipped = ts.with_samples(-x)
        assert cross_correlation(ts, flipped, max_lag=0.0) < 0.0

    def test_shift_invariance(self):
        ts = burst_series(freq=1.0, dt=0.005, duration=12.0, center=6.0)
        shift = int(round(0.1 / ts.dt))
        delayed = ts.with_samples(np.roll(ts.samples, shift))
        rho = cross_correlation(ts, delayed, max_lag=0.5)
        assert rho > 0.99

    def test_zero_variance(self):
        a = constant(1.0)
        b = constant(2.0)
        with pytest.raises(ValueError):
            cross_correlation(a, b)


class TestKeptLags:
    @pytest.mark.parametrize("offset", [0, 10_000])
    def test_every_lag_of_every_short_length_is_full_mode(self, offset):
        # np.correlate rounds overlaps of 11 samples or fewer differently
        # from full mode. Lags are computed one by one down to the overlap
        # threshold, so every lag of every length up to 200 pins
        # XCORR_FULL_MODE_MAX_OVERLAP; the maximum over the lags is
        # cross_correlation bit for bit, also where a large mean leaves
        # the centred samples coarsely rounded.
        rng = np.random.default_rng(211)
        for n in range(2, 201):
            scale = 10.0 ** rng.uniform(-6, 6)
            xa = scale * rng.standard_normal(n) + offset
            xb = rng.standard_normal(n)
            a = TimeSeries(0.01, 0.0, xa, Unit.ACCELERATION)
            b = TimeSeries(0.01, 0.0, xb, Unit.ACCELERATION)
            xa, xb = xa - xa.mean(), xb - xb.mean()
            for max_shift in range(n + 2):
                kept = imeasures._kept_lags(xa, xb, max_shift)
                full = full_mode_lags(xa, xb, max_shift)
                assert kept.tobytes() == full.tobytes(), (n, max_shift)
            for max_lag in (0.0, 0.05, 0.5, 0.01 * n):
                assert (cross_correlation(a, b, max_lag)
                        == full_mode_cross_correlation(a, b, max_lag))

    def test_cost_grows_linearly_with_length(self):
        # 0.5 s of lags at 100 Hz: ten times the samples must not cost
        # anywhere near the hundred times of the full mode.
        rng = np.random.default_rng(223)

        def seconds(n):
            a, b = (TimeSeries(0.01, 0.0, rng.standard_normal(n),
                               Unit.ACCELERATION) for _ in range(2))
            best = np.inf
            for _ in range(5):
                start = time.perf_counter()
                cross_correlation(a, b, 0.5)
                best = min(best, time.perf_counter() - start)
            return best

        assert seconds(30_001) < 30.0 * seconds(3_001)


def _counting_correlate(monkeypatch):
    # Records the overlap of every np.correlate call ("full" for the full
    # mode); install it after the oracle has run.
    calls = []
    correlate = np.correlate

    def counting(a, v, mode="valid"):
        calls.append("full" if mode == "full" else min(a.size, v.size))
        return correlate(a, v, mode)

    monkeypatch.setattr(np, "correlate", counting)
    return calls


def _series(x, dt=0.01):
    return TimeSeries(dt, 0.0, np.asarray(x, dtype=float), Unit.ACCELERATION)


def _difference_pair(c_late, c_early, n=64):
    # xb is +1, -1 at samples 30 and 31, so the lag-k product is
    # xa[30 + k] - xa[31 + k]: c_late at lag 4 and c_early at lag -6. Each
    # value is cancelled 24 and 16 samples away, out of reach of lags up
    # to +-10 and in the same accumulator of numpy's pairwise sum, so both
    # means are exactly 0 and centring leaves the rows as they are.
    xa, xb = np.zeros(n), np.zeros(n)
    xb[30], xb[31] = 1.0, -1.0
    xa[34], xa[58] = c_late, -c_late
    xa[24], xa[8] = c_early, -c_early
    return _series(xa), _series(xb)


class TestScreenedCrossCorrelation:
    """The FFT screen picks the lags to evaluate; the maximum is still
    today's per-lag np.correlate value, so it equals the full mode."""

    def test_periodic_pair_with_two_equal_peaks(self, monkeypatch):
        # A +-1 square wave of period 8 against itself half a period on:
        # lags -4 and +4 both sum 60 products of 1, exactly.
        wave = np.tile([1.0] * 4 + [-1.0] * 4, 9)
        a, b = _series(wave[4:68]), _series(wave[:64])
        lags = full_mode_lags(a.samples, b.samples, 6)
        assert sorted(lags)[-2:] == [60.0, 60.0]
        want = full_mode_cross_correlation(a, b, 0.06)
        calls = _counting_correlate(monkeypatch)
        assert cross_correlation(a, b, 0.06) == want == 60.0 / 64.0
        assert calls == [64 - 4] * 2  # both peaks, and only they

    def test_top_lags_one_ulp_apart(self, monkeypatch):
        a, b = _difference_pair(2.0 ** 52 + 1.0, 2.0 ** 52)
        lags = full_mode_lags(a.samples, b.samples, 10)
        top, second = sorted(lags)[-1], sorted(lags)[-2]
        assert top - second == np.spacing(second) == 1.0
        want = full_mode_cross_correlation(a, b, 0.1)
        calls = _counting_correlate(monkeypatch)
        assert cross_correlation(a, b, 0.1) == want
        assert sorted(calls) == [64 - 6, 64 - 4]
        # and the other way round, the larger value at the earlier lag
        a, b = _difference_pair(2.0 ** 52, 2.0 ** 52 + 1.0)
        monkeypatch.undo()
        want = full_mode_cross_correlation(a, b, 0.1)
        calls = _counting_correlate(monkeypatch)
        assert cross_correlation(a, b, 0.1) == want
        assert len(calls) == 2

    @pytest.mark.parametrize("scale_a,scale_b,screened", [
        (1e-150, 1e-150, True),
        (1e-150, 1e150, True),
        (1e150, 1e150, True),
        (1e-160, 1e-160, False),  # subnormal energies: every lag
        (1e-160, 1e160, False),
        (1.0, 1e200, False),  # the energy overflows: every lag
    ])
    def test_extreme_amplitudes(self, monkeypatch, scale_a, scale_b,
                                screened):
        rng = np.random.default_rng(227)
        a = _series(scale_a * rng.standard_normal(601), dt=0.02)
        b = _series(scale_b * np.roll(a.samples / scale_a, 3)
                    + scale_b * 0.1 * rng.standard_normal(601), dt=0.02)
        with np.errstate(all="ignore"):
            want = full_mode_cross_correlation(a, b, 0.5)
        calls = _counting_correlate(monkeypatch)
        with np.errstate(all="ignore"):
            got = cross_correlation(a, b, 0.5)
        assert got == want or (np.isnan(want) and got == -1.0)
        assert (len(calls) < 5) == screened
        if not screened:
            assert len(calls) == 51

    def test_amplitudes_whose_energy_underflows_have_zero_variance(self):
        rng = np.random.default_rng(229)
        a = _series(1e-300 * rng.standard_normal(601), dt=0.02)
        b = _series(rng.standard_normal(601), dt=0.02)
        with pytest.raises(ValueError, match="zero-variance"):
            cross_correlation(a, b, 0.5)

    @pytest.mark.parametrize("max_lag,want_calls", [
        (0.08, ["full"]),  # overlap 40 - 8 = 32: the full mode
        (0.07, [33]),  # overlap 33: screened, one lag
    ])
    def test_short_overlap_takes_the_full_mode(self, monkeypatch, max_lag,
                                               want_calls):
        rng = np.random.default_rng(233)
        x = rng.standard_normal(46)
        a, b = _series(x[:40]), _series(x[6:])
        want = full_mode_cross_correlation(a, b, max_lag)
        calls = _counting_correlate(monkeypatch)
        assert cross_correlation(a, b, max_lag) == want
        if want_calls == ["full"]:
            assert calls == want_calls
        else:
            assert len(calls) <= 2 and set(calls) <= {33, 34, 35, 36, 37,
                                                      38, 39, 40}

    def test_rows_of_a_batch_get_the_one_row_bits(self, monkeypatch):
        # A batch with zero-variance rows on either side, a NaN row and
        # rows of every scale: each row's value is the one-row value, NaN
        # where either row has zero variance, in one block or one per row.
        rng = np.random.default_rng(239)
        ref = rng.standard_normal((8, 301)) * 10.0 ** rng.uniform(
            -100, 100, (8, 1))
        sim = np.roll(ref, 5, axis=1) + rng.standard_normal((8, 301)) * ref
        ref[2] = 4.0
        sim[5] = 0.0
        sim[6, 17] = np.nan
        want = []
        for x, y in zip(ref, sim):
            try:
                want.append(cross_correlation(_series(x), _series(y), 0.25))
            except ValueError:  # zero variance, or a NaN sample
                want.append(np.nan)
        want[6] = -1.0  # min(1.0, max(-1.0, nan)), as the one-row maximum
        for block_values in (imeasures.XCORR_BLOCK_VALUES, 1):
            monkeypatch.setattr(imeasures, "XCORR_BLOCK_VALUES",
                                block_values)
            pairs = [(imeasures.centred_rows(ref[i:i + 3], 25), sim[i:i + 3])
                     for i in (0, 3, 6)][:2] + [
                (imeasures.centred_rows(ref[6:], 25), sim[6:])]
            got = imeasures.cross_correlations(pairs)
            assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[[2, 5]]).all() and got[6] == -1.0


class TestInvariances:
    def test_amplitude_scaling(self):
        ts = burst_series(freq=1.5)
        c = 2.5
        scaled = ts.with_samples(c * ts.samples)
        iv1 = compute_intensity_vector(ts)
        iv2 = compute_intensity_vector(scaled)
        for name in ("pga", "pgv", "pgd"):
            assert np.isclose(getattr(iv2, name), c * getattr(iv1, name),
                              rtol=1e-9)
        assert np.isclose(iv2.ia, c ** 2 * iv1.ia, rtol=1e-9)
        assert np.isclose(iv2.iv, c ** 2 * iv1.iv, rtol=1e-9)
        assert np.isclose(iv2.da, iv1.da, rtol=1e-9)
        assert np.isclose(iv2.de, iv1.de, rtol=1e-9)
        assert np.allclose(iv2.sa, c * iv1.sa, rtol=1e-9)

    def test_time_shift_invariance(self):
        ts = burst_series(freq=1.5)
        shifted = TimeSeries(ts.dt, ts.t0 + 5.0, ts.samples, ts.unit)
        iv1 = compute_intensity_vector(ts)
        iv2 = compute_intensity_vector(shifted)
        for name in ("pga", "pgv", "pgd", "ia", "da", "de", "iv"):
            assert np.isclose(getattr(iv1, name), getattr(iv2, name),
                              rtol=1e-12)
        assert np.array_equal(iv1.sa, iv2.sa)


def test_intensity_vector_integrates_velocity_once_with_peaks_bits():
    ts = burst_series(freq=1.5, dt=0.01)
    ts = ts.with_samples(ts.samples + 0.01)  # a drift for the detrend
    periods = np.array([0.1, 0.5, 2.0])
    iv = compute_intensity_vector(ts, periods=periods)
    assert batch_row(iv, 0) == one_trace_measures(ts, periods)


def test_intensity_vector_checks_thresholds_on_a_zero_trace():
    with pytest.raises(ValueError, match="thresholds"):
        compute_intensity_vector(constant(0.0), duration_lo=0.8,
                                 duration_hi=0.2)


class TestIntensityMeasures:
    PERIODS = np.array([0.1, 0.5, 2.0])

    @staticmethod
    def mixed_rows(n, dt=0.02):
        # A burst on a drift, seeded noise, a silent row and the burst
        # under noise; both lengths have a large prime factor (601 is
        # prime, 4501 = 7 x 643), so the FFT takes its Bluestein path.
        rng = np.random.default_rng(n)
        t = np.arange(n) * dt
        burst = (np.sin(2 * np.pi * t) * np.exp(-0.5 * ((t - t[-1] / 2) / 2) ** 2)
                 + 0.01 + 0.002 * t)
        return np.stack((burst, rng.standard_normal(n), np.zeros(n),
                         burst + 1e-3 * rng.standard_normal(n)))

    @pytest.mark.parametrize("n", [601, 4501])
    def test_rows_equal_the_one_trace_measures_bit_for_bit(self, n):
        rows = self.mixed_rows(n)
        batch = intensity_measures(rows, 0.0, 0.02, periods=self.PERIODS)
        for i, x in enumerate(rows):
            acc = TimeSeries(0.02, 0.0, x, Unit.ACCELERATION)
            assert (batch_row(batch, i)
                    == one_trace_measures(acc, self.PERIODS)), i
        alone = intensity_measures(rows[1:2], 0.0, 0.02, periods=self.PERIODS)
        assert batch_row(alone, 0) == batch_row(batch, 1)
        assert batch.da[2] == batch.de[2] == 0.0

    def test_a_stack_sliced_at_the_cap_keeps_every_bit(self):
        rows = self.mixed_rows(601)
        periods = self.PERIODS[1:2]
        small = intensity_measures(rows, 0.0, 0.02, periods=periods)
        count = BANK_MAX_VALUES // 601 + 2  # one full slice and a part
        big = intensity_measures(rows[np.arange(count) % len(rows)], 0.0,
                                 0.02, periods=periods)
        for i in range(count):
            assert batch_row(big, i) == batch_row(small, i % len(rows)), i

    def test_where_limits_sa_and_thresholds_come_first(self):
        rows = self.mixed_rows(601)
        where = np.zeros((len(rows), self.PERIODS.size), dtype=bool)
        where[0, 1] = True
        m = intensity_measures(rows, 0.0, 0.02, periods=self.PERIODS,
                               where=where)
        assert np.array_equal(np.isfinite(m.sa), where)
        with pytest.raises(ValueError, match="thresholds"):
            intensity_measures(rows, 0.0, 0.02, duration_lo=0.5,
                               duration_hi=0.5)
