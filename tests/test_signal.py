import numpy as np
import pytest

from scipy import integrate as sp_integrate
from scipy import signal as sps

from seisgof import TimeSeries, Unit, signal
from seisgof.imeasures import compute_intensity_vector
from seisgof.signal import (Record3C, UnitError, _butter_sos, align, bandpass,
                            bandpass_bank, cumulative_trapezoid, detrend_rows,
                            tukey_window)

from conftest import burst_series, random_series, sine_series


def detrend(ts):
    return ts.with_samples(detrend_rows(ts.samples[None])[0])


def integrate(ts):
    return ts.with_samples(cumulative_trapezoid(ts.samples, ts.dt))


def fourier_amplitude(ts):
    """(freqs, amplitudes) of the Fourier amplitude measure of one trace."""
    m = compute_intensity_vector(ts, periods=np.array([1.0]))
    return m.freqs, m.fs[0]


class TestContainers:
    def test_timeseries_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(-0.01, 0.0, [1.0, 2.0], Unit.ACCELERATION)
        with pytest.raises(ValueError):
            TimeSeries(0.01, 0.0, [1.0], Unit.ACCELERATION)
        with pytest.raises(ValueError):
            TimeSeries(0.01, 0.0, [1.0, np.nan], Unit.ACCELERATION)
        with pytest.raises(UnitError):
            TimeSeries(0.01, 0.0, [1.0, 2.0], "m/s2")

    def test_record_grid_mismatch(self):
        a = sine_series(dt=0.01, duration=1.0)
        b = sine_series(dt=0.02, duration=1.0)
        with pytest.raises(ValueError):
            Record3C(ew=a, ns=b, ud=a)

    def test_record_unit_mismatch(self):
        a = sine_series(dt=0.01, duration=1.0)
        v = TimeSeries(a.dt, a.t0, a.samples, Unit.VELOCITY)
        with pytest.raises(UnitError):
            Record3C(ew=a, ns=a, ud=v)


class TestDetrend:
    def test_mean_of_constant_is_zero(self):
        # The least-squares line of a constant is that constant.
        ts = TimeSeries(0.01, 0.0, np.full(100, 5.0), Unit.ACCELERATION)
        assert np.abs(detrend(ts).samples).max() < 1e-12

    def test_linear_removes_exact_line(self):
        ts = TimeSeries(1.0, 0.0, np.array([0.0, 1.0, 2.0, 3.0]),
                        Unit.ACCELERATION)
        assert np.abs(detrend(ts).samples).max() < 1e-12

    def test_mean_oracle_on_random_series(self):
        # A least-squares line with an intercept leaves zero-mean residuals.
        rng = np.random.default_rng(1)
        ts = random_series(rng)
        out = detrend(ts)
        rms = np.sqrt(np.mean(ts.samples ** 2))
        assert abs(out.samples.mean()) < 1e-12 * rms


class TestTaper:
    """The cosine (Tukey) window the wavelet transform tapers with."""

    def test_zero_fraction_is_identity(self):
        assert np.array_equal(tukey_window(101, 0.0), np.ones(101))

    def test_half_fraction_is_hann(self):
        n = 101
        k = np.arange(n)
        hann = 0.5 * (1.0 - np.cos(2.0 * np.pi * k / (n - 1)))
        assert np.allclose(tukey_window(n, 0.5), hann, atol=1e-12)

    def test_endpoints_zero(self):
        out = tukey_window(1001, 0.1)
        assert out[0] == 0.0 and out[-1] == 0.0


class TestBandpass:
    def test_passband_preserves_amplitude(self):
        ts = sine_series(freq=1.0, dt=0.005, duration=30.0)
        out = bandpass(ts, 0.5, 2.0, order=4, zero_phase=True)
        interior = out.samples[2000:-2000]
        assert abs(np.abs(interior).max() - 1.0) < 0.05

    def test_stopband_attenuation(self):
        ts = sine_series(freq=1.0, dt=0.005, duration=30.0)
        out = bandpass(ts, 5.0, 10.0, order=4, zero_phase=True)
        rms_in = np.sqrt(np.mean(ts.samples ** 2))
        rms_out = np.sqrt(np.mean(out.samples[2000:-2000] ** 2))
        assert 20 * np.log10(rms_out / rms_in) < -40.0

    def test_zero_input_zero_output(self):
        ts = TimeSeries(0.005, 0.0, np.zeros(1000), Unit.ACCELERATION)
        assert np.all(bandpass(ts, 0.5, 2.0).samples == 0.0)

    def test_band_validation(self):
        ts = sine_series(dt=0.01, duration=5.0)
        for lo, hi in ((0.0, 1.0), (2.0, 1.0), (1.0, 50.0), (1.0, 60.0)):
            with pytest.raises(ValueError):
                bandpass(ts, lo, hi)

    def test_zero_phase_preserves_peak_timing(self):
        ts = burst_series(freq=1.0, dt=0.005)
        out = bandpass(ts, 0.5, 2.0, order=4, zero_phase=True)
        assert abs(np.argmax(ts.samples) - np.argmax(out.samples)) <= 1


class TestScipyReference:
    """The numpy filter design, taper and integral against scipy bit for
    bit, and the filter bank within its bound of scipy's filters; the
    program itself filters without scipy."""

    @staticmethod
    def assert_close(got, want, x):
        # The bank runs scipy's recurrence as block products, within a few
        # parts in 1e11 of the input row's max (the long-double bounds in
        # tests/test_long_double_oracles.py); so, on the same cases, is
        # scipy's own float64 recurrence.
        assert np.abs(got - want).max() <= 1e-10 * np.abs(x).max()

    BANDS = ((0.05, 0.1), (0.1, 0.25), (0.25, 0.5), (0.5, 1.0), (1.0, 2.0),
             (2.0, 5.0), (5.0, 10.0), (1.0, 1.01), (0.02, 12.0))

    def test_butterworth_designs(self):
        real_poles = 0
        for dt in (0.001, 0.005, 0.01, 0.02, 0.025, 0.04):
            for order in range(1, 9):
                for lo, hi in self.BANDS:
                    if hi >= 0.5 / dt:
                        continue
                    kwargs = dict(btype="bandpass", fs=1.0 / dt)
                    want = sps.butter(order, [lo, hi], output="sos", **kwargs)
                    assert np.array_equal(_butter_sos(lo, hi, dt, order),
                                          want), (dt, order, lo, hi)
                    _, poles, _ = sps.butter(order, [lo, hi], output="zpk",
                                             **kwargs)
                    real_poles += bool(np.isreal(poles).any())
        # The wide band's odd orders reach the two-real-poles branch.
        assert real_poles >= 4

    def test_order_below_one_rejected(self):
        ts = sine_series(dt=0.01, duration=5.0)
        for order in (0, -1, 2.5):
            with pytest.raises(ValueError, match="filter order"):
                bandpass(ts, 1.0, 2.0, order=order)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("zero_phase", [True, False])
    @pytest.mark.parametrize("max_values", [10_000, 0])
    def test_bank_rows(self, order, zero_phase, max_values, monkeypatch):
        # A cap of 10,000 samples takes each of these 16-row banks in one
        # pass; a cap of 0 gives every row a pass of its own.
        monkeypatch.setattr(signal, "BANK_MAX_VALUES", max_values)
        rng = np.random.default_rng(order)
        edges = ((0.05, 0.1), (0.5, 1.0), (5.0, 10.0), (2.0, 24.0))
        for n in (3 * (2 * order + 1) + 1, 60, 601):
            rows = np.stack((np.zeros(n), np.full(n, 3.0),
                             1e-6 * rng.standard_normal(n),
                             1e5 * rng.standard_normal(n)))
            out = bandpass_bank(rows, 0.02, edges, order, zero_phase)
            assert out.shape == (len(rows) * len(edges), n)
            for i, x in enumerate(rows):
                for j, (lo, hi) in enumerate(edges):
                    sos = sps.butter(order, [lo, hi], btype="bandpass",
                                     fs=50.0, output="sos")
                    want = (sps.sosfiltfilt(sos, x) if zero_phase
                            else sps.sosfilt(sos, x))
                    self.assert_close(out[i * len(edges) + j], want, x)

    def test_bank_has_no_length_limit(self):
        # The bank has no length limit: a 300-s record at 100 Hz.
        rng = np.random.default_rng(9)
        edges = ((0.05, 0.1), (5.0, 10.0))
        rows = rng.standard_normal((2, 30_001))
        out = bandpass_bank(rows, 0.01, edges)
        for i, x in enumerate(rows):
            for j, (lo, hi) in enumerate(edges):
                sos = sps.butter(4, [lo, hi], btype="bandpass",
                                 fs=100.0, output="sos")
                self.assert_close(out[i * len(edges) + j],
                                  sps.sosfiltfilt(sos, x), x)

    def test_bandpass_is_a_one_row_bank(self):
        ts = burst_series(freq=1.0, dt=0.01, unit=Unit.VELOCITY)
        out = bandpass(ts, 0.5, 2.0)
        assert (out.dt, out.t0, out.unit) == (ts.dt, ts.t0, ts.unit)
        assert np.array_equal(
            out.samples, bandpass_bank(ts.samples[None], ts.dt,
                                       [(0.5, 2.0)])[0])

    def test_short_trace_message(self):
        x = np.ones(27)
        sos = sps.butter(4, [1.0, 2.0], btype="bandpass", fs=50.0,
                         output="sos")
        with pytest.raises(ValueError) as want:
            sps.sosfiltfilt(sos, x)
        with pytest.raises(ValueError) as got:
            bandpass(TimeSeries(0.02, 0.0, x, Unit.ACCELERATION), 1.0, 2.0)
        assert str(got.value) == str(want.value)
        assert "padlen, which is 27." in str(got.value)

    def test_bank_checks_grid_and_every_band(self):
        # Every band must lie below the Nyquist frequency of the grid's dt;
        # traces on different grids are rejected by anderson_features
        # (tests/test_gof_anderson.py).
        x = np.stack([sine_series(dt=0.01, duration=5.0).samples] * 2)
        assert bandpass_bank(x, 0.01, [(1.0, 30.0)]).shape == (2, x.shape[1])
        with pytest.raises(ValueError, match=r"band \[1.0, 30.0\] Hz .*"
                                             r"for dt=0.02"):
            bandpass_bank(x, 0.02, [(1.0, 2.0), (1.0, 30.0)])
        with pytest.raises(ValueError, match=r"band \[1.0, 60.0\] Hz"):
            bandpass_bank(x, 0.01, [(1.0, 2.0), (1.0, 60.0)])
        assert bandpass_bank(x, 0.01, []).shape == (0, x.shape[1])

    def test_tukey_window(self):
        for n in (2, 3, 4, 5, 101, 600):
            for fraction in (0.0, 0.01, 0.05, 0.25, 0.3, 0.5):
                want = sps.windows.tukey(n, alpha=2.0 * fraction, sym=True)
                assert np.array_equal(tukey_window(n, fraction), want)

    def test_integrate(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 1000):
            ts = random_series(rng, n=n, dt=0.013)
            want = sp_integrate.cumulative_trapezoid(ts.samples, dx=0.013,
                                                     initial=0.0)
            assert np.array_equal(integrate(ts).samples, want)


class TestCalculus:
    def test_constant_acceleration_ramp(self):
        ts = TimeSeries(0.001, 0.0, np.ones(1001), Unit.ACCELERATION)
        vel = integrate(ts)
        assert vel.samples[0] == 0.0
        assert abs(vel.samples[-1] - 1.0) < 1e-12

    def test_round_trip(self):
        # trapezoid + central differences smooth by (1 + cos(w*dt))/2, so the
        # 1e-6 budget needs w*dt < 2e-3
        ts = sine_series(freq=0.5, dt=2e-4, duration=5.0)
        back = np.gradient(integrate(ts).samples, ts.dt)
        err = np.abs(back[1:-1] - ts.samples[1:-1]).max()
        assert err < 1e-6 * np.abs(ts.samples).max()

    def test_integrate_zeros(self):
        ts = TimeSeries(0.01, 0.0, np.zeros(100), Unit.ACCELERATION)
        assert np.all(integrate(ts).samples == 0.0)


class TestFourier:
    def test_sine_peak_amplitude(self):
        duration = 20.0
        ts = sine_series(freq=2.0, dt=0.005, duration=duration)
        freqs, amplitudes = fourier_amplitude(ts)
        peak_idx = np.argmax(amplitudes)
        assert abs(freqs[peak_idx] - 2.0) < 0.1
        total = ts.n * ts.dt
        assert abs(amplitudes[peak_idx] - total / 2.0) < 0.03 * total / 2.0

    def test_parseval(self):
        rng = np.random.default_rng(7)
        ts = random_series(rng, n=2048, dt=0.01)
        ts = ts.with_samples(ts.samples * tukey_window(ts.n, 0.05))
        _, amplitudes = fourier_amplitude(ts)
        df = 1.0 / (ts.n * ts.dt)
        two_sided = 2.0 * np.sum(amplitudes ** 2)
        two_sided -= amplitudes[0] ** 2
        if ts.n % 2 == 0:
            two_sided -= amplitudes[-1] ** 2
        freq_energy = two_sided * df
        time_energy = np.sum(ts.samples ** 2) * ts.dt
        assert abs(freq_energy - time_energy) < 0.01 * time_energy

    def test_zero_input(self):
        ts = TimeSeries(0.01, 0.0, np.zeros(256), Unit.ACCELERATION)
        assert np.all(fourier_amplitude(ts)[1] == 0.0)


class TestAlign:
    def test_resamples_to_finer_grid(self):
        t_a = np.arange(0, 101) * 0.1
        a = TimeSeries(0.1, 0.0, 2.0 * t_a, Unit.ACCELERATION)
        t_b = np.arange(0, 41) * 0.25
        b = TimeSeries(0.25, 2.0, 3.0 * (t_b + 2.0), Unit.ACCELERATION)
        ra, rb = align(a, b)
        assert ra.dt == rb.dt == 0.1
        assert ra.t0 == rb.t0 == 2.0
        assert ra.n == rb.n
        # both inputs are lines, so interpolation reproduces them exactly
        assert np.allclose(ra.samples, 2.0 * ra.times, atol=1e-9)
        assert np.allclose(rb.samples, 3.0 * rb.times, atol=1e-9)

    def test_no_overlap(self):
        a = sine_series(duration=1.0)
        b = sine_series(duration=1.0, t0=5.0)
        with pytest.raises(ValueError):
            align(a, b)

    def test_unit_mismatch(self):
        a = sine_series(unit=Unit.ACCELERATION)
        b = sine_series(unit=Unit.VELOCITY)
        with pytest.raises(UnitError):
            align(a, b)


class TestLinearity:
    @pytest.mark.parametrize("op", [
        lambda ts: detrend(ts),
        lambda ts: bandpass(ts, 0.5, 5.0),
        integrate,
        lambda ts: bandpass(ts, 0.5, 5.0, zero_phase=False),
    ])
    def test_operations_are_linear(self, op):
        rng = np.random.default_rng(11)
        x = random_series(rng, n=1024, dt=0.01)
        y = random_series(rng, n=1024, dt=0.01)
        a, b = 1.7, -0.4
        combo = x.with_samples(a * x.samples + b * y.samples)
        lhs = op(combo).samples
        rhs = a * op(x).samples + b * op(y).samples
        scale = max(np.abs(rhs).max(), 1e-30)
        assert np.abs(lhs - rhs).max() < 1e-9 * scale
