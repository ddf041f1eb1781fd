import numpy as np
import pytest

from scipy import integrate as sp_integrate
from scipy import signal as sps

from seisgof import TimeSeries, Unit, signal
from seisgof.signal import (Record3C, Spectrum, UnitError, _butter_sos, align,
                            bandpass, bandpass_bank, detrend,
                            fourier_amplitude, integrate, tukey_window)

from conftest import burst_series, random_series, sine_series


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
        v = a.with_samples(a.samples, unit=Unit.VELOCITY)
        with pytest.raises(UnitError):
            Record3C(ew=a, ns=a, ud=v)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


class TestDetrend:
    def test_mean_of_constant_is_zero(self):
        ts = TimeSeries(0.01, 0.0, np.full(100, 5.0), Unit.ACCELERATION)
        assert np.all(detrend(ts, "mean").samples == 0.0)

    def test_linear_removes_exact_line(self):
        ts = TimeSeries(1.0, 0.0, np.array([0.0, 1.0, 2.0, 3.0]),
                        Unit.ACCELERATION)
        assert np.abs(detrend(ts, "linear").samples).max() < 1e-12

    def test_mean_oracle_on_random_series(self):
        rng = np.random.default_rng(1)
        ts = random_series(rng)
        out = detrend(ts, "mean")
        rms = np.sqrt(np.mean(ts.samples ** 2))
        assert abs(out.samples.mean()) < 1e-12 * rms

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            detrend(sine_series(), "quadratic")


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
    """The numpy filter design, filter, taper and integral against scipy,
    bit for bit; the program itself filters without scipy."""

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
            rows = (np.zeros(n), np.full(n, 3.0),
                    1e-6 * rng.standard_normal(n),
                    1e5 * rng.standard_normal(n))
            traces = [TimeSeries(0.02, 0.0, x, Unit.ACCELERATION)
                      for x in rows]
            out = bandpass_bank(traces, edges, order, zero_phase)
            for i, ts in enumerate(traces):
                for j, (lo, hi) in enumerate(edges):
                    sos = sps.butter(order, [lo, hi], btype="bandpass",
                                     fs=50.0, output="sos")
                    want = (sps.sosfiltfilt(sos, ts.samples) if zero_phase
                            else sps.sosfilt(sos, ts.samples))
                    assert np.array_equal(out[i][j].samples, want)
                    assert out[i][j].dt == ts.dt and out[i][j].t0 == ts.t0

    def test_bank_bits_do_not_change_at_the_numpy_limit(self):
        # The bank has no length limit: a 300-s record at 100 Hz.
        rng = np.random.default_rng(9)
        edges = ((0.05, 0.1), (5.0, 10.0))
        traces = [TimeSeries(0.01, 0.0, x, Unit.ACCELERATION)
                  for x in rng.standard_normal((2, 30_001))]
        out = bandpass_bank(traces, edges)
        for i, ts in enumerate(traces):
            for j, (lo, hi) in enumerate(edges):
                sos = sps.butter(4, [lo, hi], btype="bandpass",
                                 fs=100.0, output="sos")
                assert np.array_equal(out[i][j].samples,
                                      sps.sosfiltfilt(sos, ts.samples))

    def test_bandpass_is_a_one_row_bank(self):
        ts = burst_series(freq=1.0, dt=0.01)
        assert np.array_equal(bandpass(ts, 0.5, 2.0).samples,
                              bandpass_bank([ts], [(0.5, 2.0)])[0][0].samples)

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
        a = sine_series(dt=0.01, duration=5.0)
        with pytest.raises(ValueError, match="common grid"):
            bandpass_bank([a, sine_series(dt=0.02, duration=5.0)],
                          [(1.0, 2.0)])
        with pytest.raises(ValueError, match=r"band \[1.0, 60.0\] Hz"):
            bandpass_bank([a], [(1.0, 2.0), (1.0, 60.0)])
        assert bandpass_bank([a, a], []) == [[], []]

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
        assert vel.unit is Unit.VELOCITY
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

    def test_unit_chain_ends(self):
        disp = sine_series(unit=Unit.DISPLACEMENT)
        with pytest.raises(UnitError):
            integrate(disp)


class TestFourier:
    def test_sine_peak_amplitude(self):
        duration = 20.0
        ts = sine_series(freq=2.0, dt=0.005, duration=duration)
        spec = fourier_amplitude(ts)
        peak_idx = np.argmax(spec.amplitudes)
        assert abs(spec.freqs[peak_idx] - 2.0) < 0.1
        total = ts.n * ts.dt
        assert abs(spec.amplitudes[peak_idx] - total / 2.0) < 0.03 * total / 2.0

    def test_parseval(self):
        rng = np.random.default_rng(7)
        ts = random_series(rng, n=2048, dt=0.01)
        ts = ts.with_samples(ts.samples * tukey_window(ts.n, 0.05))
        spec = fourier_amplitude(ts)
        df = 1.0 / (ts.n * ts.dt)
        two_sided = 2.0 * np.sum(spec.amplitudes ** 2)
        two_sided -= spec.amplitudes[0] ** 2
        if ts.n % 2 == 0:
            two_sided -= spec.amplitudes[-1] ** 2
        freq_energy = two_sided * df
        time_energy = np.sum(ts.samples ** 2) * ts.dt
        assert abs(freq_energy - time_energy) < 0.01 * time_energy

    def test_zero_input(self):
        ts = TimeSeries(0.01, 0.0, np.zeros(256), Unit.ACCELERATION)
        assert np.all(fourier_amplitude(ts).amplitudes == 0.0)

    def test_smoothing_labels_spectrum(self):
        ts = sine_series(dt=0.01, duration=5.0)
        spec = fourier_amplitude(ts, smoothing_octaves=0.5)
        assert "0.5" in spec.smoothing
        assert spec.amplitudes.shape == spec.freqs.shape


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
        lambda ts: detrend(ts, "mean"),
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
