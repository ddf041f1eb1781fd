import numpy as np
import pytest

from seisgof import (TimeSeries, Unit, arias_duration, arias_intensity,
                     imeasures, response_spectrum)
from seisgof.imeasures import (G, compute_intensity_vector, cross_correlation,
                               default_periods, energy_duration,
                               energy_integral, peaks, response_spectra)
from seisgof.signal import UnitError, detrend, integrate

from conftest import burst_series, sine_series


def constant(value, dt=0.001, duration=1.0, unit=Unit.ACCELERATION):
    n = int(round(duration / dt)) + 1
    return TimeSeries(dt, 0.0, np.full(n, float(value)), unit)


class TestPeaks:
    def test_unit_sine_pga(self):
        ts = sine_series(freq=1.0, dt=0.001, duration=2.0)
        pga, _, _ = peaks(ts)
        assert abs(pga - 1.0) < 1e-3

    def test_constant_acceleration_pgv(self):
        ts = constant(1.0)
        _, pgv, _ = peaks(ts, detrend_integrations=False)
        assert abs(pgv - 1.0) < 1e-12

    def test_zero_trace(self):
        ts = constant(0.0)
        assert peaks(ts) == (0.0, 0.0, 0.0)

    def test_requires_acceleration(self):
        with pytest.raises(UnitError):
            peaks(sine_series(unit=Unit.VELOCITY))


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


class TestEnergyPair:
    def test_constant_velocity(self):
        vel = constant(1.0, unit=Unit.VELOCITY)
        assert abs(energy_integral(vel) - 1.0) < 1e-12

    def test_duration_mirrors_arias(self):
        vel = constant(1.0, dt=0.01, duration=2.0, unit=Unit.VELOCITY)
        assert abs(energy_duration(vel) - 0.70 * vel.duration) <= vel.dt


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

    def test_absolute_spectrum_option(self):
        ts = burst_series(freq=2.0)
        sa_abs = response_spectrum(ts, periods=np.array([0.5]), pseudo=False)
        assert sa_abs[0] > 0.0


def _newmark_one_trace(ag, dt, periods, zeta, pseudo):
    # Reference oracle: the Newmark loop for one trace, vectorized over
    # periods only.
    wn = 2.0 * np.pi / periods
    k = wn ** 2
    c = 2.0 * zeta * wn
    keff = k + 2.0 * c / dt + 4.0 / dt ** 2
    u = np.zeros_like(wn)
    v = np.zeros_like(wn)
    a = np.full_like(wn, -ag[0])
    umax = np.zeros_like(wn)
    amax = np.zeros_like(wn)
    for i in range(1, ag.size):
        dp = -(ag[i] - ag[i - 1])
        dpe = dp + (4.0 / dt + 2.0 * c) * v + 2.0 * a
        du = dpe / keff
        dv = 2.0 / dt * du - 2.0 * v
        da = 4.0 / dt ** 2 * du - 4.0 / dt * v - 2.0 * a
        u += du
        v += dv
        a += da
        np.maximum(umax, np.abs(u), out=umax)
        if not pseudo:
            np.maximum(amax, np.abs(a + ag[i]), out=amax)
    return k * umax if pseudo else amax


class TestResponseSpectra:
    @pytest.mark.parametrize("pseudo", [True, False])
    def test_rows_equal_the_one_trace_loop_bit_for_bit(self, pseudo):
        rng = np.random.default_rng(41)
        dt = 0.02
        rows = rng.standard_normal((5, 401))
        rows[2] = 0.0
        traces = [TimeSeries(dt, 0.0, x, Unit.ACCELERATION) for x in rows]
        periods = default_periods()
        valid = periods > 2.0 * dt
        with pytest.warns(UserWarning):
            sa = response_spectra(traces, 0.05, periods, pseudo)
        assert sa.shape == (5, periods.size)
        assert np.all(np.isnan(sa[:, ~valid]))
        for row, ag in zip(sa, rows):
            expected = _newmark_one_trace(ag, dt, periods[valid], 0.05, pseudo)
            assert np.array_equal(row[valid], expected)
        assert np.all(sa[2, valid] == 0.0)

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
        traces = [TimeSeries(0.02, 0.0, x, Unit.ACCELERATION) for x in rows]
        periods = np.array([0.1, 0.5, 2.0])
        sa = response_spectra(traces, 0.05, periods)
        assert calls == [((4, 301), [3, 3, 3, 3])]
        for row, ag in zip(sa, rows):
            assert np.array_equal(
                row, _newmark_one_trace(ag, 0.02, periods, 0.05, True))

    @pytest.mark.parametrize("pseudo", [True, False])
    def test_where_computes_only_the_wanted_pairs(self, pseudo):
        rng = np.random.default_rng(42)
        traces = [TimeSeries(0.02, 0.0, x, Unit.ACCELERATION)
                  for x in rng.standard_normal((3, 301))]
        periods = np.array([0.02, 0.1, 0.5, 2.0, 8.0])
        where = rng.random((3, periods.size)) < 0.5
        where[:, 0] = True  # at 2*dt: skipped even where wanted
        with pytest.warns(UserWarning):
            full = response_spectra(traces, 0.05, periods, pseudo)
        with pytest.warns(UserWarning):
            part = response_spectra(traces, 0.05, periods, pseudo, where)
        wanted = where & (periods > 0.04)
        assert np.array_equal(part[wanted], full[wanted])
        assert np.all(np.isnan(part[~wanted]))

    def test_single_trace_spectrum_is_one_row(self):
        ts = burst_series(freq=2.0)
        periods = np.array([0.1, 0.5, 2.0])
        other = ts.with_samples(0.5 * ts.samples[::-1])
        batch = response_spectra([other, ts], periods=periods)
        assert np.array_equal(response_spectrum(ts, periods=periods), batch[1])

    @pytest.mark.parametrize("other", [
        TimeSeries(0.02, 0.0, np.ones(101), Unit.ACCELERATION),
        TimeSeries(0.01, 0.5, np.ones(201), Unit.ACCELERATION),
        TimeSeries(0.01, 0.0, np.ones(200), Unit.ACCELERATION),
    ])
    def test_traces_on_different_grids_rejected(self, other):
        ts = TimeSeries(0.01, 0.0, np.ones(201), Unit.ACCELERATION)
        with pytest.raises(ValueError):
            response_spectra([ts, other], periods=np.array([1.0]))

    def test_requires_acceleration_traces(self):
        with pytest.raises(UnitError):
            response_spectra([sine_series(unit=Unit.VELOCITY)])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            response_spectra([])


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


@pytest.mark.parametrize("detrend_integrations", [True, False])
def test_intensity_vector_integrates_velocity_once_with_peaks_bits(
        detrend_integrations):
    ts = burst_series(freq=1.5, dt=0.01)
    ts = ts.with_samples(ts.samples + 0.01)  # a drift for the detrend
    iv = compute_intensity_vector(ts, detrend_integrations=detrend_integrations)
    assert (iv.pga, iv.pgv, iv.pgd) == peaks(ts, detrend_integrations)
    vel = integrate(ts)
    if detrend_integrations:
        vel = detrend(vel, "linear")
    assert iv.iv == energy_integral(vel)
    assert iv.de == energy_duration(vel)
