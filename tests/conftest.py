import numpy as np
import pytest

from seisgof import (FocalMechanism, TimeSeries, Unit, arias_duration,
                     arias_intensity, default_scenario, response_spectrum,
                     synth_fullspace)
from seisgof.gof_tf import _morlet_spectra
from seisgof.imeasures import energy_duration, energy_integral, peaks
from seisgof.signal import (Record3C, detrend, fourier_amplitude, integrate,
                            tukey_window)


def sine_series(freq=1.0, dt=0.005, duration=10.0, amplitude=1.0, t0=0.0,
                unit=Unit.ACCELERATION, phase=0.0):
    t = np.arange(int(round(duration / dt)) + 1) * dt
    return TimeSeries(dt, t0, amplitude * np.sin(2 * np.pi * freq * t + phase),
                      unit)


def burst_series(freq=1.0, dt=0.005, duration=12.0, center=6.0, width=1.5,
                 unit=Unit.ACCELERATION):
    """Gaussian-windowed sine; band-limited and time-localized."""
    t = np.arange(int(round(duration / dt)) + 1) * dt
    x = np.sin(2 * np.pi * freq * t) * np.exp(-0.5 * ((t - center) / width) ** 2)
    return TimeSeries(dt, 0.0, x, unit)


def random_series(rng, n=512, dt=0.01, unit=Unit.ACCELERATION, t0=0.0):
    return TimeSeries(dt, t0, rng.standard_normal(n), unit)


def record_from_arrays(ew, ns, ud, dt=0.005, unit=Unit.ACCELERATION):
    mk = lambda x: TimeSeries(dt, 0.0, x, unit)
    return Record3C(ew=mk(ew), ns=mk(ns), ud=mk(ud), station_id="TST")


def full_mode_lags(xa, xb, max_shift):
    """The lags -max_shift..max_shift of the all-lags np.correlate, which
    cross_correlation computed before it kept only those."""
    mid = xa.size - 1
    return np.correlate(xa, xb, mode="full")[max(0, mid - max_shift):
                                             mid + max_shift + 1]


def full_mode_cross_correlation(a, b, max_lag):
    """cross_correlation through the all-lags np.correlate."""
    xa = a.samples - a.samples.mean()
    xb = b.samples - b.samples.mean()
    den = float(np.sqrt(float(np.dot(xa, xa)) * float(np.dot(xb, xb))))
    max_shift = int(np.floor(max_lag / a.dt + 1e-9))
    rho = float(full_mode_lags(xa, xb, max_shift).max() / den)
    return min(1.0, max(-1.0, rho))


def cwt_per_frequency(ts, freqs, wavelet_omega0=6.0, taper_fraction=0.05):
    """cwt through one inverse FFT per frequency, the oracle of its
    blocked inverse FFTs."""
    freqs = np.asarray(freqs, dtype=float)
    x = ts.samples
    if taper_fraction > 0:
        x = x * tukey_window(ts.n, taper_fraction)
    n, dt = x.size, ts.dt
    spectra = _morlet_spectra(n, dt, freqs.tobytes(), wavelet_omega0)
    xf = np.fft.fft(x, n=spectra.shape[1])
    i0 = int((n - 1) * dt / 2.0 / dt)
    coeff = np.empty((n, freqs.size), dtype=complex)
    for j, kernel_f in enumerate(spectra):
        coeff[:, j] = np.fft.ifft(kernel_f * xf)[i0:i0 + n] * dt
    return coeff


def one_trace_measures(acc, periods):
    """Bytes of every measure of one trace from the public one-trace
    functions, the oracle of the batched measures (:func:`batch_row`)."""
    vel = detrend(integrate(acc))
    ia, iv = arias_intensity(acc), energy_integral(vel)
    fs = fourier_amplitude(acc)
    scalars = [*peaks(acc), ia, arias_duration(acc) if ia > 0 else 0.0,
               energy_duration(vel) if iv > 0 else 0.0, iv]
    return (np.array(scalars).tobytes(),
            response_spectrum(acc, 0.05, periods).tobytes(),
            fs.freqs.tobytes(), fs.amplitudes.tobytes())


def batch_row(m, i):
    """Bytes of trace ``i``'s measures in a batched result."""
    scalars = [getattr(m, name)[i]
               for name in ("pga", "pgv", "pgd", "ia", "da", "de", "iv")]
    return (np.array(scalars).tobytes(), m.sa[i].tobytes(),
            m.freqs.tobytes(), m.fs[i].tobytes())


@pytest.fixture(scope="session")
def default_synthetic():
    """One synthesized record at the default scenario, shared across tests."""
    scenario = default_scenario()
    return synth_fullspace(scenario, FocalMechanism(45.0, 55.0, 90.0))
