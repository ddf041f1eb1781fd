import numpy as np
import pytest

from seisgof import (FocalMechanism, TimeSeries, Unit, default_scenario,
                     synth_fullspace)
from seisgof.gof_tf import _morlet_spectra
from seisgof.imeasures import G
from seisgof.signal import Record3C, tukey_window


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


def score_one_value(p1, p2):
    """The score of two scalar parameters, one Python float at a time: the
    oracle of gof_anderson.score_values."""
    if p1 == p2:
        return 10.0
    denom = min(abs(p1), abs(p2))
    if denom == 0.0:
        return 0.0
    try:
        return float(10.0 * np.exp(-(((p1 - p2) / denom) ** 2)))
    except OverflowError:  # a finite ratio whose square exceeds the floats
        return 0.0


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


def newmark_one_trace(ag, dt, periods, zeta):
    """Sa of one trace: the Newmark loop over its samples, vectorized over
    periods only."""
    wn = 2.0 * np.pi / periods
    k = wn ** 2
    c = 2.0 * zeta * wn
    keff = k + 2.0 * c / dt + 4.0 / dt ** 2
    u = np.zeros_like(wn)
    v = np.zeros_like(wn)
    a = np.full_like(wn, -ag[0])
    umax = np.zeros_like(wn)
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
    return k * umax


def running_integral(y, dt):
    """Trapezoidal integral of ``y`` from its first sample to each sample."""
    return np.concatenate(([0.0], np.cumsum(dt * (y[1:] + y[:-1]) / 2.0)))


def polyfit_detrend(y):
    """``y`` less the line ``np.polyfit`` fits it over the sample indices."""
    t = np.arange(y.size, dtype=float)
    slope, intercept = np.polyfit(t, y, 1)
    return y - (slope * t + intercept)


def energy_window(y, dt, t, lo=0.05, hi=0.75):
    """Time between the lo and hi fractions of the buildup of y^2."""
    cum = running_integral(y ** 2, dt)
    frac = cum / cum[-1]
    return np.interp(hi, frac, t) - np.interp(lo, frac, t)


def one_trace_measures(acc, periods):
    """Bytes of every measure of one acceleration trace, computed alone
    with numpy's own routines: the oracle of the batched measures
    (:func:`batch_row`), sharing no helper with them."""
    x, dt, t = acc.samples, acc.dt, acc.times
    vel = polyfit_detrend(running_integral(x, dt))
    disp = polyfit_detrend(running_integral(vel, dt))
    ia = np.pi / (2.0 * G) * np.trapezoid(x ** 2, dx=dt)
    iv = np.trapezoid(vel ** 2, dx=dt)
    scalars = [np.abs(x).max(), np.abs(vel).max(), np.abs(disp).max(), ia,
               energy_window(x, dt, t) if ia > 0 else 0.0,
               energy_window(vel, dt, t) if iv > 0 else 0.0, iv]
    periods = np.asarray(periods, dtype=float)
    valid = periods > 2.0 * dt
    sa = np.full(periods.size, np.nan)
    sa[valid] = newmark_one_trace(x, dt, periods[valid], 0.05)
    return (np.array(scalars).tobytes(), sa.tobytes(),
            np.fft.rfftfreq(acc.n, dt).tobytes(),
            (np.abs(np.fft.rfft(x)) * dt).tobytes())


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
