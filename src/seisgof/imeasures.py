"""The ten intensity measures used by the score framework.

Scalar measures: PGA, PGV, PGD, Arias intensity Ia, Arias duration Da,
energy duration De and the velocity-squared integral Iv. Vector measures:
response spectrum Sa over a period grid and the Fourier amplitude spectrum.
Cross correlation is a pair metric and lives here as well; its 0-10 mapping
belongs to the score layer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .signal import (Spectrum, TimeSeries, Unit, UnitError,
                     cumulative_trapezoid, detrend, fourier_amplitude,
                     integrate, require_same_grid)

G = 9.81  # m/s^2


def _require_unit(ts: TimeSeries, unit: Unit) -> None:
    if ts.unit is not unit:
        raise UnitError(f"expected a {unit.value} trace, got {ts.unit.value}")


def peaks(acc: TimeSeries, detrend_integrations: bool = True):
    """(PGA, PGV, PGD) from an acceleration trace.

    Velocity and displacement come from successive cumulative integrations;
    a linear detrend is applied after each one unless disabled.
    """
    _require_unit(acc, Unit.ACCELERATION)
    return _peaks(acc, _velocity(acc, detrend_integrations),
                  detrend_integrations)


def _velocity(acc: TimeSeries, detrend_integrations: bool) -> TimeSeries:
    vel = integrate(acc)
    return detrend(vel, "linear") if detrend_integrations else vel


def _peaks(acc: TimeSeries, vel: TimeSeries, detrend_integrations: bool):
    disp = integrate(vel)
    if detrend_integrations:
        disp = detrend(disp, "linear")
    return (float(np.abs(acc.samples).max()),
            float(np.abs(vel.samples).max()),
            float(np.abs(disp.samples).max()))


def arias_intensity(acc: TimeSeries) -> float:
    """Ia = pi/(2 g) * integral of a(t)^2 dt, trapezoidal."""
    _require_unit(acc, Unit.ACCELERATION)
    return float(np.pi / (2.0 * G) * np.trapezoid(acc.samples ** 2, dx=acc.dt))


def _energy_window(ts: TimeSeries, lo: float, hi: float) -> float:
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"thresholds must satisfy 0 <= lo < hi <= 1, got "
                         f"({lo}, {hi})")
    cum = cumulative_trapezoid(ts.samples ** 2, ts.dt)
    total = cum[-1]
    if total <= 0.0:
        raise ValueError("zero-energy trace has no duration")
    frac = cum / total
    t = ts.times
    return float(np.interp(hi, frac, t) - np.interp(lo, frac, t))


def arias_duration(acc: TimeSeries, lo: float = 0.05, hi: float = 0.75) -> float:
    """Time between the lo and hi fractions of the cumulative Arias buildup."""
    _require_unit(acc, Unit.ACCELERATION)
    return _energy_window(acc, lo, hi)


def energy_integral(vel: TimeSeries) -> float:
    """Iv = integral of v(t)^2 dt."""
    _require_unit(vel, Unit.VELOCITY)
    return float(np.trapezoid(vel.samples ** 2, dx=vel.dt))


def energy_duration(vel: TimeSeries, lo: float = 0.05, hi: float = 0.75) -> float:
    """Same construction as the Arias duration, applied to v^2."""
    _require_unit(vel, Unit.VELOCITY)
    return _energy_window(vel, lo, hi)


def default_periods(n: int = 50, t_min: float = 0.02, t_max: float = 10.0) -> np.ndarray:
    return np.logspace(np.log10(t_min), np.log10(t_max), n)


def response_spectrum(acc: TimeSeries, damping: float = 0.05,
                      periods: np.ndarray | None = None,
                      pseudo: bool = True) -> np.ndarray:
    """Damped-SDOF spectrum via Newmark average acceleration.

    Returns one value per entry of ``periods`` (default 50 log-spaced points,
    0.02-10 s). Pseudo-spectral acceleration w^2 * max|u| by default; set
    ``pseudo=False`` for the absolute-acceleration spectrum. Periods at or
    below 2*dt are skipped (NaN) with a warning.
    """
    return response_spectra([acc], damping, periods, pseudo)[0]


def response_spectra(traces, damping: float = 0.05,
                     periods: np.ndarray | None = None,
                     pseudo: bool = True, where=None) -> np.ndarray:
    """:func:`response_spectrum` of many traces in one pass over the samples.

    All traces must be acceleration traces on one shared grid. Returns an
    array of shape (len(traces), len(periods)) whose rows equal the
    single-trace spectra bit for bit. ``where``, a boolean array of that
    shape, limits the work to its true entries; the others are NaN. Only
    wanted periods at or below 2*dt are warned about.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("at least one trace is required")
    first = traces[0]
    for ts in traces:
        _require_unit(ts, Unit.ACCELERATION)
        require_same_grid(first, ts)
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping ratio must be in (0, 1), got {damping}")
    if periods is None:
        periods = default_periods()
    periods = np.asarray(periods, dtype=float)
    sa = np.full((len(traces), periods.size), np.nan)
    where = np.broadcast_to(True if where is None else where, sa.shape)
    valid = periods > 2.0 * first.dt
    skipped = where.any(axis=0) & ~valid
    if skipped.any():
        warnings.warn(f"{int(skipped.sum())} periods at or below 2*dt "
                      f"({2 * first.dt:g} s) skipped", stacklevel=2)
    rows, cols = np.nonzero(where & valid)
    if rows.size:
        ag = np.stack([ts.samples for ts in traces])
        sa[rows, cols] = _newmark_sdof_max(ag, rows, first.dt, periods[cols],
                                           damping, pseudo)
    return sa


def _newmark_sdof_max(ag, trace, dt, periods, zeta, pseudo):
    # Average-acceleration Newmark (gamma=1/2, beta=1/4), unit mass,
    # vectorized over (trace, period) pairs: the oscillator with period
    # periods[j] is driven by row trace[j] of ag; ground forcing p = -ag.
    # Every state element sees the operations of the one-trace loop in
    # the same order, so batching changes no bit. The samples stay per
    # trace and each step gathers its pairs' values.
    wn = 2.0 * np.pi / periods
    k = wn ** 2
    c = 2.0 * zeta * wn
    keff = k + 2.0 * c / dt + 4.0 / dt ** 2
    cv = 4.0 / dt + 2.0 * c
    ag = np.ascontiguousarray(ag.T)  # ag[i] is sample i of every trace
    dp = -(ag[1:] - ag[:-1])  # dp[i - 1] is the load step into sample i
    u = np.zeros(wn.size)
    v = np.zeros_like(u)
    a = -ag[0][trace]
    umax = np.zeros_like(u)
    amax = np.zeros_like(u)
    for i in range(1, ag.shape[0]):
        dpe = dp[i - 1][trace] + cv * v + 2.0 * a
        du = dpe / keff
        dv = 2.0 / dt * du - 2.0 * v
        da = 4.0 / dt ** 2 * du - 4.0 / dt * v - 2.0 * a
        u += du
        v += dv
        a += da
        np.maximum(umax, np.abs(u), out=umax)
        if not pseudo:
            np.maximum(amax, np.abs(a + ag[i][trace]), out=amax)
    return k * umax if pseudo else amax


def cross_correlation(a: TimeSeries, b: TimeSeries, max_lag: float = 0.5) -> float:
    """Maximum normalized cross-correlation over lags |tau| <= max_lag seconds."""
    require_same_grid(a, b)
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    xa = a.samples - a.samples.mean()
    xb = b.samples - b.samples.mean()
    ea = float(np.dot(xa, xa))
    eb = float(np.dot(xb, xb))
    if ea == 0.0 or eb == 0.0:
        raise ValueError("zero-variance input")
    den = float(np.sqrt(ea * eb))
    max_shift = int(np.floor(max_lag / a.dt + 1e-9))
    full = np.correlate(xa, xb, mode="full")
    mid = xa.size - 1
    window = full[max(0, mid - max_shift):mid + max_shift + 1]
    rho = float(window.max() / den)
    return min(1.0, max(-1.0, rho))


@dataclass(frozen=True)
class IntensityVector:
    """The ten single-trace measures for one (band-filtered) trace.

    Cross correlation is a pair metric and is therefore not a field here.
    """

    pga: float
    pgv: float
    pgd: float
    ia: float
    da: float
    de: float
    iv: float
    periods: np.ndarray
    sa: np.ndarray
    fs: Spectrum

    def __post_init__(self):
        for name in ("pga", "pgv", "pgd", "ia", "iv", "da", "de"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        sa = np.asarray(self.sa, dtype=float)
        if np.any(sa[np.isfinite(sa)] < 0):
            raise ValueError("sa values must be non-negative")
        object.__setattr__(self, "sa", sa)
        object.__setattr__(self, "periods", np.asarray(self.periods, dtype=float))


def compute_intensity_vector(acc: TimeSeries, *, damping: float = 0.05,
                             periods: np.ndarray | None = None,
                             duration_lo: float = 0.05,
                             duration_hi: float = 0.75,
                             detrend_integrations: bool = True,
                             fs_smoothing_octaves: float = 0.0,
                             pseudo_spectral: bool = True,
                             sa: np.ndarray | None = None) -> IntensityVector:
    """Bundle all single-trace measures for one acceleration trace.

    Zero-energy traces get zero durations rather than an error so that a
    silent band scores cleanly against another silent band. ``sa`` takes
    this trace's row of :func:`response_spectra` when the caller has
    already computed it for ``periods``; it is computed here otherwise.
    """
    _require_unit(acc, Unit.ACCELERATION)
    if periods is None:
        periods = default_periods()
    vel = _velocity(acc, detrend_integrations)
    pga, pgv, pgd = _peaks(acc, vel, detrend_integrations)
    ia = arias_intensity(acc)
    iv = energy_integral(vel)
    da = arias_duration(acc, duration_lo, duration_hi) if ia > 0 else 0.0
    de = energy_duration(vel, duration_lo, duration_hi) if iv > 0 else 0.0
    if sa is None:
        sa = response_spectrum(acc, damping, periods, pseudo_spectral)
    fs = fourier_amplitude(acc, fs_smoothing_octaves)
    return IntensityVector(pga=pga, pgv=pgv, pgd=pgd, ia=ia, da=da, de=de,
                           iv=iv, periods=np.asarray(periods, float), sa=sa,
                           fs=fs)
