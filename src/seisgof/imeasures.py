"""The ten intensity measures used by the score framework.

Scalar measures: PGA, PGV, PGD, Arias intensity Ia, Arias duration Da,
energy duration De and the velocity-squared integral Iv. Vector measures:
response spectrum Sa over a period grid and the Fourier amplitude spectrum.
Cross correlation is a pair metric and lives here as well; its 0-10 mapping
belongs to the score layer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .signal import (BANK_MAX_VALUES, TimeSeries, Unit, _trapezoid_steps,
                     cumulative_trapezoid, detrend_rows, require_same_grid,
                     require_unit)

G = 9.81  # m/s^2


def arias_intensity(acc: TimeSeries) -> float:
    """Ia = pi/(2 g) * integral of a(t)^2 dt, trapezoidal."""
    require_unit(acc, Unit.ACCELERATION)
    return float(_energy(acc.samples[None], np.pi / (2.0 * G), acc.dt,
                         acc.times, 0.05, 0.75)[0][0])


def _check_thresholds(lo: float, hi: float) -> None:
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"duration thresholds must satisfy 0 <= lo < hi "
                         f"<= 1, got ({lo}, {hi})")


def arias_duration(acc: TimeSeries, lo: float = 0.05, hi: float = 0.75) -> float:
    """Time between the lo and hi fractions of the cumulative Arias buildup."""
    require_unit(acc, Unit.ACCELERATION)
    _check_thresholds(lo, hi)
    energy, window = _energy(acc.samples[None], 1.0, acc.dt, acc.times, lo,
                             hi)
    if not energy[0] > 0:
        raise ValueError("zero-energy trace has no duration")
    return float(window[0])


# The shortest and the longest Sa period of the default grid, in s
DEFAULT_PERIOD_RANGE = (0.02, 10.0)


def default_periods(n: int = 50, t_min: float = DEFAULT_PERIOD_RANGE[0],
                    t_max: float = DEFAULT_PERIOD_RANGE[1]) -> np.ndarray:
    return np.logspace(np.log10(t_min), np.log10(t_max), n)


def response_spectrum(acc: TimeSeries, damping: float = 0.05,
                      periods: np.ndarray | None = None) -> np.ndarray:
    """Damped-SDOF pseudo-spectral acceleration w^2 * max|u| via Newmark
    average acceleration.

    Returns one value per entry of ``periods`` (default 50 log-spaced points,
    0.02-10 s). Periods at or below 2*dt are skipped (NaN) with a warning.
    """
    require_unit(acc, Unit.ACCELERATION)
    return response_spectra(acc.samples[None], acc.dt, damping, periods)[0]


def response_spectra(ag: np.ndarray, dt: float, damping: float = 0.05,
                     periods: np.ndarray | None = None, *,
                     where=None) -> np.ndarray:
    """:func:`response_spectrum` of every row of ``ag``, acceleration
    samples on one grid of interval ``dt``, in one pass over the samples.

    Returns an array of shape (len(ag), len(periods)) whose rows equal the
    single-trace spectra bit for bit. ``where``, a boolean array of that
    shape, limits the work to its true entries; the others are NaN. Only
    wanted periods at or below 2*dt are warned about.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping ratio must be in (0, 1), got {damping}")
    if periods is None:
        periods = default_periods()
    periods = np.asarray(periods, dtype=float)
    sa = np.full((len(ag), periods.size), np.nan)
    where = np.broadcast_to(True if where is None else where, sa.shape)
    valid = periods > 2.0 * dt
    skipped = where.any(axis=0) & ~valid
    if skipped.any():
        warnings.warn(f"{int(skipped.sum())} periods at or below 2*dt "
                      f"({2 * dt:g} s) skipped", stacklevel=2)
    rows, cols = np.nonzero(where & valid)
    if rows.size:
        sa[rows, cols] = _newmark_sdof_max(ag, rows, dt, periods[cols],
                                           damping)
    return sa


def _newmark_sdof_max(ag, trace, dt, periods, zeta):
    # Average-acceleration Newmark (gamma=1/2, beta=1/4), unit mass,
    # vectorized over (trace, period) pairs: the oscillator with period
    # periods[j] is driven by row trace[j] of ag; ground forcing p = -ag.
    # Every state element sees the operations of the one-trace loop in
    # the same order, so batching changes no bit. The samples stay per
    # trace and each step gathers its pairs' values. Each step writes
    # into preallocated buffers: the state (u, v, a) and its increment
    # (du, dv, da) are (3, pairs) arrays, and the du and v terms of dv and
    # da are each one multiply by a column of two coefficients.
    wn = 2.0 * np.pi / periods
    k = wn ** 2
    c = 2.0 * zeta * wn
    keff = k + 2.0 * c / dt + 4.0 / dt ** 2
    cv = 4.0 / dt + 2.0 * c
    ag = np.ascontiguousarray(ag.T)  # ag[i] is sample i of every trace
    dp = -(ag[1:] - ag[:-1])  # dp[i - 1] is the load step into sample i
    by_du = np.array([[2.0 / dt], [4.0 / dt ** 2]])
    by_v = np.array([[2.0], [4.0 / dt]])
    state = np.zeros((3, wn.size))
    step = np.empty_like(state)
    du_terms = np.empty((2, wn.size))
    v_terms = np.empty_like(du_terms)
    two_a = np.empty(wn.size)
    umax = np.zeros(wn.size)
    u, v, a = state
    du, dv, da = step
    np.negative(ag[0][trace], out=a)
    for i in range(1, ag.shape[0]):
        np.multiply(2.0, a, out=two_a)
        np.take(dp[i - 1], trace, out=du, mode="clip")
        np.multiply(cv, v, out=dv)
        du += dv
        du += two_a
        du /= keff  # du = (dp + cv * v + 2a) / keff
        np.multiply(by_du, du, out=du_terms)
        np.multiply(by_v, v, out=v_terms)
        np.subtract(du_terms[0], v_terms[0], out=dv)
        np.subtract(du_terms[1], v_terms[1], out=da)
        da -= two_a
        state += step
        np.abs(u, out=du_terms[0])
        np.maximum(umax, du_terms[0], out=umax)
    return k * umax


# np.correlate sums an overlap of 11 samples or fewer on a separate
# small-kernel path, whose rounding differs from the dot product that full
# mode uses for every lag but zero; the full mode is kept up to this
# smallest overlap, with a margin over those 11.
XCORR_FULL_MODE_MAX_OVERLAP = 32
# One np.correlate call per kept lag costs about as much as a dot product of
# this many samples (Xeon, numpy 2.4: 1.9 us), so n products of n samples
# in one full-mode call are cheaper for short records with many lags, such
# as 601 samples with 51 lags.
XCORR_LAG_CALL_SAMPLES = 10_000


def cross_correlation(a: TimeSeries, b: TimeSeries, max_lag: float = 0.5) -> float:
    """Maximum normalized cross-correlation over lags |tau| <= max_lag seconds.

    Only the kept lags are computed (:func:`_kept_lags`).
    """
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
    rho = float(_kept_lags(xa, xb, max_shift).max() / den)
    return min(1.0, max(-1.0, rho))


def _kept_lags(xa: np.ndarray, xb: np.ndarray, max_shift: int) -> np.ndarray:
    """``np.correlate(xa, xb, "full")`` at the lags -max_shift..max_shift
    that exist, bit for bit, for two arrays of one length.

    Each lag k is one ``np.correlate`` of the overlapping samples, so the
    cost grows with the length times the lag count instead of its square.
    The full mode itself is computed instead when the smallest overlap is
    ``XCORR_FULL_MODE_MAX_OVERLAP`` samples or fewer, where the two differ,
    or when it is the cheaper of the two (see the constants).
    """
    n = xa.size
    lag_cost = (2 * max_shift + 1) * (n + XCORR_LAG_CALL_SAMPLES)
    if n - max_shift <= XCORR_FULL_MODE_MAX_OVERLAP or n * n <= lag_cost:
        full = np.correlate(xa, xb, mode="full")
        return full[max(0, n - 1 - max_shift):n + max_shift]
    return np.array(
        [np.correlate(xa[:n + k], xb[-k:])[0] for k in range(-max_shift, 0)]
        + [np.correlate(xa[k:], xb[:n - k])[0] for k in range(max_shift + 1)])


def compute_intensity_vector(acc: TimeSeries, *, damping: float = 0.05,
                             periods: np.ndarray | None = None,
                             duration_lo: float = 0.05,
                             duration_hi: float = 0.75) -> IntensityMeasures:
    """All single-trace measures of one acceleration trace: the one-row
    case of :func:`intensity_measures`.

    Zero-energy traces get zero durations rather than an error so that a
    silent band scores cleanly against another silent band.
    """
    require_unit(acc, Unit.ACCELERATION)
    return intensity_measures(acc.samples[None], acc.t0, acc.dt, damping,
                              periods, duration_lo=duration_lo,
                              duration_hi=duration_hi)


@dataclass(frozen=True)
class IntensityMeasures:
    """The single-trace measures of the rows of a sample array.

    Entry ``i`` of each scalar measure, and row ``i`` of ``sa`` (over
    ``periods``) and of the Fourier amplitudes ``fs`` (over ``freqs``),
    belong to row ``i``.
    """

    pga: np.ndarray
    pgv: np.ndarray
    pgd: np.ndarray
    ia: np.ndarray
    da: np.ndarray
    de: np.ndarray
    iv: np.ndarray
    periods: np.ndarray
    sa: np.ndarray
    freqs: np.ndarray
    fs: np.ndarray

    def rows(self, start: int, stop: int) -> IntensityMeasures:
        """The measures of rows ``start`` to ``stop - 1``, copied, so that
        they do not keep the whole batch's arrays alive."""
        return replace(self, **{
            name: getattr(self, name)[start:stop].copy()
            for name in ("pga", "pgv", "pgd", "ia", "da", "de", "iv", "sa",
                         "fs")})


def intensity_measures(acc: np.ndarray, t0: float, dt: float,
                       damping: float = 0.05,
                       periods: np.ndarray | None = None, *,
                       duration_lo: float = 0.05, duration_hi: float = 0.75,
                       where=None) -> IntensityMeasures:
    """:func:`compute_intensity_vector` of every row of ``acc``,
    acceleration samples on the grid ``t0 + i * dt``, in 2-D passes.

    PGV and PGD are the peaks of the detrended running integrals. Each
    row's measures equal, bit for bit, what the test oracle
    ``tests/conftest.py::one_trace_measures`` computes for its trace alone
    with numpy's own routines, and Sa is one :func:`response_spectra`
    call with ``where``. Zero-energy rows get zero durations. One pass
    takes at most :data:`~seisgof.signal.BANK_MAX_VALUES` samples; a
    bigger array runs in slices of rows.
    """
    _check_thresholds(duration_lo, duration_hi)
    periods = np.asarray(default_periods() if periods is None else periods,
                         dtype=float)
    sa = response_spectra(acc, dt, damping, periods, where=where)
    rows, n = acc.shape
    t = t0 + np.arange(n) * dt
    scalars = np.empty((7, rows))
    fs = np.empty((rows, n // 2 + 1))
    step = max(1, BANK_MAX_VALUES // n)
    for r in range(0, rows, step):
        # Views of this slice's rows and of its entries of each measure.
        part = acc[r:r + step]
        pga, pgv, pgd, ia, da, de, iv = scalars[:, r:r + step]
        fs[r:r + step] = np.abs(np.fft.rfft(part, axis=1)) * dt
        pga[:] = np.abs(part).max(axis=1)
        ia[:], da[:] = _energy(part, np.pi / (2.0 * G), dt, t, duration_lo,
                               duration_hi)
        vel = detrend_rows(cumulative_trapezoid(part, dt))
        pgv[:] = np.abs(vel).max(axis=1)
        iv[:], de[:] = _energy(vel, 1.0, dt, t, duration_lo, duration_hi)
        pgd[:] = np.abs(detrend_rows(cumulative_trapezoid(vel, dt))).max(
            axis=1)
    return IntensityMeasures(*scalars, periods=periods, sa=sa,
                             freqs=np.fft.rfftfreq(n, dt), fs=fs)


def _energy(x, scale, dt, t, lo, hi):
    # Per row: scale times the trapezoid integral of x^2, and where that is
    # positive the lo-hi window of its buildup, 0.0 elsewhere. The steps
    # are summed as np.trapezoid sums them, then accumulated in place into
    # the buildup; np.interp takes one row at a time.
    cum = _trapezoid_steps(x ** 2, dt)
    steps = cum[:, 1:]
    energy = scale * steps.sum(axis=1)
    np.cumsum(steps, axis=1, out=steps)
    window = np.zeros(len(x))
    for i in np.flatnonzero(energy > 0):
        frac = cum[i] / cum[i, -1]
        window[i] = np.interp(hi, frac, t) - np.interp(lo, frac, t)
    return energy, window
