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


# Load-step values (time steps x pairs) per block of _newmark_sdof_max: a
# block of time samples is transposed and its steps gathered for every
# (trace, period) pair at once, so the working set does not grow with the
# record length.
SA_BLOCK_VALUES = 2 ** 15


def _newmark_sdof_max(ag, trace, dt, periods, zeta):
    # Average-acceleration Newmark (gamma=1/2, beta=1/4), unit mass,
    # vectorized over (trace, period) pairs: the oscillator with period
    # periods[j] is driven by row trace[j] of ag; ground forcing p = -ag.
    # Every state element sees the operations of the one-trace loop in
    # the same order, so batching changes no bit. The time samples are
    # taken in blocks, each transposed and its load steps gathered per
    # pair once. Each step writes into preallocated buffers: the state
    # (u, v, a) and its increment (du, dv, da) are (3, pairs) arrays, the
    # v terms of du, dv and da are one multiply by three coefficient rows,
    # and dv and da are one subtract.
    wn = 2.0 * np.pi / periods
    k = wn ** 2
    c = 2.0 * zeta * wn
    keff = k + 2.0 * c / dt + 4.0 / dt ** 2
    by_du = np.array([[2.0 / dt], [4.0 / dt ** 2]])
    by_v = np.stack([np.full(wn.size, 2.0), np.full(wn.size, 4.0 / dt),
                     4.0 / dt + 2.0 * c])
    state = np.zeros((3, wn.size))
    step = np.empty_like(state)
    du_terms = np.empty((2, wn.size))
    v_terms = np.empty_like(state)
    two_a = np.empty(wn.size)
    umax = np.zeros(wn.size)
    u, v, a = state
    du, da = step[0], step[2]
    np.negative(ag[trace, 0], out=a)
    size = max(1, SA_BLOCK_VALUES // wn.size)
    for i0 in range(1, ag.shape[1], size):
        samples = np.ascontiguousarray(ag[:, i0 - 1:i0 + size].T)
        # Row j is the load step into sample i0 + j of every pair.
        loads = np.take(-(samples[1:] - samples[:-1]), trace, axis=1)
        for load in loads:
            np.multiply(2.0, a, out=two_a)
            np.multiply(by_v, v, out=v_terms)
            np.add(load, v_terms[2], out=du)
            du += two_a
            du /= keff  # du = (dp + cv * v + 2a) / keff
            np.multiply(by_du, du, out=du_terms)
            np.subtract(du_terms, v_terms[:2], out=step[1:])
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
# Spectrum values per block of cross_correlations: each block's spectra,
# their products and its screened lags are a few arrays of about this
# size, whatever the batch.
XCORR_BLOCK_VALUES = 2 ** 14
# The FFT screen of cross_correlations keeps the lags whose FFT value f_k
# lies within 2 B of the largest, B = XCORR_SCREEN_MARGIN * B0 with
#   B0 = (n + (21 log2(N) + 4) sqrt(n)) u sqrt(ea) sqrt(eb),
# for two centred rows x, y of n samples, an FFT length N >= n + |k| and
# u = 2**-53. In exact arithmetic c_k = sum_i x[i + k] y[i] is both the
# np.correlate value at lag k and f_k = irfft(rfft(x) conj(rfft(y)))[k].
# Without underflow or overflow (the trust conditions below):
# - np.correlate's c_k, a dot product of at most n terms in any order, is
#   within gamma_n ||x|| ||y|| of exact, gamma_n = n u / (1 - n u)
#   (Higham 2002, section 3.1, with Cauchy-Schwarz);
# - an FFT of length N is within log2(N) eta / (1 - log2(N) eta) of its
#   exact result in the 2-norm, eta = mu + gamma_4 (sqrt(2) + mu), for
#   twiddle factors accurate to mu <= u (Higham 2002, section 24.1,
#   Theorem 24.2): e = 7 log2(N) u to first order;
# - so each spectrum is within e sqrt(N) ||x|| of exact (Parseval), and
#   every entry is at most ||x||_1 <= sqrt(n) ||x||; the complex products
#   add sqrt(2) gamma_2 (Higham 2002, Lemma 3.5), the inverse FFT e and
#   its 1/N scaling u. Divided by sqrt(N), |f_k - exact| <=
#   (3 e + sqrt(2) gamma_2 + u) sqrt(n) ||x|| ||y||
#   <= (21 log2(N) + 4) u sqrt(n) ||x|| ||y||.
# So |f_k - c_k| <= B0 to first order, ||x|| ||y|| being sqrt(ea) sqrt(eb)
# within gamma_n, and the lag of the largest c_k, c_m >= c_k for all k,
# has f_m >= c_m - B0 >= c_k - B0 >= f_k - 2 B0. The margin of 10 covers
# the second-order terms, the rounding of B and of max f - 2 B, and an FFT
# with a few more operations per level than the radix-2 one bounded here.
XCORR_SCREEN_MARGIN = 10.0


def cross_correlation(a: TimeSeries, b: TimeSeries, max_lag: float = 0.5) -> float:
    """Maximum normalized cross-correlation over lags |tau| <= max_lag seconds.

    The one-row case of :func:`cross_correlations`.
    """
    require_same_grid(a, b)
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    rho = cross_correlations([(centred_rows(
        a.samples[None], lag_samples(max_lag, a.dt)), b.samples[None])])[0]
    if np.isnan(rho):
        raise ValueError("zero-variance input")
    return float(rho)


def lag_samples(max_lag: float, dt: float) -> int:
    """The lags of at most ``max_lag`` seconds, in samples of ``dt``."""
    return int(np.floor(max_lag / dt + 1e-9))


@dataclass(frozen=True)
class CentredRows:
    """Rows of samples less their means, ready for
    :func:`cross_correlations` at lags of at most ``max_shift`` samples:
    ``x``, each row's ``np.dot`` with itself (``energy``), and the rows'
    ``rfft`` zero-padded to a power of two of at least n + max_shift
    (``spectra``), where the circular correlation has no wrapped lags."""

    x: np.ndarray
    energy: np.ndarray
    max_shift: int
    spectra: np.ndarray


def centred_rows(rows: np.ndarray, max_shift: int) -> CentredRows:
    """The :class:`CentredRows` of the rows of a 2-D array."""
    x = rows - rows.mean(axis=1, keepdims=True)
    n = x.shape[1]
    nfft = 1 << (n + min(max_shift, n - 1) - 1).bit_length()
    with np.errstate(all="ignore"):  # non-finite rows take the exact path
        spectra = np.fft.rfft(x, nfft, axis=1)
    return CentredRows(x, np.array([np.dot(row, row) for row in x]),
                       max_shift, spectra)


def cross_correlations(pairs) -> np.ndarray:
    """:func:`cross_correlation` of many row pairs, bit for bit.

    ``pairs`` holds (:class:`CentredRows`, rows) pairs of one shape, all
    prepared for one ``max_shift``; the first holds the reference rows,
    whose preparation a caller can keep. Returns the maximum normalized
    cross-correlation of each reference row with the row of the same index
    over the lags -max_shift..max_shift, clipped to [-1, 1], in the pairs'
    order, with NaN where either row has zero variance.

    Each row's maximum is the one of :func:`_kept_lags`, evaluated only at
    the lags that an FFT screen cannot rule out (see
    ``XCORR_SCREEN_MARGIN``), and at every lag where the screen cannot be
    trusted. The rows run in blocks of about ``XCORR_BLOCK_VALUES``
    spectrum values.
    """
    pairs = list(pairs)
    refs = [(r, i) for r, rows in pairs for i in range(len(rows))]
    rows = [row for _, rows in pairs for row in rows]
    if not rows:
        return np.empty(0)
    ref = pairs[0][0]
    step = max(1, XCORR_BLOCK_VALUES // ref.spectra.shape[1])
    return np.concatenate([
        _correlation_block(refs[i:i + step],
                           centred_rows(np.array(rows[i:i + step]),
                                        ref.max_shift))
        for i in range(0, len(rows), step)])


def _correlation_block(refs, b: CentredRows) -> np.ndarray:
    # cross_correlations of the rows of b against the (CentredRows, row)
    # reference rows in refs.
    max_shift, (count, n) = b.max_shift, b.x.shape
    xa = [r.x[i] for r, i in refs]
    ea = np.array([r.energy[i] for r, i in refs])
    eb = b.energy
    best = np.full(count, -np.inf)
    exact = np.ones(count, dtype=bool)
    if n - max_shift > XCORR_FULL_MODE_MAX_OVERLAP:
        nfft = 2 * (b.spectra.shape[1] - 1)
        lags = np.arange(-max_shift, max_shift + 1)
        with np.errstate(all="ignore"):
            products = np.array([r.spectra[i] for r, i in refs])
            products *= np.conjugate(b.spectra)
            f = np.fft.irfft(products, nfft, axis=1)[:, lags % nfft]
            scale = np.sqrt(ea) * np.sqrt(eb)
            bound = (XCORR_SCREEN_MARGIN * 2.0 ** -53 * scale
                     * (n + (21.0 * np.log2(nfft) + 4.0) * np.sqrt(n)))
            # The screen needs normal energies, no overflow in any sum and
            # finite FFT values; the other rows are computed at every lag.
            tiny = np.finfo(float).tiny
            screened = ((ea >= tiny) & (eb >= tiny) & (scale <= 2.0 ** 1022)
                        & np.isfinite(f).all(axis=1))
            keep = f >= (f.max(axis=1) - 2.0 * bound)[:, None]
        keep &= screened[:, None]
        for i, j in zip(*np.nonzero(keep)):
            best[i] = max(best[i], _lag_product(xa[i], b.x[i], lags[j]))
        exact = ~screened
    zero = (ea == 0.0) | (eb == 0.0)
    for i in np.flatnonzero(exact & ~zero):
        best[i] = _kept_lags(xa[i], b.x[i], max_shift).max()
    with np.errstate(all="ignore"):
        rho = best / np.sqrt(ea * eb)
    # min(1.0, max(-1.0, rho)), NaN included
    rho = np.where(rho > -1.0, rho, -1.0)
    rho = np.where(rho < 1.0, rho, 1.0)
    rho[zero] = np.nan
    return rho


def _lag_product(xa: np.ndarray, xb: np.ndarray, k: int) -> float:
    # np.correlate of the samples that overlap at lag k: the sum over i of
    # xa[i + k] * xb[i].
    n = xa.size
    if k < 0:
        return np.correlate(xa[:n + k], xb[-k:])[0]
    return np.correlate(xa[k:], xb[:n - k])[0]


def _kept_lags(xa: np.ndarray, xb: np.ndarray, max_shift: int) -> np.ndarray:
    """``np.correlate(xa, xb, "full")`` at the lags -max_shift..max_shift
    that exist, bit for bit, for two arrays of one length.

    Each lag k is one ``np.correlate`` of the overlapping samples, so the
    cost grows with the length times the lag count instead of its square.
    The full mode itself is computed instead when the smallest overlap is
    ``XCORR_FULL_MODE_MAX_OVERLAP`` samples or fewer, where the two differ.
    """
    n = xa.size
    if n - max_shift <= XCORR_FULL_MODE_MAX_OVERLAP:
        full = np.correlate(xa, xb, mode="full")
        return full[max(0, n - 1 - max_shift):n + max_shift]
    return np.array([_lag_product(xa, xb, k)
                     for k in range(-max_shift, max_shift + 1)])


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
