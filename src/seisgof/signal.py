"""Waveform containers and the sampling/filtering primitives every metric consumes.

All operations are pure: they return new containers and never mutate their
inputs, so they are safe to call from concurrent workers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class Unit(enum.Enum):
    """Physical unit of a trace. Integration promotes, differentiation demotes."""

    ACCELERATION = "m/s2"
    VELOCITY = "m/s"
    DISPLACEMENT = "m"


_PROMOTE = {Unit.ACCELERATION: Unit.VELOCITY, Unit.VELOCITY: Unit.DISPLACEMENT}


class UnitError(ValueError):
    """Operands carry incompatible units, or the unit chain has no successor."""


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real-valued waveform.

    ``dt`` is the sample interval in seconds, ``t0`` the time of the first
    sample. Samples must be finite and there must be at least two of them.
    """

    dt: float
    t0: float
    samples: np.ndarray
    unit: Unit

    def __post_init__(self):
        if not isinstance(self.unit, Unit):
            raise UnitError(f"unknown unit: {self.unit!r}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("samples must be a 1-D array with at least 2 values")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or Inf")
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return (self.n - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n) * self.dt

    def with_samples(self, samples, unit: Unit | None = None) -> "TimeSeries":
        """New series on the same grid; optionally with a different unit."""
        return TimeSeries(self.dt, self.t0, samples,
                          self.unit if unit is None else unit)


COMPONENTS = ("ew", "ns", "ud")


@dataclass(frozen=True)
class Record3C:
    """Three-component record (EW, NS, UD) sharing one sampling grid and unit."""

    ew: TimeSeries
    ns: TimeSeries
    ud: TimeSeries
    station_id: str = ""
    epicentral_distance: float | None = None

    def __post_init__(self):
        for name in ("ns", "ud"):
            ts = getattr(self, name)
            if ts.dt != self.ew.dt or ts.t0 != self.ew.t0 or ts.n != self.ew.n:
                raise ValueError(f"component {name} is not on the ew grid")
            if ts.unit is not self.ew.unit:
                raise UnitError(f"component {name} unit differs from ew")

    @property
    def dt(self) -> float:
        return self.ew.dt

    @property
    def unit(self) -> Unit:
        return self.ew.unit

    def components(self):
        """Iterate ``(name, series)`` pairs in EW, NS, UD order."""
        for name in COMPONENTS:
            yield name, getattr(self, name)


@dataclass(frozen=True)
class Spectrum:
    """One-sided amplitude spectrum on an ascending frequency grid."""

    freqs: np.ndarray
    amplitudes: np.ndarray
    smoothing: str = "none"

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=float)
        if freqs.shape != amps.shape or freqs.ndim != 1:
            raise ValueError("freqs and amplitudes must be 1-D arrays of equal length")
        if freqs.size and np.any(np.diff(freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")
        if np.any(amps < 0):
            raise ValueError("amplitudes must be non-negative")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "amplitudes", amps)


def require_same_unit(a: TimeSeries, b: TimeSeries) -> None:
    if a.unit is not b.unit:
        raise UnitError(f"unit mismatch: {a.unit.value} vs {b.unit.value}")


def require_same_grid(a: TimeSeries, b: TimeSeries) -> None:
    require_same_unit(a, b)
    if a.dt != b.dt or a.t0 != b.t0 or a.n != b.n:
        raise ValueError("traces are not on a common grid; align() them first")


def detrend(ts: TimeSeries, mode: str = "linear") -> TimeSeries:
    """Remove the mean (``mode='mean'``) or a least-squares line (``'linear'``)."""
    x = ts.samples
    if mode == "mean":
        out = x - x.mean()
    elif mode == "linear":
        t = np.arange(x.size, dtype=float)
        slope, intercept = np.polyfit(t, x, 1)
        out = x - (slope * t + intercept)
    else:
        raise ValueError(f"unknown detrend mode: {mode!r}")
    return ts.with_samples(out)


def tukey_window(n: int, fraction: float) -> np.ndarray:
    """Symmetric cosine taper; ``fraction`` is the tapered share at each end.

    Equal bit for bit to ``scipy.signal.windows.tukey(n, 2 * fraction)``.
    """
    alpha = 2.0 * fraction
    if n <= 1 or alpha <= 0:
        return np.ones(n)
    if alpha >= 1.0:  # Hann
        return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n))
    k = np.arange(0, n, dtype=float)
    width = int(np.floor(alpha * (n - 1) / 2.0))
    head = k[0:width + 1]
    tail = k[n - width - 1:]
    return np.concatenate((
        0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * head / alpha / (n - 1)))),
        np.ones(n - 2 * width - 2),
        0.5 * (1 + np.cos(np.pi * (-2.0 / alpha + 1
                                   + 2.0 * tail / alpha / (n - 1))))))


def bandpass(ts: TimeSeries, f_lo: float, f_hi: float, order: int = 4,
             zero_phase: bool = True) -> TimeSeries:
    """Butterworth band-pass. Zero-phase runs forward-backward (doubled order)."""
    return bandpass_bank([ts], [(f_lo, f_hi)], order, zero_phase)[0][0]


def bandpass_bank(traces, edges, order: int = 4,
                  zero_phase: bool = True) -> list[list[TimeSeries]]:
    """:func:`bandpass` of every trace in every band, in batched passes.

    All traces must share one grid; a batch may hold the traces of many
    records. Returns ``out[i][j]``, trace ``i`` filtered in band
    ``edges[j]``, equal bit for bit to ``scipy.signal.sosfiltfilt`` (or
    ``sosfilt`` when ``zero_phase`` is false) with
    ``scipy.signal.butter``'s second-order sections. Every row takes the
    same arithmetic whatever its batch-mates, so a trace's output does not
    depend on the batch it is filtered in. One pass takes at most
    :data:`BANK_MAX_VALUES` samples; a bigger bank runs in slices of rows.
    """
    traces, edges = list(traces), list(edges)
    if not traces:
        raise ValueError("at least one trace is required")
    first = traces[0]
    for ts in traces:
        require_same_grid(first, ts)
    nyquist = 0.5 / first.dt
    for f_lo, f_hi in edges:
        if not 0.0 < f_lo < f_hi < nyquist:
            raise ValueError(f"band [{f_lo}, {f_hi}] Hz outside (0, "
                             f"{nyquist:g}) Hz for dt={first.dt}")
    if not edges:
        return [[] for _ in traces]
    designs = np.stack([_butter_sos(f_lo, f_hi, first.dt, order)
                        for f_lo, f_hi in edges])
    zi = (np.stack([_sosfilt_zi(d) for d in designs]) if zero_phase
          else np.zeros(designs.shape[:2] + (2,)))
    filt = _sosfiltfilt if zero_phase else _sosfilt
    x = np.stack([ts.samples for ts in traces])
    # Row r holds trace r // len(edges) in band r % len(edges).
    pairs = np.arange(x.shape[0] * len(edges))
    step = max(1, BANK_MAX_VALUES // first.n)
    y = []
    for r in range(0, pairs.size, step):
        trace, band = np.divmod(pairs[r:r + step], len(edges))
        y.extend(filt(designs[band], x[trace], zi[band]))
    rows = iter(y)
    return [[ts.with_samples(next(rows)) for _ in edges] for ts in traces]


# Most samples (rows x samples) one filter pass takes. A pass holds about
# four arrays of that size, so 2**21 samples keep it near 64 MB; rows are
# independent, so slicing a bank changes no bit.
BANK_MAX_VALUES = 2 ** 21


@lru_cache(maxsize=64)
def _butter_sos(f_lo: float, f_hi: float, dt: float, order: int) -> np.ndarray:
    """``scipy.signal.butter(order, [f_lo, f_hi], btype="bandpass",
    fs=1/dt, output="sos")``, bit for bit.

    scipy's path is kept step by step in its operation order: the analog
    prototype, pre-warping, the low-pass to band-pass and bilinear
    transforms, and "nearest" pairing into sections. Only the branches a
    band-pass design reaches are ported: every zero lies at +1 or -1, and
    the poles are conjugate pairs plus, for odd orders with wide bands,
    two real poles. A sweep filters every record in the same handful of
    bands, so designs are cached.
    """
    if int(order) != order or order < 1:
        raise ValueError(f"filter order must be a positive integer, "
                         f"got {order}")
    order = int(order)
    fs = 1.0 / dt
    wn = np.asarray([f_lo, f_hi], dtype=float) / (fs / 2)
    # Analog low-pass prototype, pre-warped band edges.
    m = np.arange(-order + 1, order, 2, dtype=float)
    p = -np.exp(1j * np.pi * m / (2 * order))
    warped = 2 * 2.0 * np.tan(np.pi * wn / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    # Low-pass to band-pass: each pole splits in two, order zeros at 0.
    p = p * bw / 2
    p = np.concatenate((p + np.sqrt(p ** 2 - wo ** 2),
                        p - np.sqrt(p ** 2 - wo ** 2)))
    z = np.zeros(order, dtype=complex)
    k = 1.0 * bw ** order
    # Bilinear transform at fs = 2: zeros at 0 map to +1, those at
    # infinity to -1.
    p_z = (4.0 + p) / (4.0 - p)
    k = k * np.real(np.prod(4.0 - z) / np.prod(4.0 - p))
    zeros = np.concatenate((-np.ones(order), np.ones(order)))
    # One pole of each conjugate pair (the averaged upper one), then the
    # real poles, each sorted by real part.
    p_z = p_z[np.lexsort((abs(p_z.imag), p_z.real))]
    real = abs(p_z.imag) <= 100 * np.finfo(float).eps * abs(p_z)
    upper = p_z[~real & (p_z.imag > 0)]
    lower = p_z[~real & (p_z.imag < 0)]
    poles = np.concatenate(((upper + lower.conj()) / 2, p_z[real].real))
    sos = np.zeros((order, 6))
    # Sections from last to first take the pole nearest the unit circle
    # and the two zeros nearest that pole.
    for si in range(order - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(poles)))
        p1 = poles[i]
        poles = np.delete(poles, i)
        if np.isreal(p1):
            reals = np.flatnonzero(np.isreal(poles))
            i = reals[np.argmin(np.abs(1 - np.abs(poles[reals])))]
            p2 = poles[i]
            poles = np.delete(poles, i)
        else:
            p2 = p1.conj()
        pair = []
        for _ in range(2):
            i = np.argsort(np.abs(zeros - p1))[0]
            pair.append(zeros[i])
            zeros = np.delete(zeros, i)
        sos[si, :3] = _poly(np.asarray(pair))
        sos[si, 3:] = np.real(_poly(np.asarray([p1, p2])))
    sos[0][:3] *= k
    sos.flags.writeable = False
    return sos


def _poly(roots: np.ndarray) -> np.ndarray:
    # Monic polynomial with the given roots, by scipy's convolution loop.
    a = np.ones((1,), dtype=roots.dtype)
    for r in roots:
        a = np.convolve(a, np.stack((np.ones_like(r), -r)), mode="full")
    return a


def _sosfilt_zi(sos: np.ndarray) -> np.ndarray:
    # scipy.signal.sosfilt_zi: each section's steady state for a unit
    # step, scaled by the DC gain of the sections before it.
    zi = np.empty((sos.shape[0], 2))
    scale = 1.0
    for s, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        i_minus_a = np.array([[1.0 + a[1], -1.0], [a[2], 1.0]])
        zi[s] = scale * np.linalg.solve(i_minus_a, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


def _sosfiltfilt(sos: np.ndarray, x: np.ndarray,
                 zi: np.ndarray) -> np.ndarray:
    # scipy.signal.sosfiltfilt per row: odd extension of 3 * ntaps
    # samples, a forward pass started at the steady state of the first
    # sample, and a backward pass started at that of the last output.
    edge = 3 * (2 * sos.shape[1] + 1)
    if x.shape[1] <= edge:
        raise ValueError("The length of the input vector x must be greater "
                         f"than padlen, which is {edge}.")
    ext = np.concatenate((2 * x[:, :1] - x[:, edge:0:-1], x,
                          2 * x[:, -1:] - x[:, -2:-(edge + 2):-1]), axis=1)
    y = _sosfilt(sos, ext, zi * ext[:, :1, None])
    y = _sosfilt(sos, y[:, ::-1], zi * y[:, -1:, None])
    return y[:, ::-1][:, edge:-edge]


def _sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """Cascaded second-order sections run along every row of ``x``.

    ``sos`` is (rows, sections, 6) with a0 = 1 and ``zi`` (rows, sections,
    2) the initial state. Every row takes scipy's ``sosfilt`` transposed
    direct form II step with the same association:
    ``y = b0*x + z0; z0 = b1*x - a1*y + z1; z1 = b2*x - a2*y``.
    """
    rows, n = x.shape
    ns = sos.shape[1]
    steps = n + ns - 1
    # w[j, s] holds the input of section s at sample k0 + j - s in the
    # block of steps from k0: at step k0 + j every section reads row j
    # and writes its output to row j + 1, so one step advances all
    # sections of all rows. Column ns is the filter's output. Only one
    # block of this wavefront is held; its last row starts the next.
    block = min(steps, _SOSFILT_BLOCK)
    w = np.zeros((block + 1, ns + 1, rows))
    xin, yout = w[:, :ns], w[1:, 1:]
    out = np.empty((rows, n))
    b = np.ascontiguousarray(sos[..., :3].transpose(2, 1, 0))
    a = np.ascontiguousarray(sos[..., 4:].transpose(2, 1, 0))
    zi = zi.transpose(2, 1, 0)
    bx, ay = np.empty_like(b), np.empty_like(a)
    bx0, bx12 = bx[0], bx[1:]
    # The state alternates between two buffers, (buffer, z0, z1) each.
    z, z_next = ((buf, buf[0], buf[1]) for buf in (zi.copy(), zi.copy()))
    for k0 in range(0, steps, block):
        m = min(block, steps - k0)
        fed = min(m, max(0, n - k0))
        w[:fed, 0] = x[:, k0:k0 + fed].T
        w[fed:m, 0] = 0.0
        for j in range(m):
            y = yout[j]
            np.multiply(b, xin[j], out=bx)
            np.add(bx0, z[1], out=y)
            np.multiply(a, y, out=ay)
            np.subtract(bx12, ay, out=z_next[0])
            np.add(z_next[1], z[2], out=z_next[1])
            z, z_next = z_next, z
            if k0 + j < ns - 1:
                # Sections above this step have not reached their first
                # sample, so they keep their initial state.
                z[0][:, k0 + j + 1:] = zi[:, k0 + j + 1:]
        # Row j of the block, j >= 1, ends output sample k0 + j - ns.
        lo = max(1, ns - k0)
        out[:, k0 + lo - ns:k0 + m + 1 - ns] = w[lo:m + 1, ns].T
        w[0, 1:] = w[m, 1:]
    return out


# Steps of the filter wavefront held at once.
_SOSFILT_BLOCK = 256


def integrate(ts: TimeSeries) -> TimeSeries:
    """Cumulative trapezoidal integral starting at 0; promotes the unit."""
    if ts.unit not in _PROMOTE:
        raise UnitError("cannot integrate a displacement trace (no unit above)")
    return ts.with_samples(cumulative_trapezoid(ts.samples, ts.dt),
                           unit=_PROMOTE[ts.unit])


def cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoidal integral of ``y`` from 0, one value per sample;
    ``scipy.integrate.cumulative_trapezoid(y, dx=dx, initial=0)``."""
    return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))


def fourier_amplitude(ts: TimeSeries, smoothing_octaves: float = 0.0) -> Spectrum:
    """One-sided Fourier amplitude |X(f)|*dt, optionally boxcar-smoothed in log-f."""
    amp = np.abs(np.fft.rfft(ts.samples)) * ts.dt
    freqs = np.fft.rfftfreq(ts.n, ts.dt)
    smoothing = "none"
    if smoothing_octaves > 0.0:
        amp = _smooth_log_boxcar(freqs, amp, smoothing_octaves)
        smoothing = f"log-boxcar {smoothing_octaves:g} octaves"
    return Spectrum(freqs, amp, smoothing)


def _smooth_log_boxcar(freqs, amp, width_octaves):
    # Boxcar average over [f/2^(w/2), f*2^(w/2)]; the DC bin is left untouched.
    half = 2.0 ** (width_octaves / 2.0)
    csum = np.concatenate([[0.0], np.cumsum(amp)])
    lo = np.searchsorted(freqs, freqs / half, side="left")
    hi = np.searchsorted(freqs, freqs * half, side="right")
    lo = np.maximum(lo, 1)
    counts = hi - lo
    out = amp.copy()
    idx = np.arange(freqs.size)
    valid = (counts > 0) & (idx >= 1)
    out[valid] = (csum[hi] - csum[lo])[valid] / counts[valid]
    return out


def align(a: TimeSeries, b: TimeSeries) -> tuple[TimeSeries, TimeSeries]:
    """Resample both traces (linear interpolation) onto the finer grid over
    their common time window. Raises if the windows do not overlap."""
    require_same_unit(a, b)
    start = max(a.t0, b.t0)
    end = min(a.t0 + a.duration, b.t0 + b.duration)
    dt = min(a.dt, b.dt)
    n = int(np.floor((end - start) / dt + 1e-9)) + 1
    if n < 2:
        raise ValueError("traces do not overlap")
    t = start + np.arange(n) * dt
    ra = np.interp(t, a.times, a.samples)
    rb = np.interp(t, b.times, b.samples)
    return (TimeSeries(dt, start, ra, a.unit),
            TimeSeries(dt, start, rb, b.unit))


def align_records(rec: Record3C, sim: Record3C) -> tuple[Record3C, Record3C]:
    """Component-wise :func:`align` of two records onto one shared grid."""
    out_r, out_s = {}, {}
    for name in COMPONENTS:
        out_r[name], out_s[name] = align(getattr(rec, name), getattr(sim, name))
    return (Record3C(**out_r, station_id=rec.station_id,
                     epicentral_distance=rec.epicentral_distance),
            Record3C(**out_s, station_id=sim.station_id,
                     epicentral_distance=sim.epicentral_distance))
