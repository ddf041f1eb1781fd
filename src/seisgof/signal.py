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
    """Physical unit of a trace."""

    ACCELERATION = "m/s2"
    VELOCITY = "m/s"
    DISPLACEMENT = "m"


class UnitError(ValueError):
    """Operands carry incompatible units."""


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

    def with_samples(self, samples) -> "TimeSeries":
        """New series on the same grid and in the same unit."""
        return TimeSeries(self.dt, self.t0, samples, self.unit)


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


def require_unit(ts: TimeSeries, unit: Unit) -> None:
    if ts.unit is not unit:
        raise UnitError(f"expected a {unit.value} trace, got {ts.unit.value}")


def require_same_unit(a: TimeSeries, b: TimeSeries) -> None:
    if a.unit is not b.unit:
        raise UnitError(f"unit mismatch: {a.unit.value} vs {b.unit.value}")


def require_same_grid(a: TimeSeries, b: TimeSeries) -> None:
    require_same_unit(a, b)
    if a.dt != b.dt or a.t0 != b.t0 or a.n != b.n:
        raise ValueError("traces are not on a common grid; align() them first")


def detrend_rows(x: np.ndarray) -> np.ndarray:
    """Every row of a 2-D array less its least-squares line over the sample
    indices, in closed form about the centre index ``c = (n - 1) / 2``:
    the line passes through the row mean at ``c`` with slope
    ``sum((t - c) * (x - mean)) / sum((t - c)**2)``. Both are row-wise
    reductions, so a row's result does not depend on its batch-mates.
    The slopes and lines are formed in blocks of rows, so that the only
    array of the batch's size is the result.
    """
    n = x.shape[1]
    tc = np.arange(n) - (n - 1) / 2.0
    out = x - x.mean(axis=1, keepdims=True)
    step = max(1, _DETREND_BLOCK_VALUES // n)
    for r in range(0, len(out), step):
        part = out[r:r + step]
        slope = (part * tc).sum(axis=1, keepdims=True)
        slope /= (n - 1.0) * n * (n + 1.0) / 12.0  # sum((t - c)**2)
        part -= slope * tc
    return out


# Samples (rows x samples) per block of detrend_rows' products (512 kB).
_DETREND_BLOCK_VALUES = 2 ** 16


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
    return ts.with_samples(bandpass_bank(ts.samples[None], ts.dt,
                                         [(f_lo, f_hi)], order, zero_phase)[0])


def bandpass_bank(x: np.ndarray, dt: float, edges, order: int = 4,
                  zero_phase: bool = True) -> np.ndarray:
    """:func:`bandpass` of every row of ``x``, samples on one grid of
    interval ``dt``, in every band, in batched passes.

    A batch may hold the rows of many records. Row ``i * len(edges) + j``
    of the result is row ``i`` filtered in band ``edges[j]`` as
    ``scipy.signal.sosfiltfilt`` (or ``sosfilt`` when ``zero_phase`` is
    false) filters it with ``scipy.signal.butter``'s second-order
    sections: the same odd extension and steady-state starts, with each
    pass run as the block products of :func:`_block_filter`. These round
    differently from scipy's recurrence, and stay as close to exact
    arithmetic as it does (the per-band bounds against a long-double
    recurrence are in ``tests/test_long_double_oracles.py``). Each band's
    rows share its maps, and every row takes its own products, so a row's
    output does not depend on the batch it is filtered in. One pass takes
    at most :data:`BANK_MAX_VALUES` samples; a bigger bank runs in slices
    of rows.
    """
    edges = list(edges)
    nyquist = 0.5 / dt
    for f_lo, f_hi in edges:
        if not 0.0 < f_lo < f_hi < nyquist:
            raise ValueError(f"band [{f_lo}, {f_hi}] Hz outside (0, "
                             f"{nyquist:g}) Hz for dt={dt}")
    rows, n = x.shape
    out = np.empty((rows, len(edges), n))
    filters = [_band_filter(f_lo, f_hi, dt, order) for f_lo, f_hi in edges]
    step = max(1, BANK_MAX_VALUES // n)
    for band, (maps, zi) in enumerate(filters):
        for r in range(0, rows, step):
            part = x[r:r + step]
            out[r:r + step, band] = (
                _filtfilt(maps, zi, part) if zero_phase
                else _block_filter(maps, part, np.zeros((len(part), zi.size))))
    return out.reshape(rows * len(edges), n)


# Most samples (rows x samples) one filter pass takes. A pass holds about
# four arrays of that size, so 2**21 samples keep it near 64 MB; rows are
# independent, so slicing a bank changes no bit.
BANK_MAX_VALUES = 2 ** 21

# Samples per block of the block state-space filter.
_FILTER_BLOCK = 64


@lru_cache(maxsize=64)
def _band_filter(f_lo: float, f_hi: float, dt: float, order: int):
    # One band's block maps and steady state, built once per process and
    # shared by every caller, so read-only.
    sos = _butter_sos(f_lo, f_hi, dt, order)
    maps, zi = _block_maps(sos, _FILTER_BLOCK), _sosfilt_zi(sos).ravel()
    for m in (*maps, zi):
        m.flags.writeable = False
    return maps, zi


def _butter_sos(f_lo: float, f_hi: float, dt: float, order: int) -> np.ndarray:
    """``scipy.signal.butter(order, [f_lo, f_hi], btype="bandpass",
    fs=1/dt, output="sos")``, bit for bit.

    scipy's path is kept step by step in its operation order: the analog
    prototype, pre-warping, the low-pass to band-pass and bilinear
    transforms, and "nearest" pairing into sections. Only the branches a
    band-pass design reaches are ported: every zero lies at +1 or -1, and
    the poles are conjugate pairs plus, for odd orders with wide bands,
    two real poles.
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


def _block_maps(sos: np.ndarray, block: int):
    """Burrus's block realization of a cascade of second-order sections.

    The state ``s`` holds (z0, z1) of every section of scipy's ``sosfilt``
    transposed direct form II step. Over a block of ``block`` samples,
    with ``X`` the block's inputs as a row, the outputs are
    ``X @ t + s @ o`` and the next state is ``s @ a + X @ c``. The maps
    are formed in long double from one step of the recurrence and its
    powers, then rounded once to float64.
    """
    sos = sos.astype(np.longdouble)
    states = 2 * len(sos)
    # One step from each unit state with no input (the first rows) and
    # from the zero state with a unit input (the last row) gives the
    # output y = s @ seen + x * direct and the next state
    # s @ step + x * fed.
    z = np.eye(states + 1, states, dtype=np.longdouble)
    y = np.zeros(states + 1, dtype=np.longdouble)
    y[-1] = 1.0
    for s, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        z0, z1 = z[:, 2 * s].copy(), z[:, 2 * s + 1].copy()
        x, y = y, b0 * y + z0
        z[:, 2 * s] = b1 * x - a1 * y + z1
        z[:, 2 * s + 1] = b2 * x - a2 * y
    step, fed, seen, direct = z[:-1], z[-1], y[:-1], y[-1]
    # powers[k] = step ** k, for k = 0, ..., block.
    powers = [np.eye(states, dtype=np.longdouble)]
    for _ in range(block):
        powers.append(powers[-1] @ step)
    o = np.stack([p @ seen for p in powers[:block]], axis=1)
    impulse = np.concatenate(([direct], fed @ o[:, :block - 1]))
    lag = np.arange(block) - np.arange(block)[:, None]  # [j, k] = k - j
    t = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    c = np.stack([fed @ p for p in powers[block - 1::-1]])
    return tuple(m.astype(float) for m in (t, o, c, powers[block]))


def _block_filter(maps, x: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """One cascade pass along every row of ``x`` (rows, n) from the states
    ``s0`` (rows, 2 * sections), by the block maps of :func:`_block_maps`.

    The rows are cut into (rows, blocks, B) with a zero tail; a filter is
    causal, so the tail changes no kept output. Every row is multiplied by
    the shared maps on its own, block states included, so its output does
    not depend on its batch-mates.
    """
    t, o, c, a = maps
    rows, n = x.shape
    block = t.shape[0]
    blocks = -(-n // block)
    xb = np.zeros((rows, blocks * block))
    xb[:, :n] = x
    xb = xb.reshape(rows, blocks, block)
    fed = xb @ c
    y = xb @ t
    del xb
    # states[:, k] is the state at the start of block k.
    states = np.empty(fed.shape)
    states[:, 0] = s0
    for k in range(1, blocks):
        now = states[:, k:k + 1]
        np.matmul(states[:, k - 1:k], a, out=now)
        now += fed[:, k - 1:k]
    y += states @ o
    return y.reshape(rows, -1)[:, :n]


def _filtfilt(maps, zi: np.ndarray, x: np.ndarray) -> np.ndarray:
    # scipy.signal.sosfiltfilt per row: odd extension of 3 * ntaps
    # samples, a forward pass started at the steady state of the first
    # sample, and a backward pass started at that of the last output.
    edge = 3 * (zi.size + 1)
    if x.shape[1] <= edge:
        raise ValueError("The length of the input vector x must be greater "
                         f"than padlen, which is {edge}.")
    ext = np.concatenate((2 * x[:, :1] - x[:, edge:0:-1], x,
                          2 * x[:, -1:] - x[:, -2:-(edge + 2):-1]), axis=1)
    y = _block_filter(maps, ext, zi * ext[:, :1])
    del ext
    y = _block_filter(maps, y[:, ::-1], zi * y[:, -1:])
    return y[:, ::-1][:, edge:-edge]


def _trapezoid_steps(y: np.ndarray, dx: float) -> np.ndarray:
    # 0.0, then the steps dx * (y[1:] + y[:-1]) / 2.0 along the last axis,
    # formed in place, so a stack of rows makes no temporary of its size.
    out = np.zeros(y.shape)
    steps = out[..., 1:]
    np.add(y[..., 1:], y[..., :-1], out=steps)
    steps *= dx
    steps /= 2.0
    return out


def cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoidal integral of ``y`` from 0 along its last axis, one
    value per sample;
    ``scipy.integrate.cumulative_trapezoid(y, dx=dx, initial=0)``."""
    out = _trapezoid_steps(y, dx)
    np.cumsum(out[..., 1:], axis=-1, out=out[..., 1:])
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
