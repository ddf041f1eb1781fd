"""Waveform containers and the sampling/filtering primitives every metric consumes.

All operations are pure: they return new containers and never mutate their
inputs, so they are safe to call from concurrent workers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal as sps
from scipy.integrate import cumulative_trapezoid


class Unit(enum.Enum):
    """Physical unit of a trace. Integration promotes, differentiation demotes."""

    ACCELERATION = "m/s2"
    VELOCITY = "m/s"
    DISPLACEMENT = "m"


_PROMOTE = {Unit.ACCELERATION: Unit.VELOCITY, Unit.VELOCITY: Unit.DISPLACEMENT}
_DEMOTE = {v: k for k, v in _PROMOTE.items()}


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
    label: str = ""

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
                          self.unit if unit is None else unit, self.label)


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
    """Symmetric cosine taper; ``fraction`` is the tapered share at each end."""
    return sps.windows.tukey(n, alpha=2.0 * fraction, sym=True)


def taper(ts: TimeSeries, fraction: float = 0.05) -> TimeSeries:
    """Cosine (Tukey) taper. ``fraction=0`` is the identity, ``0.5`` a full Hann."""
    if not 0.0 <= fraction <= 0.5:
        raise ValueError(f"taper fraction must be in [0, 0.5], got {fraction}")
    if fraction == 0.0:
        return ts
    return ts.with_samples(ts.samples * tukey_window(ts.n, fraction))


def bandpass(ts: TimeSeries, f_lo: float, f_hi: float, order: int = 4,
             zero_phase: bool = True) -> TimeSeries:
    """Butterworth band-pass. Zero-phase runs forward-backward (doubled order)."""
    nyquist = 0.5 / ts.dt
    if not 0.0 < f_lo < f_hi < nyquist:
        raise ValueError(
            f"band [{f_lo}, {f_hi}] Hz outside (0, {nyquist:g}) Hz for dt={ts.dt}")
    # scipy's filter kernels need a writeable buffer, so each call filters
    # with its own copy of the shared, read-only design.
    sos = _butter_sos(f_lo, f_hi, ts.dt, order).copy()
    if zero_phase:
        out = sps.sosfiltfilt(sos, ts.samples)
    else:
        out = sps.sosfilt(sos, ts.samples)
    return ts.with_samples(out)


@lru_cache(maxsize=64)
def _butter_sos(f_lo: float, f_hi: float, dt: float, order: int) -> np.ndarray:
    # A design costs about twice a zero-phase filter pass on a short trace,
    # and a sweep filters many traces with a handful of distinct bands.
    sos = sps.butter(order, [f_lo, f_hi], btype="bandpass", fs=1.0 / dt,
                     output="sos")
    sos.flags.writeable = False
    return sos


def differentiate(ts: TimeSeries) -> TimeSeries:
    """Central differences (one-sided at the ends); demotes the unit."""
    if ts.unit not in _DEMOTE:
        raise UnitError("cannot differentiate an acceleration trace (no unit below)")
    return ts.with_samples(np.gradient(ts.samples, ts.dt), unit=_DEMOTE[ts.unit])


def integrate(ts: TimeSeries) -> TimeSeries:
    """Cumulative trapezoidal integral starting at 0; promotes the unit."""
    if ts.unit not in _PROMOTE:
        raise UnitError("cannot integrate a displacement trace (no unit above)")
    out = cumulative_trapezoid(ts.samples, dx=ts.dt, initial=0.0)
    return ts.with_samples(out, unit=_PROMOTE[ts.unit])


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
    return (TimeSeries(dt, start, ra, a.unit, a.label),
            TimeSeries(dt, start, rb, b.unit, b.label))


def align_records(rec: Record3C, sim: Record3C) -> tuple[Record3C, Record3C]:
    """Component-wise :func:`align` of two records onto one shared grid."""
    out_r, out_s = {}, {}
    for name in COMPONENTS:
        out_r[name], out_s[name] = align(getattr(rec, name), getattr(sim, name))
    return (Record3C(**out_r, station_id=rec.station_id,
                     epicentral_distance=rec.epicentral_distance),
            Record3C(**out_s, station_id=sim.station_id,
                     epicentral_distance=sim.epicentral_distance))
