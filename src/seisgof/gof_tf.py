"""Time-frequency envelope/phase misfits and their goodness-of-fit mapping.

Both traces are decomposed with a continuous wavelet transform (analytic
Morlet). With W_ref and W_sim the two planes and max taken over the whole
plane, the globally normalized misfits are

    TFEM(t, f) = (|W_sim| - |W_ref|) / max|W_ref|
    TFPM(t, f) = |W_ref| * Arg(W_sim * conj(W_ref)) / (pi * max|W_ref|)

with time/frequency marginals as envelope-weighted projections and EM, PM as
globally normalized RMS values. GOF = A * exp(-k * |misfit|) maps every
misfit onto the 0-10 scale (10 = perfect agreement).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .signal import Record3C, TimeSeries, require_same_grid, tukey_window


def log_freqs(f_min: float = 0.05, f_max: float = 10.0, n: int = 40) -> np.ndarray:
    """Log-spaced analysis frequency grid."""
    if not 0 < f_min < f_max or n < 2:
        raise ValueError("need 0 < f_min < f_max and n >= 2")
    return np.logspace(np.log10(f_min), np.log10(f_max), n)


@dataclass
class TfConfig:
    f_min: float = 0.05
    f_max: float = 10.0
    n_freqs: int = 40
    wavelet_omega0: float = 6.0
    amplitude: float = 10.0  # GOF for perfect agreement
    decay: float = 1.0       # sensitivity of GOF to the misfit

    def freqs(self) -> np.ndarray:
        return log_freqs(self.f_min, self.f_max, self.n_freqs)


def cwt(ts: TimeSeries, freqs: np.ndarray, wavelet_omega0: float = 6.0,
        taper_fraction: float = 0.05) -> np.ndarray:
    """Continuous wavelet transform with the analytic Morlet wavelet.

    Returns the complex coefficients as an (n_times, n_freqs) array, one
    column per frequency of ``freqs``, which must be strictly increasing.
    Scales are L2-normalized (1/sqrt(a)); the signal is cosine-tapered and
    zero-padded before the FFT-based convolution.
    """
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size == 0:
        raise ValueError("frequency grid is empty")
    nyquist = 0.5 / ts.dt
    if freqs.min() <= 0 or freqs.max() >= nyquist:
        raise ValueError(f"frequencies must lie in (0, {nyquist:g}) Hz")
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("freqs must be strictly increasing")

    x = ts.samples
    if taper_fraction > 0:
        x = x * tukey_window(ts.n, taper_fraction)
    n = x.size
    dt = ts.dt
    spectra = _morlet_spectra(n, dt, freqs.tobytes(), wavelet_omega0)
    xf = np.fft.fft(x, n=spectra.shape[1])
    t_mid = (n - 1) * dt / 2.0
    i0 = int(t_mid / dt)

    coeff = np.empty((n, freqs.size), dtype=complex)
    for j, kernel_f in enumerate(spectra):
        # One inverse FFT per frequency: a batched one changes the last
        # digits of the coefficients.
        coeff[:, j] = np.fft.ifft(kernel_f * xf)[i0:i0 + n] * dt
    return coeff


@lru_cache(maxsize=1)
def _morlet_spectra(n: int, dt: float, freqs: bytes,
                    wavelet_omega0: float) -> np.ndarray:
    # FFTs of the scaled, conjugated Morlet kernels, one row per frequency,
    # centered on an n-sample grid. Every trace of a record, and of a
    # sweep's records, shares the grid, so they are kept for the last one.
    t = np.arange(n) * dt
    t_mid = t[-1] / 2.0
    nfft = 2 ** int(np.ceil(np.log2(n))) * 2
    freqs = np.frombuffer(freqs)
    spectra = np.empty((freqs.size, nfft), dtype=complex)
    for j, f in enumerate(freqs):
        scale = wavelet_omega0 / (2.0 * np.pi * f)
        arg = -(t - t_mid) / scale
        psi = (np.pi ** -0.25) * np.exp(1j * wavelet_omega0 * arg
                                        - arg ** 2 / 2.0)
        kernel = np.conj(psi) / np.sqrt(scale)
        spectra[j] = np.fft.fft(kernel, n=nfft)
    spectra.flags.writeable = False
    return spectra


@dataclass(frozen=True)
class TfMisfits:
    """Envelope/phase misfits: plane (tfem/tfpm), marginals, and globals."""

    times: np.ndarray
    freqs: np.ndarray
    tfem: np.ndarray
    tfpm: np.ndarray
    tem: np.ndarray
    tpm: np.ndarray
    fem: np.ndarray
    fpm: np.ndarray
    em: float
    pm: float


def tf_misfits(ref: TimeSeries, sim: TimeSeries,
               freqs: np.ndarray | None = None, *,
               wavelet_omega0: float = 6.0,
               taper_fraction: float = 0.05) -> TfMisfits:
    """All eight misfits of ``sim`` against the reference trace."""
    require_same_grid(ref, sim)  # reported before a silent reference
    return tf_reference(ref, freqs, wavelet_omega0=wavelet_omega0,
                        taper_fraction=taper_fraction).misfits(sim)


@dataclass(frozen=True)
class TfReference:
    """What the misfits need from one reference trace: its wavelet plane,
    the envelope of that plane and the envelope's normalizers."""

    trace: TimeSeries
    freqs: np.ndarray
    wavelet_omega0: float
    taper_fraction: float
    coefficients: np.ndarray
    envelope: np.ndarray
    env_max: float
    t_norm: float
    f_norm: float
    energy: float

    def misfits(self, sim: TimeSeries) -> TfMisfits:
        """All eight misfits of ``sim``, which must share the trace's grid."""
        require_same_grid(self.trace, sim)
        w_ref, env_ref = self.coefficients, self.envelope
        w_sim = cwt(sim, self.freqs, self.wavelet_omega0, self.taper_fraction)
        env_diff = np.abs(w_sim) - env_ref
        # Arg(W_sim * conj(W_ref)) in [-pi, pi], weighted by the reference
        # envelope. The cross product is assembled from separate array ops
        # so a real rescaling of the signal cancels exactly (no fused
        # contraction).
        re = w_sim.real * w_ref.real + w_sim.imag * w_ref.imag
        im = w_sim.imag * w_ref.real - w_sim.real * w_ref.imag
        dphi = np.arctan2(im, re)
        phase_w = env_ref * dphi / np.pi

        tfem = env_diff / self.env_max
        tfpm = phase_w / self.env_max
        tem = env_diff.sum(axis=1) / self.t_norm
        tpm = phase_w.sum(axis=1) / self.t_norm
        fem = env_diff.sum(axis=0) / self.f_norm
        fpm = phase_w.sum(axis=0) / self.f_norm
        em = float(np.sqrt((env_diff ** 2).sum() / self.energy))
        pm = float(np.sqrt((phase_w ** 2).sum() / self.energy))
        return TfMisfits(times=self.trace.times, freqs=self.freqs,
                         tfem=tfem, tfpm=tfpm, tem=tem, tpm=tpm, fem=fem,
                         fpm=fpm, em=em, pm=pm)


def tf_reference(ref: TimeSeries, freqs: np.ndarray | None = None, *,
                 wavelet_omega0: float = 6.0,
                 taper_fraction: float = 0.05) -> TfReference:
    """Prepare one reference trace for :meth:`TfReference.misfits`."""
    if not np.any(ref.samples):
        raise ValueError("reference trace is identically zero; "
                         "misfit normalization is undefined")
    if freqs is None:
        freqs = log_freqs()
    freqs = np.asarray(freqs, float)
    w_ref = cwt(ref, freqs, wavelet_omega0, taper_fraction)
    env_ref = np.abs(w_ref)
    return TfReference(
        trace=ref, freqs=freqs, wavelet_omega0=wavelet_omega0,
        taper_fraction=taper_fraction, coefficients=w_ref, envelope=env_ref,
        env_max=env_ref.max(), t_norm=env_ref.sum(axis=1).max(),
        f_norm=env_ref.sum(axis=0).max(), energy=(env_ref ** 2).sum())


@dataclass(frozen=True)
class TfGof:
    """All misfits mapped onto the 0-10 goodness-of-fit scale."""

    times: np.ndarray
    freqs: np.ndarray
    eg: float
    pg: float
    teg: np.ndarray
    tpg: np.ndarray
    feg: np.ndarray
    fpg: np.ndarray
    tfeg: np.ndarray
    tfpg: np.ndarray

    def __post_init__(self):
        for name in ("eg", "pg"):
            v = getattr(self, name)
            if not 0.0 <= v <= 10.0:
                raise ValueError(f"{name}={v} outside [0, 10]")
        for name in ("teg", "tpg", "feg", "fpg", "tfeg", "tfpg"):
            arr = np.asarray(getattr(self, name))
            if arr.size and (arr.min() < 0.0 or arr.max() > 10.0):
                raise ValueError(f"{name} has values outside [0, 10]")


def to_gof(misfits: TfMisfits, amplitude: float = 10.0,
           decay: float = 1.0) -> TfGof:
    """Map misfits elementwise with G = A * exp(-k * |M|)."""
    def g(m):
        return amplitude * np.exp(-decay * np.abs(m))

    return TfGof(times=misfits.times, freqs=misfits.freqs,
                 eg=float(g(misfits.em)), pg=float(g(misfits.pm)),
                 teg=g(misfits.tem), tpg=g(misfits.tpm),
                 feg=g(misfits.fem), fpg=g(misfits.fpm),
                 tfeg=g(misfits.tfem), tfpg=g(misfits.tfpm))


def tf_gof(ref: TimeSeries, sim: TimeSeries,
           config: TfConfig | None = None) -> TfGof:
    """Misfits plus GOF mapping in one call."""
    cfg = config if config is not None else TfConfig()
    misfits = tf_misfits(ref, sim, cfg.freqs(),
                         wavelet_omega0=cfg.wavelet_omega0)
    return to_gof(misfits, cfg.amplitude, cfg.decay)


def record_tf_gof(rec: Record3C, sim: Record3C,
                  config: TfConfig | None = None) -> dict[str, TfGof]:
    """Per-component TF goodness-of-fit of an aligned record pair.

    This is :func:`tf_features` of the reference followed by
    :func:`compare_tf`.
    """
    cfg = config if config is not None else TfConfig()
    # A Record3C keeps one grid and unit for all its components.
    require_same_grid(rec.ew, sim.ew)
    return compare_tf(tf_features(rec, cfg), sim, cfg)


def tf_features(rec: Record3C, config: TfConfig) -> dict[str, TfReference]:
    """:func:`tf_reference` of every component of a reference record."""
    freqs = config.freqs()
    return {name: tf_reference(ts, freqs,
                               wavelet_omega0=config.wavelet_omega0)
            for name, ts in rec.components()}


def compare_tf(features: dict[str, TfReference], sim: Record3C,
               config: TfConfig) -> dict[str, TfGof]:
    """Per-component TF goodness-of-fit of ``sim`` against prepared
    reference components."""
    return {name: to_gof(ref.misfits(getattr(sim, name)), config.amplitude,
                         config.decay)
            for name, ref in features.items()}


def write_plane_csv(path, times, freqs, values) -> Path:
    """Dense (t, f, value) CSV export of a time-frequency matrix.

    Every number is written as the ``repr`` of a Python float, the shortest
    string that reads back to the same value. Rows are streamed to the
    file one time sample at a time.
    """
    values = np.asarray(values)
    if values.shape != (len(times), len(freqs)):
        raise ValueError("matrix shape must be (n_times, n_freqs)")
    path = Path(path)
    f_cols = [f",{float(f)!r}," for f in freqs]
    with path.open("w") as fh:
        fh.write("t,f,value\n")
        for t, row in zip(times, np.asarray(values, float).tolist()):
            t_s = repr(float(t))
            fh.write("".join(f"{t_s}{f}{v!r}\n" for f, v in zip(f_cols, row)))
    return path
