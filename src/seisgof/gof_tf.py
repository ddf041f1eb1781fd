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


def log_freqs(f_min: float = 0.05, f_max: float = 10.0,
              n_freqs: int = 40) -> np.ndarray:
    """Log-spaced analysis frequency grid."""
    if not 0 < f_min < f_max or n_freqs < 2:
        raise ValueError(f"need 0 < f_min < f_max and n_freqs >= 2, got "
                         f"{f_min}, {f_max}, {n_freqs}")
    return np.logspace(np.log10(f_min), np.log10(f_max), n_freqs)


@dataclass(frozen=True)
class TfConfig:
    f_min: float = 0.05
    f_max: float = 10.0
    n_freqs: int = 40
    wavelet_omega0: float = 6.0
    amplitude: float = 10.0  # GOF for perfect agreement
    decay: float = 1.0       # sensitivity of GOF to the misfit

    def __post_init__(self):
        self.freqs()
        # With these, every mapped GOF of a finite misfit lies in [0, 10].
        if not 0 < self.amplitude <= 10:
            raise ValueError(f"amplitude={self.amplitude} outside (0, 10]")
        for name in ("decay", "wavelet_omega0"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name}={value} must be positive")

    def freqs(self) -> np.ndarray:
        return log_freqs(self.f_min, self.f_max, self.n_freqs)


# Complex values per inverse-FFT block of cwt (1 MB): all 40 frequency rows
# of a 1,215-point FFT (601 samples), 7 rows of a 9,216-point one (4,501).
CWT_BLOCK_VALUES = 2 ** 16


def cwt(ts: TimeSeries, freqs: np.ndarray, wavelet_omega0: float = 6.0,
        taper_fraction: float = 0.05) -> np.ndarray:
    """Continuous wavelet transform with the analytic Morlet wavelet.

    Returns the complex coefficients as a C-contiguous (n_times, n_freqs)
    array, one column per frequency of ``freqs``, which must be strictly
    increasing. Scales are L2-normalized (1/sqrt(a)); the signal is
    cosine-tapered, and the convolution with each kernel is the linear one,
    taken by FFTs of the smallest 2·3·5-smooth length of at least
    ``2 * n - 1`` samples. Row ``i`` of the plane is the kernel centred on
    sample ``i``.
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
    i0 = (n - 1) // 2  # the kernels' centre sample

    # One inverse FFT per block of frequency rows, written into a
    # C-contiguous plane. The values match one ifft per frequency bit for
    # bit, but the plane must stay C-ordered: an F-ordered one changes the
    # pairwise summation order of the sums behind EG and PG.
    nfft = spectra.shape[1]
    rows = max(1, min(freqs.size, CWT_BLOCK_VALUES // nfft))
    buffer = np.empty((rows, nfft), dtype=complex)
    coeff = np.empty((n, freqs.size), dtype=complex)
    for j0 in range(0, freqs.size, rows):
        k = min(rows, freqs.size - j0)
        block = buffer[:k]
        np.multiply(spectra[j0:j0 + k], xf, out=block)
        np.fft.ifft(block, axis=1, out=block)
        np.multiply(block[:, i0:i0 + n], dt, out=coeff[:, j0:j0 + k].T)
    return coeff


def _fft_length(m: int) -> int:
    # The smallest 2·3·5-smooth length, 2**a * 3**b * 5**c, of at least m.
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


@lru_cache(maxsize=1)
def _morlet_spectra(n: int, dt: float, freqs: bytes,
                    wavelet_omega0: float) -> np.ndarray:
    # FFTs of the scaled, conjugated Morlet kernels, one row per frequency,
    # centered on an n-sample grid. Every trace of a record, and of a
    # sweep's records, shares the grid, so they are kept for the last one.
    t = np.arange(n) * dt
    t_mid = t[-1] / 2.0
    nfft = _fft_length(2 * n - 1)
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


def _mapped(config: TfConfig, misfit):
    # G = A * exp(-k * |M|); in [0, A] for every finite misfit.
    return config.amplitude * np.exp(-config.decay * np.abs(misfit))


@dataclass(frozen=True)
class TfGof:
    """All misfits mapped onto the 0-10 goodness-of-fit scale.

    ``eg`` and ``pg`` are computed with the misfits, and a value outside
    [0, 10] (NaN included) is rejected. The marginal GOFs ``teg``,
    ``tpg`` (per time) and ``feg``, ``fpg`` (per frequency) and the plane
    GOFs ``tfeg`` and ``tfpg`` are mapped from the two misfit planes each
    time they are read, as a new array; a sweep reads only EG and PG.
    :class:`TfConfig` bounds the amplitude to (0, 10], so every finite
    misfit maps into [0, 10].
    """

    times: np.ndarray
    freqs: np.ndarray
    eg: float
    pg: float
    env_diff: np.ndarray  # |W_sim| - |W_ref|
    phase_w: np.ndarray   # |W_ref| * Arg(W_sim * conj(W_ref)) / pi
    # The reference's config and envelope normalizers (TfReference).
    config: TfConfig
    env_max: float
    t_norm: float
    f_norm: float

    def __post_init__(self):
        for name in ("eg", "pg"):
            v = getattr(self, name)
            if not 0.0 <= v <= 10.0:
                raise ValueError(f"{name}={v} outside [0, 10]")

    @property
    def teg(self) -> np.ndarray:
        return _mapped(self.config, self.env_diff.sum(axis=1) / self.t_norm)

    @property
    def tpg(self) -> np.ndarray:
        return _mapped(self.config, self.phase_w.sum(axis=1) / self.t_norm)

    @property
    def feg(self) -> np.ndarray:
        return _mapped(self.config, self.env_diff.sum(axis=0) / self.f_norm)

    @property
    def fpg(self) -> np.ndarray:
        return _mapped(self.config, self.phase_w.sum(axis=0) / self.f_norm)

    @property
    def tfeg(self) -> np.ndarray:
        return _mapped(self.config, self.env_diff / self.env_max)

    @property
    def tfpg(self) -> np.ndarray:
        return _mapped(self.config, self.phase_w / self.env_max)


@dataclass(frozen=True)
class TfReference:
    """What the GOF needs from one reference trace: the config it was
    prepared with, its wavelet plane, the envelope of that plane and the
    envelope's normalizers."""

    trace: TimeSeries
    config: TfConfig
    freqs: np.ndarray
    coefficients: np.ndarray
    envelope: np.ndarray
    env_max: float
    t_norm: float
    f_norm: float
    energy: float

    def gof(self, sim: TimeSeries) -> TfGof:
        """The TF goodness-of-fit of ``sim``, which must share the trace's
        grid: EG and PG, and the two misfit planes that the other six GOFs
        are mapped from when read, all with G = A * exp(-k * |M|)."""
        require_same_grid(self.trace, sim)
        cfg, w_ref, env_ref = self.config, self.coefficients, self.envelope
        w_sim = cwt(sim, self.freqs, cfg.wavelet_omega0)
        # Arg(W_sim * conj(W_ref)) in [-pi, pi], weighted by the reference
        # envelope. The cross product is assembled from separate array ops
        # so a real rescaling of the signal cancels exactly (no fused
        # contraction). Its products go into three planes, and the phase
        # into the real part's, so at most five planes are held at once.
        re = np.multiply(w_sim.real, w_ref.real)
        im = np.multiply(w_sim.imag, w_ref.real)
        part = np.multiply(w_sim.imag, w_ref.imag)
        re += part
        np.multiply(w_sim.real, w_ref.imag, out=part)
        im -= part
        del part
        env_diff = np.abs(w_sim)
        env_diff -= env_ref
        del w_sim  # freed before the phase plane is formed
        phase_w = np.arctan2(im, re, out=re)
        del im
        phase_w *= env_ref
        phase_w /= np.pi
        return TfGof(
            times=self.trace.times, freqs=self.freqs,
            eg=float(_mapped(cfg, np.sqrt((env_diff ** 2).sum()
                                          / self.energy))),
            pg=float(_mapped(cfg, np.sqrt((phase_w ** 2).sum()
                                          / self.energy))),
            env_diff=env_diff, phase_w=phase_w, config=cfg,
            env_max=self.env_max, t_norm=self.t_norm, f_norm=self.f_norm)


def tf_reference(ref: TimeSeries, config: TfConfig) -> TfReference:
    """Prepare one reference trace for :meth:`TfReference.gof`."""
    if not np.any(ref.samples):
        raise ValueError("reference trace is identically zero; "
                         "misfit normalization is undefined")
    freqs = config.freqs()
    w_ref = cwt(ref, freqs, config.wavelet_omega0)
    env_ref = np.abs(w_ref)
    return TfReference(
        trace=ref, config=config, freqs=freqs, coefficients=w_ref,
        envelope=env_ref, env_max=env_ref.max(),
        t_norm=env_ref.sum(axis=1).max(), f_norm=env_ref.sum(axis=0).max(),
        energy=(env_ref ** 2).sum())


def tf_gof(ref: TimeSeries, sim: TimeSeries,
           config: TfConfig | None = None) -> TfGof:
    """Goodness-of-fit of ``sim`` against the reference trace."""
    require_same_grid(ref, sim)  # reported before a silent reference
    cfg = config if config is not None else TfConfig()
    return tf_reference(ref, cfg).gof(sim)


def record_tf_gof(rec: Record3C, sim: Record3C,
                  config: TfConfig | None = None) -> dict[str, TfGof]:
    """Per-component TF goodness-of-fit of an aligned record pair."""
    return {name: tf_gof(ts, getattr(sim, name), config)
            for name, ts in rec.components()}


# Time samples per %-format in write_plane_csv; bounds the text in memory.
PLANE_CSV_BLOCK_ROWS = 128


def write_plane_csv(path, times, freqs, values) -> Path:
    """Dense (t, f, value) CSV export of a time-frequency matrix.

    Every number is written as the ``repr`` of a Python float, the shortest
    string that reads back to the same value. Rows are streamed to the
    file in blocks of ``PLANE_CSV_BLOCK_ROWS`` time samples, each block
    through one ``%`` format whose ``%r`` fields are its values. The format
    is built from the time and frequency reprs, which never hold a ``%``.
    """
    values = np.asarray(values, float)
    if values.shape != (len(times), len(freqs)):
        raise ValueError("matrix shape must be (n_times, n_freqs)")
    path = Path(path)
    # One time sample's rows are repr(t).join(pieces).
    pieces = ["", *(f",{float(f)!r},%r\n" for f in freqs)]
    t_reprs = [repr(float(t)) for t in times]
    with path.open("w") as fh:
        fh.write("t,f,value\n")
        for i in range(0, len(t_reprs), PLANE_CSV_BLOCK_ROWS):
            block = slice(i, i + PLANE_CSV_BLOCK_ROWS)
            fmt = "".join(t_s.join(pieces) for t_s in t_reprs[block])
            fh.write(fmt % tuple(values[block].ravel().tolist()))
    return path
