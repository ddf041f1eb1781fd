"""The filter bank, the detrend and the CWT against long-double oracles.

These kernels round differently from the recurrences and fits they stand
for: the bank runs each pass as block matrix products, the detrend is a
closed-form line fit and the CWT convolves at 2·3·5-smooth FFT lengths.
Each oracle runs the defining arithmetic in ``np.longdouble`` on the same
float64 inputs and designs, and each kernel must stay within its stated
bound of it, relative to the input row's largest value (the bank and the
detrend) or to the plane's largest modulus (the CWT). Where long double
is no wider than float64 the oracle would be the code compared with
itself, so the module is skipped.
"""

import numpy as np
import pytest

from seisgof import TimeSeries, Unit
from seisgof.gof_anderson import default_bands
from seisgof.gof_tf import _morlet_spectra, cwt, log_freqs
from seisgof.signal import (_FILTER_BLOCK, _butter_sos, bandpass_bank,
                            detrend_rows, tukey_window)

LD = np.longdouble

pytestmark = pytest.mark.skipif(
    not np.finfo(LD).eps < np.finfo(float).eps,
    reason="long double is no wider than float64 on this platform")

EDGES = default_bands().edges

# Largest error of the bank against the long-double recurrence, relative to
# the input row's max, per default band, over every case of test_bank: dt
# 0.005, 0.02 and 0.04 s, orders 1-4, both phase settings. The measured
# maxima were 1.2e-11, 1.0e-11, 1.0e-12, 2.4e-13, 4.2e-14, 5.1e-15 and
# 7.6e-16, all at dt = 0.005 s, where the low bands' poles lie nearest the
# unit circle; scipy's own float64 sosfilt and sosfiltfilt measured 1.4e-11,
# 2.9e-12, 8.9e-13, 2.8e-13, 4.0e-14, 2.3e-14 and 3.6e-15 on the same
# cases. Each bound is about three times its band's maximum.
BANK_BOUNDS = dict(zip(EDGES, (4e-11, 3e-11, 3e-12, 8e-13, 1.5e-13, 2e-14,
                               3e-15)))

# Largest error of the detrend against the long-double line fit, relative
# to the input row's max: 2.1e-16 measured.
DETREND_BOUND = 1e-15

# Largest error of the CWT against the direct long-double convolution,
# relative to the plane's largest modulus: 2.4e-13 measured, at 4,501
# samples. Most of it is the kernel's sampling on a float64 time grid,
# which the power-of-two FFT lengths measured the same.
CWT_BOUND = 1e-12


def sosfilt_ld(sos, x, zi):
    """scipy's ``sosfilt`` step, sample by sample in long double. ``sos``
    is (rows, sections, 6), ``x`` (rows, n) and ``zi`` (rows, sections,
    2)."""
    b0, b1, b2, _, a1, a2 = np.moveaxis(sos, 2, 0)
    z0, z1 = zi[..., 0].copy(), zi[..., 1].copy()
    out = np.empty(x.shape, dtype=LD)
    for k in range(x.shape[1]):
        y = x[:, k]
        for s in range(sos.shape[1]):
            xs = y
            y = b0[:, s] * xs + z0[:, s]
            z0[:, s] = b1[:, s] * xs - a1[:, s] * y + z1[:, s]
            z1[:, s] = b2[:, s] * xs - a2[:, s] * y
        out[:, k] = y
    return out


def sosfilt_zi_ld(sos):
    """Each section's steady state for a unit step, scaled by the DC gain
    of the sections before it: ``sosfilt_zi`` solved in closed form."""
    b, a = sos[..., :3], sos[..., 3:]
    r0 = b[..., 1] - a[..., 1] * b[..., 0]
    r1 = b[..., 2] - a[..., 2] * b[..., 0]
    z0 = (r0 + r1) / (a[..., 0] + a[..., 1] + a[..., 2])
    zi = np.stack((z0, r1 - a[..., 2] * z0), axis=-1)
    gain = b.sum(axis=-1) / a.sum(axis=-1)
    before = np.concatenate((np.ones(gain.shape[:-1] + (1,), dtype=LD),
                             np.cumprod(gain, axis=-1)[..., :-1]), axis=-1)
    return zi * before[..., None]


def sosfiltfilt_ld(sos, x):
    """scipy's ``sosfiltfilt`` in long double."""
    edge = 3 * (2 * sos.shape[1] + 1)
    ext = np.concatenate((2 * x[:, :1] - x[:, edge:0:-1], x,
                          2 * x[:, -1:] - x[:, -2:-(edge + 2):-1]), axis=1)
    zi = sosfilt_zi_ld(sos)
    y = sosfilt_ld(sos, ext, zi * ext[:, :1, None])
    y = sosfilt_ld(sos, y[:, ::-1], zi * y[:, -1:, None])
    return y[:, ::-1][:, edge:-edge]


def input_rows(n, seed):
    """A zero row, a constant, and noise at 1e-6 and 1e5."""
    rng = np.random.default_rng(seed)
    return np.stack((np.zeros(n), np.full(n, 3.0),
                     1e-6 * rng.standard_normal(n),
                     1e5 * rng.standard_normal(n)))


def bank_errors(order, zero_phase, n):
    """{band: largest error relative to the input row's max} over every dt
    of the rule and every input row."""
    errors = {}
    for dt in (0.005, 0.02, 0.04):
        x = input_rows(n, order * n)
        got = bandpass_bank(x, dt, EDGES, order, zero_phase)
        sos = np.stack([_butter_sos(lo, hi, dt, order) for lo, hi in EDGES])
        # Row i * bands + j: input row i in band j, as the bank lays out.
        rows = np.repeat(x, len(EDGES), axis=0).astype(LD)
        sos = np.tile(sos, (len(x), 1, 1)).astype(LD)
        want = (sosfiltfilt_ld(sos, rows) if zero_phase
                else sosfilt_ld(sos, rows, np.zeros(sos.shape[:2] + (2,),
                                                    dtype=LD)))
        scale = np.maximum(np.abs(rows).max(axis=1), np.finfo(float).tiny)
        err = (np.abs(got - want).max(axis=1) / scale).astype(float)
        for j, edge in enumerate(EDGES):
            errors[edge] = max(errors.get(edge, 0.0),
                               err[j::len(EDGES)].max())
    return errors


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("zero_phase", [True, False])
def test_bank(order, zero_phase):
    padlen = 3 * (2 * order + 1)
    for n in (padlen + 1, _FILTER_BLOCK - 1, _FILTER_BLOCK, _FILTER_BLOCK + 1,
              601, 4501):
        for edge, err in bank_errors(order, zero_phase, n).items():
            assert err <= BANK_BOUNDS[edge], (n, edge, err)


def line_fit_ld(x):
    """Each row less its least-squares line over the sample indices, in
    long double."""
    x = x.astype(LD)
    n = x.shape[1]
    tc = np.arange(n, dtype=LD) - LD(n - 1) / 2
    out = x - x.mean(axis=1, keepdims=True)
    slope = (out * tc).sum(axis=1, keepdims=True) / (tc * tc).sum()
    return out - slope * tc


@pytest.mark.parametrize("n", [2, 3, 64, 601, 2401, 4501])
def test_detrend(n):
    rng = np.random.default_rng(n)
    t = np.arange(n)
    rows = np.vstack((
        input_rows(n, n),
        1e6 + 2.5 * t,
        -3e4 * t + 1e-3 * rng.standard_normal(n),
        np.cumsum(rng.standard_normal((3, n)), axis=1),
        10.0 ** rng.uniform(-6, 5, (4, 1)) * rng.standard_normal((4, n))
        + rng.uniform(-1e6, 1e6, (4, 1)) + rng.uniform(-1e3, 1e3, (4, 1)) * t))
    got = detrend_rows(rows)
    scale = np.maximum(np.abs(rows).max(axis=1), np.finfo(float).tiny)
    err = (np.abs(got - line_fit_ld(rows)).max(axis=1) / scale).astype(float)
    assert err.max() <= DETREND_BOUND, err


def cwt_ld(ts, freqs, rows, wavelet_omega0=6.0):
    """Plane rows ``rows`` of :func:`cwt` by direct convolution in long
    double: the tapered trace against every kernel centred on each row."""
    n, dt = ts.n, LD(ts.dt)
    x = ts.samples.astype(LD) * tukey_window(n, 0.05).astype(LD)
    t = np.arange(n, dtype=LD) * dt
    t_mid = t[-1] / 2
    scale = LD(wavelet_omega0) / (2 * LD(np.pi)) / freqs.astype(LD)[:, None]
    arg = -(t - t_mid) / scale
    psi = LD(np.pi) ** LD(-0.25) * np.exp(1j * LD(wavelet_omega0) * arg
                                          - arg ** 2 / 2)
    kernel = np.conj(psi) / np.sqrt(scale)
    centre = (n - 1) // 2
    out = np.empty((len(rows), freqs.size), dtype=kernel.dtype)
    for r, i in enumerate(rows):
        # Sample m meets kernel sample i + centre - m.
        m = np.arange(max(0, i + centre - n + 1), min(n, i + centre + 1))
        out[r] = kernel[:, i + centre - m] @ x[m] * dt
    return out


@pytest.mark.parametrize("n, dt", [(601, 0.02), (2401, 0.005), (4501, 0.04)])
def test_cwt(n, dt):
    freqs = log_freqs(0.05, 10.0, 40)
    rng = np.random.default_rng(n)
    tt = np.arange(n) * dt
    burst = (np.sin(2 * np.pi * tt)
             * np.exp(-0.5 * ((tt - tt[-1] / 2) / 2) ** 2))
    rows = np.unique(np.r_[0:n:max(1, n // 48), n // 2, n - 1])
    for x in (burst, np.cumsum(rng.standard_normal(n)),
              1e-6 * rng.standard_normal(n)):
        ts = TimeSeries(dt, 0.0, x, Unit.ACCELERATION)
        got = cwt(ts, freqs)
        want = cwt_ld(ts, freqs, rows)
        err = float(np.abs(got[rows] - want).max() / np.abs(got).max())
        assert err <= CWT_BOUND, err


@pytest.mark.parametrize("n, nfft", [(601, 1215), (2401, 4860),
                                     (4501, 9216), (59, 120)])
def test_cwt_fft_length_is_the_smallest_smooth_one(n, nfft):
    spectra = _morlet_spectra(n, 0.02, log_freqs(0.05, 10.0, 3).tobytes(),
                              6.0)
    assert spectra.shape[1] == nfft >= 2 * n - 1
