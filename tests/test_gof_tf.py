import dataclasses
import tracemalloc

import numpy as np
import pytest

from seisgof import TimeSeries, Unit, gof_tf, tf_gof
from seisgof.gof_tf import (PLANE_CSV_BLOCK_ROWS, TfConfig, cwt, log_freqs,
                            tf_reference, write_plane_csv)

from conftest import burst_series, cwt_per_frequency, random_series

TEN_OVER_E = 10.0 * np.exp(-1.0)


class TestCwt:
    def test_ridge_at_signal_frequency(self):
        dt = 0.01
        t = np.arange(4096) * dt
        ts = TimeSeries(dt, 0.0, np.sin(2 * np.pi * 2.0 * t),
                        Unit.ACCELERATION)
        freqs = log_freqs(0.5, 8.0, 40)
        coeff = cwt(ts, freqs)
        assert coeff.shape == (ts.n, freqs.size)
        interior = slice(ts.n // 4, 3 * ts.n // 4)
        ridge = freqs[np.argmax(np.abs(coeff[interior]), axis=1)]
        step = freqs[1:] / freqs[:-1]
        assert np.all(ridge / 2.0 < step.max() * 1.001)
        assert np.all(2.0 / ridge < step.max() * 1.001)

    def test_zero_signal_zero_plane(self):
        ts = TimeSeries(0.01, 0.0, np.zeros(512), Unit.ACCELERATION)
        assert np.all(cwt(ts, log_freqs(1.0, 10.0, 10)) == 0.0)

    def test_linearity_in_amplitude(self):
        ts = burst_series(freq=2.0, dt=0.01, duration=10.0, center=5.0)
        freqs = log_freqs(0.5, 10.0, 16)
        w1 = cwt(ts, freqs)
        w2 = cwt(ts.with_samples(2.0 * ts.samples), freqs)
        assert np.array_equal(w2, 2.0 * w1)
        mask = np.abs(w1) > 1e-9 * np.abs(w1).max()
        assert np.allclose(np.angle(w2[mask]), np.angle(w1[mask]), atol=1e-12)

    @pytest.mark.parametrize("n", [59, 61, 601])
    def test_impulse_peaks_at_its_sample_in_every_row(self, n):
        # At n = 59 and dt = 0.02, (n - 1) / 2 * dt / dt rounds to just
        # below 29, so a centre taken from the time would land one sample
        # early and every row would peak at sample 21.
        x = np.zeros(n)
        x[20] = 1.0
        coeff = cwt(TimeSeries(0.02, 0.0, x, Unit.ACCELERATION),
                    log_freqs(0.05, 10.0, 40))
        assert np.all(np.argmax(np.abs(coeff), axis=0) == 20)

    def test_frequency_grid_validation(self):
        ts = burst_series(dt=0.01)
        with pytest.raises(ValueError):
            cwt(ts, np.array([]))
        with pytest.raises(ValueError):
            cwt(ts, np.array([60.0]))  # beyond Nyquist for dt=0.01
        with pytest.raises(ValueError, match="strictly increasing"):
            cwt(ts, np.array([2.0, 1.0]))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


# (samples, dt, frequencies): the benchmark's 601- and 4,501-sample grids
# and the 2,401-sample criterion-8 grid, an even length, frequency counts
# that are not a multiple of a block's rows, and a one-frequency grid.
ORACLE_GRIDS = [
    (601, 0.02, log_freqs(0.05, 10.0, 40)),    # 1,215-point FFT: one block
    (601, 0.02, np.array([1.0])),
    (2401, 0.005, log_freqs(0.05, 10.0, 37)),  # 4,860 points: 2 x 13 + 11
    (2400, 0.005, log_freqs(0.2, 20.0, 12)),
    (4501, 0.04, log_freqs(0.05, 10.0, 39)),   # 9,216 points: 5 x 7 + 4
]


class TestCwtBlocks:
    @pytest.mark.parametrize("n, dt, freqs", ORACLE_GRIDS,
                             ids=[f"{n}x{f.size}" for n, _, f in ORACLE_GRIDS])
    def test_equals_one_ifft_per_frequency_bit_for_bit(self, n, dt, freqs):
        rng = np.random.default_rng(n + freqs.size)
        for _ in range(3):
            ts = random_series(rng, n=n, dt=dt)
            coeff = cwt(ts, freqs)
            assert coeff.flags.c_contiguous
            assert _same_bits(coeff, cwt_per_frequency(ts, freqs))

    def test_other_wavelets_and_no_taper_bit_for_bit(self):
        ts = burst_series(freq=3.0, dt=0.005, duration=12.0, center=6.0)
        freqs = log_freqs(0.3, 30.0, 21)
        for omega0, taper in ((8.0, 0.05), (6.0, 0.0), (4.5, 0.2)):
            assert _same_bits(cwt(ts, freqs, omega0, taper),
                              cwt_per_frequency(ts, freqs, omega0, taper))

    @pytest.mark.parametrize("block_values", [1, 3 * 2048, 2 ** 30])
    def test_same_bits_at_any_block_size(self, monkeypatch, block_values):
        # One row per block, three rows per block, and every row at once.
        ts = random_series(np.random.default_rng(5), n=601, dt=0.02)
        freqs = log_freqs(0.05, 10.0, 40)
        expected = cwt(ts, freqs)
        monkeypatch.setattr(gof_tf, "CWT_BLOCK_VALUES", block_values)
        coeff = cwt(ts, freqs)
        assert coeff.flags.c_contiguous
        assert _same_bits(coeff, expected)

    def test_memory_is_the_plane_and_one_block(self):
        ts = random_series(np.random.default_rng(6), n=4501, dt=0.04)
        freqs = log_freqs(0.05, 10.0, 40)
        cwt(ts, freqs)  # fills the kernel spectra cache (5.9 MB)
        tracemalloc.start()
        try:
            coeff = cwt(ts, freqs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = 2 ** 20  # 1 MB: 2**16 complex values
        # The slack holds the tapered trace and its 9,216-point FFT. One
        # batch of all 40 rows (5.9 MB) does not fit.
        assert peak < coeff.nbytes + 2 * block + 2 ** 19


@pytest.fixture(scope="module")
def ref_trace():
    return burst_series(freq=1.5, dt=0.01, duration=20.0, center=10.0,
                        width=2.0)


CFG = TfConfig(f_min=0.2, f_max=8.0, n_freqs=24)


class TestMisfits:
    def test_self_comparison_all_zero(self, ref_trace):
        gof = tf_gof(ref_trace, ref_trace, CFG)
        assert gof.eg == 10.0 and gof.pg == 10.0
        for arr in (gof.tfeg, gof.tfpg, gof.teg, gof.tpg, gof.feg, gof.fpg):
            assert np.all(arr == 10.0)

    def test_zero_reference_rejected(self, ref_trace):
        zero = ref_trace.with_samples(np.zeros(ref_trace.n))
        with pytest.raises(ValueError, match="identically zero"):
            tf_gof(zero, ref_trace, CFG)

    def test_phase_misfit_bounded(self, ref_trace):
        rng = np.random.default_rng(31)
        sim = ref_trace.with_samples(ref_trace.samples
                                     + 0.5 * rng.standard_normal(ref_trace.n))
        # |TFPM| <= 1 everywhere, so no TFPG falls below 10 * exp(-1).
        assert tf_gof(ref_trace, sim, CFG).tfpg.min() >= TEN_OVER_E


def eager_tf_gof(ref, sim, cfg):
    """Every TfGof field by the formulas that mapped all eight misfits on
    construction, on the per-frequency CWT planes."""
    freqs = cfg.freqs()
    w_ref = cwt_per_frequency(ref, freqs, cfg.wavelet_omega0)
    w_sim = cwt_per_frequency(sim, freqs, cfg.wavelet_omega0)
    env_ref = np.abs(w_ref)
    env_max = env_ref.max()
    t_norm = env_ref.sum(axis=1).max()
    f_norm = env_ref.sum(axis=0).max()
    energy = (env_ref ** 2).sum()
    env_diff = np.abs(w_sim) - env_ref
    re = w_sim.real * w_ref.real + w_sim.imag * w_ref.imag
    im = w_sim.imag * w_ref.real - w_sim.real * w_ref.imag
    phase_w = env_ref * np.arctan2(im, re) / np.pi

    def g(m):
        return cfg.amplitude * np.exp(-cfg.decay * np.abs(m))

    return {"times": ref.times, "freqs": freqs,
            "eg": float(g(np.sqrt((env_diff ** 2).sum() / energy))),
            "pg": float(g(np.sqrt((phase_w ** 2).sum() / energy))),
            "teg": g(env_diff.sum(axis=1) / t_norm),
            "tpg": g(phase_w.sum(axis=1) / t_norm),
            "feg": g(env_diff.sum(axis=0) / f_norm),
            "fpg": g(phase_w.sum(axis=0) / f_norm),
            "tfeg": g(env_diff / env_max), "tfpg": g(phase_w / env_max)}


class TestEagerOracle:
    @pytest.mark.parametrize("cfg", [
        CFG, TfConfig(), TfConfig(f_min=0.1, f_max=12.0, n_freqs=33,
                                  wavelet_omega0=7.0, amplitude=7.5,
                                  decay=1.7)])
    def test_every_field_equals_the_eager_formula_bit_for_bit(
            self, ref_trace, cfg):
        rng = np.random.default_rng(41)
        sims = [ref_trace.with_samples(
                    ref_trace.samples
                    + 0.3 * rng.standard_normal(ref_trace.n)),
                ref_trace.with_samples(-0.7 * ref_trace.samples[::-1])]
        reference = tf_reference(ref_trace, cfg)
        for sim in sims:
            gof = reference.gof(sim)
            for name, value in eager_tf_gof(ref_trace, sim, cfg).items():
                assert _same_bits(getattr(gof, name), value), name

    def test_sweep_grid_pair_bit_for_bit(self):
        rng = np.random.default_rng(43)
        ref, sim = (random_series(rng, n=601, dt=0.02) for _ in range(2))
        gof = tf_gof(ref, sim, TfConfig())
        for name, value in eager_tf_gof(ref, sim, TfConfig()).items():
            assert _same_bits(getattr(gof, name), value), name


class TestConfigRange:
    """TfConfig checks its own ranges when it is built, so a config built
    in code, like one load_config reads, cannot map a misfit outside
    [0, 10]."""

    @pytest.mark.parametrize("amplitude", [12.0, 10.5, 0.0, -1.0, np.nan])
    def test_amplitude_outside_the_gof_scale_is_rejected(self, ref_trace,
                                                         amplitude):
        with pytest.raises(ValueError, match=r"^amplitude=.* outside"):
            tf_gof(ref_trace, ref_trace, TfConfig(amplitude=amplitude))

    @pytest.mark.parametrize("decay", [0.0, -1.0, np.nan])
    def test_decay_that_is_not_positive_is_rejected(self, ref_trace, decay):
        with pytest.raises(ValueError, match=r"^decay=.* must be positive"):
            tf_reference(ref_trace, TfConfig(decay=decay))

    @pytest.mark.parametrize("omega0", [0.0, -6.0, np.nan])
    def test_wavelet_omega0_that_is_not_positive_is_rejected(self, ref_trace,
                                                             omega0):
        with pytest.raises(ValueError,
                           match=r"^wavelet_omega0=.* must be positive"):
            tf_reference(ref_trace, TfConfig(wavelet_omega0=omega0))

    def test_range_edges_are_accepted(self, ref_trace):
        sim = ref_trace.with_samples(-ref_trace.samples)
        gof = tf_gof(ref_trace, sim, TfConfig(f_min=0.2, f_max=8.0,
                                              n_freqs=8, amplitude=10.0,
                                              decay=1e-300))
        assert gof.eg == 10.0 and gof.pg == 10.0

    @pytest.mark.parametrize("fields, name", [
        ({"amplitude": 12.0}, "amplitude"),
        ({"amplitude": np.nan}, "amplitude"),
        ({"decay": -1.0}, "decay"), ({"decay": np.nan}, "decay"),
        ({"wavelet_omega0": 0.0}, "wavelet_omega0"),
        ({"wavelet_omega0": np.nan}, "wavelet_omega0"),
        ({"f_min": 0.0}, "f_min"), ({"f_min": np.nan}, "f_min"),
        ({"f_max": 0.01}, "f_max"), ({"f_max": np.nan}, "f_max"),
        ({"n_freqs": 1}, "n_freqs"),
    ])
    def test_field_out_of_range_is_rejected_when_built(self, fields, name):
        with pytest.raises(ValueError, match=name):
            TfConfig(**fields)

    def test_built_config_is_frozen(self):
        cfg = TfConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.amplitude = 12.0
        assert cfg.amplitude == 10.0


class TestGofMapping:
    def test_strictly_decreasing_in_misfit(self):
        values = [10.0 * np.exp(-m) for m in (0.0, 0.2, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestGofInvariances:
    def test_positive_scaling_keeps_pg_at_ten(self, ref_trace):
        sim = ref_trace.with_samples(2.0 * ref_trace.samples)
        gof = tf_gof(ref_trace, sim, CFG)
        assert gof.pg == 10.0
        assert gof.eg < 10.0
        assert np.all(gof.tpg == 10.0)
        assert np.all(gof.tfpg == 10.0)

    def test_generic_positive_scaling(self, ref_trace):
        sim = ref_trace.with_samples(1.37 * ref_trace.samples)
        gof = tf_gof(ref_trace, sim, CFG)
        assert gof.pg > 10.0 - 1e-9

    def test_polarity_flip_keeps_eg_at_ten(self, ref_trace):
        sim = ref_trace.with_samples(-ref_trace.samples)
        gof = tf_gof(ref_trace, sim, CFG)
        assert gof.eg == 10.0
        assert np.all(gof.tfeg == 10.0)
        assert abs(gof.pg - TEN_OVER_E) < 1e-12

    def test_outputs_in_range_for_random_pairs(self):
        rng = np.random.default_rng(37)
        cfg = TfConfig(f_min=0.5, f_max=10.0, n_freqs=12)
        for _ in range(100):
            ref = random_series(rng, n=256, dt=0.02)
            sim = random_series(rng, n=256, dt=0.02)
            gof = tf_gof(ref, sim, cfg)
            for arr in (gof.teg, gof.tpg, gof.feg, gof.fpg, gof.tfeg,
                        gof.tfpg):
                assert arr.min() >= 0.0 and arr.max() <= 10.0
            assert 0.0 <= gof.eg <= 10.0 and 0.0 <= gof.pg <= 10.0

    def test_noise_degrades_gof_statistically(self, ref_trace):
        cfg = TfConfig(f_min=0.2, f_max=8.0, n_freqs=16)
        sigmas = (0.05, 0.2, 0.8)
        means = []
        for sigma in sigmas:
            egs = []
            for seed in range(10):
                rng = np.random.default_rng(seed)
                sim = ref_trace.with_samples(
                    ref_trace.samples + sigma * rng.standard_normal(ref_trace.n))
                egs.append(tf_gof(ref_trace, sim, cfg).eg)
            means.append(np.mean(egs))
        assert means[0] >= means[1] >= means[2]

    def test_time_marginal_locality(self):
        # perturb only inside [8, 10] s; TEG must stay at 10 well away from
        # the window (wavelet support at 1 Hz spans a few seconds)
        ref = burst_series(freq=3.0, dt=0.01, duration=30.0, center=15.0,
                           width=6.0)
        x = ref.samples.copy()
        t = ref.times
        window = (t >= 8.0) & (t <= 10.0)
        x[window] *= 1.6
        sim = ref.with_samples(x)
        gof = tf_gof(ref, sim, TfConfig(f_min=1.0, f_max=10.0, n_freqs=16))
        far = (t < 8.0 - 5.0) | (t > 10.0 + 5.0)
        assert np.all(gof.teg[far] > 9.99)
        near = (t >= 8.0) & (t <= 10.0)
        assert gof.teg[near].min() < 9.9


class TestExport:
    def test_plane_csv(self, tmp_path, ref_trace):
        sim = ref_trace.with_samples(0.8 * ref_trace.samples)
        gof = tf_gof(ref_trace, sim, TfConfig(f_min=0.5, f_max=5.0,
                                              n_freqs=6))
        path = write_plane_csv(tmp_path / "tfeg.csv", gof.times, gof.freqs,
                               gof.tfeg)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,f,value"
        assert len(lines) == 1 + gof.times.size * gof.freqs.size


def _fstring_plane_csv(path, times, freqs, values):
    # The one-f-string-per-cell writer the streamed one must match.
    values = np.asarray(values)
    lines = ["t,f,value"]
    for i, t in enumerate(times):
        for j, f in enumerate(freqs):
            lines.append(f"{float(t)!r},{float(f)!r},{float(values[i, j])!r}")
    path.write_text("\n".join(lines) + "\n")


def _random_plane(n_times, n_freqs):
    # Long time reprs, and values from subnormal to 1e20 of either sign.
    rng = np.random.default_rng(10 * n_times + n_freqs)
    values = 10.0 ** rng.uniform(-320, 20, (n_times, n_freqs))
    return (0.1 + np.arange(n_times) / 3.0, np.logspace(-1.3, 1.0, n_freqs),
            values * rng.choice([-1.0, 1.0], values.shape))


B = PLANE_CSV_BLOCK_ROWS


@pytest.mark.parametrize("times, freqs, values", [
    (np.array([-0.0, 1e-5, 1e16]), np.array([0.1, 1e-5]),
     np.array([[-0.0, np.nan], [1e-5, 1e16], [np.inf, -1e-300]])),
    (np.arange(3.0), np.array([0.5, 2.0]), np.arange(6).reshape(3, 2)),
    ([0, 0.25, 1], [1, 2], [[1, -2], [3.5, 0.1], [0.0, -0.0]]),
    (np.array([0.0, 0.1]), np.array([]), np.zeros((2, 0))),
    # Each side of the block edges.
    *(_random_plane(n_times, n_freqs)
      for n_times in (0, 1, B - 1, B, B + 1, 2 * B + 3) for n_freqs in (0, 3)),
])
def test_plane_csv_bytes_match_fstring_writer(tmp_path, times, freqs, values):
    write_plane_csv(tmp_path / "streamed.csv", times, freqs, values)
    _fstring_plane_csv(tmp_path / "reference.csv", times, freqs, values)
    assert ((tmp_path / "streamed.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


def test_plane_csv_bytes_match_fstring_writer_on_a_gof_plane(tmp_path,
                                                              ref_trace):
    sim = ref_trace.with_samples(-0.7 * ref_trace.samples[::-1])
    gof = tf_gof(ref_trace, sim, TfConfig(f_min=0.5, f_max=5.0, n_freqs=7))
    for name in ("tfeg", "tfpg"):
        plane = getattr(gof, name)
        write_plane_csv(tmp_path / "streamed.csv", gof.times, gof.freqs,
                        plane)
        _fstring_plane_csv(tmp_path / "reference.csv", gof.times, gof.freqs,
                           plane)
        assert ((tmp_path / "streamed.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())
