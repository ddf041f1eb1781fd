import numpy as np
import pytest

from seisgof import TimeSeries, Unit, tf_gof
from seisgof.gof_tf import (TfConfig, cwt, log_freqs, tf_misfits, to_gof,
                            write_plane_csv)

from conftest import burst_series, random_series

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

    def test_frequency_grid_validation(self):
        ts = burst_series(dt=0.01)
        with pytest.raises(ValueError):
            cwt(ts, np.array([]))
        with pytest.raises(ValueError):
            cwt(ts, np.array([60.0]))  # beyond Nyquist for dt=0.01
        with pytest.raises(ValueError, match="strictly increasing"):
            cwt(ts, np.array([2.0, 1.0]))


@pytest.fixture(scope="module")
def ref_trace():
    return burst_series(freq=1.5, dt=0.01, duration=20.0, center=10.0,
                        width=2.0)


FREQS = log_freqs(0.2, 8.0, 24)


class TestMisfits:
    def test_self_comparison_all_zero(self, ref_trace):
        m = tf_misfits(ref_trace, ref_trace, FREQS)
        assert m.em == 0.0 and m.pm == 0.0
        for arr in (m.tfem, m.tfpm, m.tem, m.tpm, m.fem, m.fpm):
            assert np.all(arr == 0.0)

    def test_amplitude_scaling_gives_pure_envelope_misfit(self, ref_trace):
        sim = ref_trace.with_samples(2.0 * ref_trace.samples)
        m = tf_misfits(ref_trace, sim, FREQS)
        assert np.all(m.tfpm == 0.0)
        assert m.pm == 0.0
        assert m.em > 0.0

    def test_polarity_flip_gives_pure_phase_misfit(self, ref_trace):
        sim = ref_trace.with_samples(-ref_trace.samples)
        m = tf_misfits(ref_trace, sim, FREQS)
        assert np.all(m.tfem == 0.0)
        assert m.em == 0.0
        # phase difference is pi everywhere, weighted by the envelope
        assert m.pm == 1.0

    def test_zero_reference_rejected(self, ref_trace):
        zero = ref_trace.with_samples(np.zeros(ref_trace.n))
        with pytest.raises(ValueError):
            tf_misfits(zero, ref_trace, FREQS)

    def test_phase_misfit_bounded(self, ref_trace):
        rng = np.random.default_rng(31)
        sim = ref_trace.with_samples(ref_trace.samples
                                     + 0.5 * rng.standard_normal(ref_trace.n))
        m = tf_misfits(ref_trace, sim, FREQS)
        assert np.abs(m.tfpm).max() <= 1.0


class TestGofMapping:
    def test_closed_form_points(self):
        class Stub:
            times = np.zeros(2)
            freqs = np.ones(2)
            tem = np.zeros(2)
            tpm = np.zeros(2)
            fem = np.zeros(2)
            fpm = np.zeros(2)
            tfem = np.zeros((2, 2))
            tfpm = np.zeros((2, 2))
            em = 0.0
            pm = 1.0

        gof = to_gof(Stub())
        assert gof.eg == 10.0
        assert abs(gof.pg - TEN_OVER_E) < 1e-12

    def test_strictly_decreasing_in_misfit(self):
        values = [10.0 * np.exp(-m) for m in (0.0, 0.2, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestGofInvariances:
    def test_positive_scaling_keeps_pg_at_ten(self, ref_trace):
        sim = ref_trace.with_samples(2.0 * ref_trace.samples)
        gof = tf_gof(ref_trace, sim, TfConfig(f_min=0.2, f_max=8.0,
                                              n_freqs=24))
        assert gof.pg == 10.0
        assert gof.eg < 10.0
        assert np.all(gof.tpg == 10.0)
        assert np.all(gof.tfpg == 10.0)

    def test_generic_positive_scaling(self, ref_trace):
        sim = ref_trace.with_samples(1.37 * ref_trace.samples)
        gof = tf_gof(ref_trace, sim, TfConfig(f_min=0.2, f_max=8.0,
                                              n_freqs=24))
        assert gof.pg > 10.0 - 1e-9

    def test_polarity_flip_keeps_eg_at_ten(self, ref_trace):
        sim = ref_trace.with_samples(-ref_trace.samples)
        gof = tf_gof(ref_trace, sim, TfConfig(f_min=0.2, f_max=8.0,
                                              n_freqs=24))
        assert gof.eg == 10.0
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


@pytest.mark.parametrize("times, freqs, values", [
    (np.array([-0.0, 1e-5, 1e16]), np.array([0.1, 1e-5]),
     np.array([[-0.0, np.nan], [1e-5, 1e16], [np.inf, -1e-300]])),
    (np.arange(3.0), np.array([0.5, 2.0]), np.arange(6).reshape(3, 2)),
    ([0, 0.25, 1], [1, 2], [[1, -2], [3.5, 0.1], [0.0, -0.0]]),
    (np.array([0.0, 0.1]), np.array([]), np.zeros((2, 0))),
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
