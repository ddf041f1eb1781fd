import json

import numpy as np
import pytest

from seisgof import (FocalMechanism, build_grid, default_scenario,
                     moment_tensor, radiation_pattern, synth_fullspace)
from seisgof import source
from seisgof.source import (Medium, PointSourceScenario, default_medium,
                            fullspace_field, liu_stf, scenario_from_dict,
                            scenario_to_dict)

M0 = 2.81e16


class TestFocalMechanism:
    def test_strike_wraps(self):
        assert FocalMechanism(405.0, 30.0, 0.0).strike == 45.0
        assert FocalMechanism(-10.0, 30.0, 0.0).strike == 350.0

    def test_rake_wraps_into_half_open_interval(self):
        assert FocalMechanism(0.0, 30.0, 270.0).rake == -90.0
        assert FocalMechanism(0.0, 30.0, -180.0).rake == 180.0
        assert FocalMechanism(0.0, 30.0, 180.0).rake == 180.0

    def test_dip_rejected_outside_range(self):
        with pytest.raises(ValueError):
            FocalMechanism(0.0, 95.0, 0.0)
        with pytest.raises(ValueError):
            FocalMechanism(0.0, -1.0, 0.0)


class TestMomentTensor:
    def test_vertical_strike_slip_is_pure_mxy(self):
        mt = moment_tensor(FocalMechanism(0.0, 90.0, 0.0), 1.0)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.allclose(mt.matrix, expected, atol=1e-12)

    def test_trace_free_for_random_mechanisms(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            fm = FocalMechanism(rng.uniform(0, 360), rng.uniform(0, 90),
                                rng.uniform(-180, 180))
            mt = moment_tensor(fm, M0)
            assert abs(np.trace(mt.matrix)) < 1e-9 * M0

    def test_benchmark_mechanism_mzz(self):
        mt = moment_tensor(FocalMechanism(45.0, 55.0, 90.0), M0)
        expected = M0 * np.sin(np.radians(110.0))
        assert abs(mt.matrix[2, 2] - expected) < 1e-6 * abs(expected)

    def test_grid_eigenvalues_are_double_couple(self):
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0))
        assert grid.size == 27
        for angles in grid.angles():
            mt = moment_tensor(FocalMechanism(*angles), M0)
            eig = mt.eigenvalues()
            assert abs(np.trace(mt.matrix)) < 1e-9 * M0
            assert np.allclose(eig, [-M0, 0.0, M0], atol=1e-6 * M0)

    def test_strike_plus_360_bit_identical(self):
        a = moment_tensor(FocalMechanism(45.0, 55.0, 90.0), M0)
        b = moment_tensor(FocalMechanism(45.0 + 360.0, 55.0, 90.0), M0)
        assert np.array_equal(a.matrix, b.matrix)

    def test_nonpositive_moment(self):
        with pytest.raises(ValueError):
            moment_tensor(FocalMechanism(0, 45, 0), 0.0)


class TestRadiationPattern:
    def test_strike_slip_nodal_along_north(self):
        fm = FocalMechanism(0.0, 90.0, 0.0)
        a_p, a_s = radiation_pattern(fm, (1.0, 0.0, 0.0))
        assert abs(a_p) < 1e-12
        assert a_s > 0.0

    def test_strike_slip_maximum_at_45_degrees(self):
        fm = FocalMechanism(0.0, 90.0, 0.0)
        a_p, _ = radiation_pattern(fm, (1.0, 1.0, 0.0))
        assert abs(abs(a_p) - 1.0) < 1e-12

    def test_nonzero_total_radiation_off_nodes(self):
        fm = FocalMechanism(30.0, 60.0, 40.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            direction = rng.standard_normal(3)
            a_p, a_s = radiation_pattern(fm, direction)
            assert a_p ** 2 + a_s ** 2 > 0.0

    def test_zero_direction(self):
        with pytest.raises(ValueError):
            radiation_pattern(FocalMechanism(0, 45, 0), (0.0, 0.0, 0.0))


class TestSourceTimeFunctions:
    def test_liu_normalization(self):
        stf = liu_stf(1.0, 1e-3)
        assert abs(np.trapezoid(stf.samples, dx=stf.dt) - 1.0) < 1e-6

    def test_liu_compact_support(self):
        stf = liu_stf(1.0, 1e-3)
        peak = stf.samples.max()
        assert stf.samples[0] == 0.0
        assert abs(stf.samples[-1]) < 1e-9 * peak

    def test_liu_peak_position(self):
        # regression fixture: the shape peaks at 0.13 * rise_time
        stf = liu_stf(1.0, 1e-3)
        t_peak = np.argmax(stf.samples) * stf.dt
        assert t_peak < 0.5
        assert abs(t_peak - 0.13) <= stf.dt

    def test_liu_single_peak(self):
        stf = liu_stf(2.0, 5e-3)
        i_peak = int(np.argmax(stf.samples))
        diffs = np.diff(stf.samples)
        assert np.all(diffs[:i_peak] >= -1e-12)
        assert np.all(diffs[i_peak:] <= 1e-12)

    def test_coarse_dt_rejected(self):
        with pytest.raises(ValueError):
            liu_stf(1.0, 0.1)


class TestScenario:
    def test_invariants(self):
        with pytest.raises(ValueError):
            PointSourceScenario(hypocenter=(0, 0, -1.0), receiver=(1000, 0))
        with pytest.raises(ValueError):
            Medium(rho=2500.0, vp=2000.0, vs=3000.0)

    def test_default_distances(self):
        scn = default_scenario()
        assert abs(scn.hypocentral_distance - 15000.0) < 1e-6
        assert scn.hypocenter[2] == 1000.0

    def test_roundtrip_json(self, tmp_path):
        scn = default_scenario()
        fm = FocalMechanism(45.0, 55.0, 90.0)
        d = scenario_to_dict(scn, fm)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d))
        scn2, fm2, stf2 = scenario_from_dict(json.loads(path.read_text()))
        assert scn2 == scn
        assert fm2 == fm
        assert stf2.rise_time == 1.0

    @pytest.mark.parametrize("azimuth", [0.0, 37.5, 135.0, 290.0])
    @pytest.mark.parametrize("medium, rise", [
        (None, 1.0), (Medium(rho=2400.0, vp=4200.0, vs=2350.0), 0.6)],
        ids=["default-medium", "custom-medium"])
    def test_to_dict_writes_the_schema_from_dict_reads(self, azimuth, medium,
                                                       rise):
        scn = default_scenario(azimuth_deg=azimuth, m0=1.3e15,
                               duration=9.0, dt=0.01, medium=medium)
        fm = FocalMechanism(120.0, 35.0, -60.0)
        body = json.loads(json.dumps(scenario_to_dict(scn, fm, rise)))
        scn2, fm2, stf2 = scenario_from_dict(body)
        assert scn2 == scn  # geometry, medium, m0, duration and dt
        assert fm2 == fm
        expected = liu_stf(rise, scn.dt)
        assert (stf2.rise_time, stf2.dt) == (rise, scn.dt)
        assert stf2.samples.tobytes() == expected.samples.tobytes()

    @pytest.mark.parametrize("medium", [None, {}])
    def test_what_the_json_leaves_out_takes_the_scenario_default(self,
                                                                 medium):
        body = {"hypocenter": [0.0, 0.0, 1000.0], "receiver": [5000.0, 0.0]}
        if medium is not None:
            body["medium"] = medium
        scn, _, stf = scenario_from_dict(body)
        assert scn == PointSourceScenario(hypocenter=(0.0, 0.0, 1000.0),
                                          receiver=(5000.0, 0.0))
        assert stf.dt == scn.dt


def _s_window_peak(record, scenario, pad_before=0.2, pad_after=2.0):
    t_s = scenario.hypocentral_distance / scenario.medium.vs
    t = record.ew.times
    win = (t >= t_s - pad_before) & (t <= t_s + pad_after)
    return max(np.abs(ts.samples[win]).max() for _, ts in record.components())


class TestSynthesizer:
    def test_far_field_geometric_spreading(self):
        # same take-off direction at both distances: depth scales with range
        med = default_medium()
        fm = FocalMechanism(45.0, 55.0, 90.0)
        peaks = []
        for r, depth in ((20_000.0, 1000.0), (40_000.0, 2000.0)):
            horiz = np.sqrt(r ** 2 - depth ** 2)
            scn = PointSourceScenario(hypocenter=(0, 0, depth),
                                      receiver=(horiz, 0.0), medium=med,
                                      duration=r / med.vs + 4.0, dt=0.005)
            peaks.append(_s_window_peak(synth_fullspace(scn, fm), scn))
        assert abs(peaks[0] / peaks[1] - 2.0) < 0.05 * 2.0

    def test_p_nodal_plane_suppression(self):
        med = default_medium()
        fm = FocalMechanism(0.0, 90.0, 0.0)
        r, depth = 60_000.0, 500.0
        horiz = np.sqrt(r ** 2 - depth ** 2)

        def p_window_peak(azimuth_deg):
            az = np.radians(azimuth_deg)
            scn = PointSourceScenario(
                hypocenter=(0, 0, depth),
                receiver=(horiz * np.cos(az), horiz * np.sin(az)),
                medium=med, duration=r / med.vs + 3.0, dt=0.005)
            rec = synth_fullspace(scn, fm)
            t = rec.ew.times
            win = (t >= r / med.vp - 0.1) & (t <= r / med.vs - 1.0)
            return max(np.abs(ts.samples[win]).max()
                       for _, ts in rec.components())

        nodal = p_window_peak(0.0)   # receiver on the north nodal line
        strongest = p_window_peak(45.0)
        assert nodal < 0.01 * strongest

    def test_causality(self, default_synthetic):
        scn = default_scenario()
        t_p = scn.hypocentral_distance / scn.medium.vp
        t = default_synthetic.ew.times
        before = t < t_p - scn.dt
        for _, ts in default_synthetic.components():
            assert np.all(ts.samples[before] == 0.0)

    def test_linear_in_moment(self):
        fm = FocalMechanism(45.0, 55.0, 90.0)
        base = default_scenario()
        doubled = PointSourceScenario(hypocenter=base.hypocenter,
                                      receiver=base.receiver,
                                      medium=base.medium, m0=2.0 * base.m0,
                                      duration=base.duration, dt=base.dt)
        rec1 = synth_fullspace(base, fm)
        rec2 = synth_fullspace(doubled, fm)
        for name, ts in rec1.components():
            assert np.array_equal(getattr(rec2, name).samples,
                                  2.0 * ts.samples)

    def test_linear_in_moment_general_factor(self):
        fm = FocalMechanism(45.0, 55.0, 90.0)
        base = default_scenario()
        c = 3.7
        scaled = PointSourceScenario(hypocenter=base.hypocenter,
                                     receiver=base.receiver,
                                     medium=base.medium, m0=c * base.m0,
                                     duration=base.duration, dt=base.dt)
        rec1 = synth_fullspace(base, fm)
        rec2 = synth_fullspace(scaled, fm)
        for name, ts in rec1.components():
            assert np.allclose(getattr(rec2, name).samples, c * ts.samples,
                               rtol=1e-12, atol=0.0)

    def test_strike_plus_360_bit_identical_synthetics(self, default_synthetic):
        scn = default_scenario()
        rec2 = synth_fullspace(scn, FocalMechanism(405.0, 55.0, 90.0))
        for name, ts in default_synthetic.components():
            assert np.array_equal(getattr(rec2, name).samples, ts.samples)

    def test_energy_sanity_across_grid(self):
        scn = default_scenario()
        grid = build_grid(FocalMechanism(45.0, 55.0, 90.0))
        for angles in grid.angles():
            acc = synth_fullspace(scn, FocalMechanism(*angles))
            energy = sum(np.trapezoid(ts.samples ** 2, dx=ts.dt)
                         for _, ts in acc.components())
            assert np.isfinite(energy) and energy > 0.0

    def test_stf_on_another_grid_is_rejected(self):
        scn = default_scenario(dt=0.005)
        with pytest.raises(ValueError, match="dt 0.0025 differs"):
            synth_fullspace(scn, FocalMechanism(45.0, 55.0, 90.0),
                            liu_stf(1.0, 0.0025))

    def test_receiver_cannot_coincide_with_hypocenter(self):
        # a surface receiver and a buried source can only coincide at
        # depth 0, which the scenario type rejects
        with pytest.raises(ValueError):
            PointSourceScenario(hypocenter=(0.0, 0.0, 0.0),
                                receiver=(0.0, 0.0), duration=12.0, dt=0.005)

    def test_duration_must_cover_s_arrival(self):
        scn = default_scenario(duration=5.0)
        with pytest.raises(ValueError):
            synth_fullspace(scn, FocalMechanism(45, 55, 90))

    def test_runtime_budget(self, default_synthetic):
        import time
        scn = default_scenario()
        start = time.perf_counter()
        synth_fullspace(scn, FocalMechanism(40.0, 50.0, 80.0))
        assert time.perf_counter() - start < 10.0


def _bits(record):
    return b"".join(ts.samples.tobytes() for _, ts in record.components())


class TestFullspaceField:
    """The mechanism-free field is kept for the last (scenario, STF)."""

    def test_cached_field_gives_the_bits_of_a_fresh_one(self):
        scn = default_scenario(dt=0.01)
        stf = liu_stf(1.0, 0.01)
        synth_fullspace(scn, FocalMechanism(45.0, 55.0, 90.0), stf)
        for angles in build_grid(FocalMechanism(45.0, 55.0, 90.0)).angles():
            fm = FocalMechanism(*angles)
            hits = source._fullspace_field.cache_info().hits
            cached = synth_fullspace(scn, fm, stf)
            assert source._fullspace_field.cache_info().hits == hits + 1
            source._fullspace_field.cache_clear()
            assert _bits(cached) == _bits(synth_fullspace(scn, fm, stf))

    def test_changed_inputs_recompute_the_field(self):
        scn = default_scenario(dt=0.01)
        stf = liu_stf(1.0, 0.01)
        base = fullspace_field(scn, stf)
        assert fullspace_field(default_scenario(dt=0.01),
                               liu_stf(1.0, 0.01)) is base
        # ``==`` takes -0.0 for 0.0, and the sign reaches gamma.
        on_axis = PointSourceScenario((0.0, 0.0, 1000.0), (0.0, 14966.6),
                                      dt=0.01)
        mirrored = PointSourceScenario((0.0, 0.0, 1000.0), (-0.0, 14966.6),
                                       dt=0.01)
        for other_scn, other_stf in (
                (default_scenario(dt=0.005), liu_stf(1.0, 0.005)),
                (default_scenario(dt=0.01, azimuth_deg=90.0), stf),
                (scn, liu_stf(1.5, 0.01)), (on_axis, stf), (mirrored, stf)):
            field = fullspace_field(other_scn, other_stf)
            source._fullspace_field.cache_clear()
            fresh = fullspace_field(other_scn, other_stf)
            assert field is not base
            for name in ("gamma", "near", "p0", "s0", "p1", "s1"):
                assert (getattr(field, name).tobytes()
                        == getattr(fresh, name).tobytes())
            assert field.r == fresh.r
            base = field
        assert fullspace_field(mirrored, stf).gamma[0].tobytes() == (
            np.float64(-0.0).tobytes())

    def test_field_is_read_only(self):
        field = fullspace_field(default_scenario(dt=0.01), liu_stf(1.0, 0.01))
        with pytest.raises(ValueError):
            field.near[0] = 1.0
