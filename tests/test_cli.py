import dataclasses
import json
import os
import shutil
import subprocess
import sys
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import seisgof
from seisgof import (FocalMechanism, build_grid, cli, default_scenario,
                     ensemble, gof_anderson, gof_tf, synth_fullspace)
from seisgof.cli import main
from seisgof.config import (ConfigError, PipelineConfig, config_echo,
                             load_config)
from seisgof.gof_tf import tf_gof, write_plane_csv
from seisgof.signal import COMPONENTS
from seisgof.source import scenario_from_dict, scenario_to_dict
from seisgof.traceio import read_record, write_json, write_record

DATA = Path(__file__).parent / "data"


def make_scenario_file(tmp_path, duration=12.0, dt=0.01):
    scenario = default_scenario(duration=duration, dt=dt)
    fm = FocalMechanism(45.0, 55.0, 90.0)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(scenario, fm), indent=2))
    return path, scenario, fm


def make_config_file(tmp_path, scenario_path, reference_path=None, **extra):
    cfg = {
        "scenario": scenario_path.name,
        "output_dir": "out",
        "workers": 1,
        "bands": [[0.5, 1.0], [1.0, 2.0]],
        "periods": {"min": 0.1, "max": 5.0, "count": 8},
        "tf": {"fmin": 0.5, "fmax": 5.0, "nfreq": 10},
    }
    if reference_path is not None:
        cfg["reference"] = reference_path.name
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


@pytest.fixture
def workspace(tmp_path):
    scenario_path, scenario, fm = make_scenario_file(tmp_path)
    reference = synth_fullspace(scenario, FocalMechanism(47.0, 57.0, 95.0))
    ref_path = write_record(reference, tmp_path / "recorded.csv")
    config_path = make_config_file(tmp_path, scenario_path, ref_path)
    return tmp_path, config_path


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """The output tree of one sweep at alpha 0.05, for the report tests
    that edit a copy of it."""
    tmp_path = tmp_path_factory.mktemp("swept")
    scenario_path, scenario, _ = make_scenario_file(tmp_path)
    reference = synth_fullspace(scenario, FocalMechanism(47.0, 57.0, 95.0))
    ref_path = write_record(reference, tmp_path / "recorded.csv")
    config_path = make_config_file(tmp_path, scenario_path, ref_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config_path), "--out",
                 str(out)]) == 0
    return out


class TestSynthCommand:
    def test_writes_trace_and_sidecar(self, workspace):
        tmp_path, config_path = workspace
        out = tmp_path / "synth_out"
        assert main(["synth", "--config", str(config_path),
                     "--out", str(out)]) == 0
        record = read_record(out / "synthetic.csv")
        assert record.ew.n > 100
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["mechanism"]["strike"] == 45.0


class TestGofCommand:
    def test_self_comparison_reports_excellent(self, workspace):
        tmp_path, config_path = workspace
        out = tmp_path / "gof_out"
        ref = tmp_path / "recorded.csv"
        assert main(["gof", str(ref), str(ref), "--config", str(config_path),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "gof_summary.json").read_text())
        for comp in ("ew", "ns", "ud"):
            assert summary["tf"][comp]["EG"] == 10.0
            assert summary["tf"][comp]["PG"] == 10.0
            for im, entry in summary["anderson"][comp]["aggregates"].items():
                assert entry["mean"] == 10.0, im
                assert entry["quality"] == "excellent"
        csv_lines = (out / "anderson_scores.csv").read_text().splitlines()
        assert csv_lines[0] == "component,im,band_lo,band_hi,score"
        assert (out / "tf_ew.npz").exists()
        assert (out / "tf_ud.npz").exists()

    def test_component_filter(self, workspace):
        tmp_path, config_path = workspace
        out = tmp_path / "gof_ew"
        ref = tmp_path / "recorded.csv"
        assert main(["gof", str(ref), str(ref), "--config", str(config_path),
                     "--out", str(out), "--component", "ew"]) == 0
        summary = json.loads((out / "gof_summary.json").read_text())
        assert set(summary["tf"]) == {"ew"}
        written = ["anderson_scores.csv", "gof_summary.json", "tf_ew.npz"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*written, "manifest.json"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == written

    @pytest.mark.parametrize("existing", [False, True])
    def test_a_failing_component_leaves_no_file(self, workspace, capsys,
                                                 existing):
        # An all-zero UD reference fails its TF GOF after the Anderson
        # scores and the EW and NS archives are computed: nothing of the
        # run reaches --out, nor a staging directory beside it, and an
        # --out that already exists keeps what it held.
        tmp_path, _ = workspace
        rec = read_record(tmp_path / "recorded.csv")
        silent = dataclasses.replace(
            rec, ud=rec.ud.with_samples(np.zeros(rec.ud.n)))
        silent_path = write_record(silent, tmp_path / "silent.csv")
        parent = tmp_path / "outputs"
        out = parent / "gof"
        if existing:
            out.mkdir(parents=True)
            (out / "kept.txt").write_text("kept\n")
        assert main(["gof", str(silent_path), str(tmp_path / "recorded.csv"),
                     "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert "identically zero" in error["message"]
        if existing:
            assert [p.name for p in out.iterdir()] == ["kept.txt"]
            assert [p.name for p in parent.iterdir()] == ["gof"]
        else:
            assert list(parent.iterdir()) == []

    @pytest.mark.parametrize("component, rows, cwts", [
        ("ud", 2 * 7, 2), ("all", 2 * 3 * 7, 6)])
    def test_only_the_chosen_component_is_scored(self, workspace, monkeypatch,
                                                 component, rows, cwts):
        # One features batch of the chosen components' recorded and
        # synthetic traces in the 7 default bands, and one reference and
        # one synthetic CWT per chosen component.
        tmp_path, config_path = workspace
        config = json.loads(config_path.read_text())
        del config["bands"]
        config_path.write_text(json.dumps(config))
        calls = {"bank": [], "measures": [], "cwt": 0}
        bank, measures, cwt = (gof_anderson.bandpass_bank,
                               gof_anderson.intensity_measures, gof_tf.cwt)

        def counting_bank(*args, **kwargs):
            out = bank(*args, **kwargs)
            calls["bank"].append(len(out))
            return out

        def counting_measures(acc, *args, **kwargs):
            calls["measures"].append(len(acc))
            return measures(acc, *args, **kwargs)

        def counting_cwt(*args, **kwargs):
            calls["cwt"] += 1
            return cwt(*args, **kwargs)

        monkeypatch.setattr(gof_anderson, "bandpass_bank", counting_bank)
        monkeypatch.setattr(gof_anderson, "intensity_measures",
                            counting_measures)
        monkeypatch.setattr(gof_tf, "cwt", counting_cwt)
        ref = tmp_path / "recorded.csv"
        assert main(["gof", str(ref), str(ref), "--config", str(config_path),
                     "--out", str(tmp_path / "out"),
                     "--component", component]) == 0
        assert calls == {"bank": [rows], "measures": [rows], "cwt": cwts}

    def test_each_components_planes_are_freed_before_the_next(
            self, workspace, monkeypatch):
        # Each call of TfReference.gof notes how many of the references
        # and GOFs of the components before it are still alive: none, as
        # cmd_gof writes a component's archive and drops its planes before
        # it computes the next component's.
        tmp_path, config_path = workspace
        gof = gof_tf.TfReference.gof
        earlier, alive = [], []

        def noting_gof(self, sim):
            alive.append(sum(weak() is not None for weak in earlier))
            out = gof(self, sim)
            earlier.extend((weakref.ref(self), weakref.ref(out)))
            return out

        monkeypatch.setattr(gof_tf.TfReference, "gof", noting_gof)
        ref = tmp_path / "recorded.csv"
        assert main(["gof", str(ref), str(ref), "--config", str(config_path),
                     "--out", str(tmp_path / "out")]) == 0
        assert alive == [0, 0, 0]
        assert all(weak() is None for weak in earlier)

    def test_long_pair_warns_of_nothing(self, tmp_path):
        # 180 s at 25 Hz, the default bands and periods: 11 periods fall
        # at or below 2*dt, but no band asks for them.
        scenario = default_scenario(duration=180.0, dt=0.04)
        paths = [write_record(synth_fullspace(scenario, FocalMechanism(*fm)),
                              tmp_path / name)
                 for name, fm in (("recorded.csv", (47.0, 57.0, 95.0)),
                                  ("synthetic.csv", (45.0, 55.0, 90.0)))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["gof", *map(str, paths), "--out",
                         str(tmp_path / "out"), "--component", "ud"]) == 0
        assert [w for w in caught if issubclass(w.category, UserWarning)] == []


# Written into the GOF planes before they are saved: values a GOF plane
# never holds, but which the archive must keep bit for bit all the same.
SPECIAL_VALUES = [np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -2.5e-310,
                  np.finfo(float).tiny]


def _parsed_plane_csv(path, n_times, n_freqs):
    """times, freqs and values of a write_plane_csv file, read back with
    float()."""
    lines = path.read_text().splitlines()
    assert lines[0] == "t,f,value"
    cells = np.array([[float(c) for c in line.split(",")]
                      for line in lines[1:]]).reshape(n_times, n_freqs, 3)
    return cells[:, 0, 0], cells[0, :, 1], cells[:, :, 2]


def _same_bits(a, b):
    # Compares NaNs and signed zeros too.
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


class TestPlaneArchive:
    @pytest.fixture
    def pair(self, workspace):
        tmp_path, config_path = workspace
        assert main(["synth", "--config", str(config_path), "--out",
                     str(tmp_path / "synth")]) == 0
        return (tmp_path, config_path, tmp_path / "recorded.csv",
                tmp_path / "synth" / "synthetic.csv")

    @pytest.fixture
    def special_gofs(self, monkeypatch):
        # Patches cli.tf_gof so that every marginal and plane holds
        # SPECIAL_VALUES; returns the GOFs that cmd_gof was given, by
        # component (cmd_gof scores them in COMPONENTS order).
        k = len(SPECIAL_VALUES)
        saved = {}

        def gof_with_special_values(ref, sim, config):
            # TfGof maps its planes anew on every read, so it is replaced
            # by a snapshot of the fields that cmd_gof reads.
            gof = tf_gof(ref, sim, config)
            gof = SimpleNamespace(**{name: getattr(gof, name) for name in (
                "times", "freqs", "eg", "pg", "teg", "tpg", "feg", "fpg",
                "tfeg", "tfpg")})
            for marginal in (gof.teg, gof.tpg, gof.feg, gof.fpg):
                marginal[:k] = SPECIAL_VALUES
            for plane in (gof.tfeg, gof.tfpg):
                plane[0, :k] = SPECIAL_VALUES
                plane[-1, -k:] = SPECIAL_VALUES[::-1]
            saved[COMPONENTS[len(saved)]] = gof
            return gof

        monkeypatch.setattr(cli, "tf_gof", gof_with_special_values)
        return saved

    def test_archive_holds_the_plane_csv_values_bit_for_bit(
            self, pair, special_gofs):
        tmp_path, config_path, ref, sim = pair
        out = tmp_path / "gof_out"
        assert main(["gof", str(ref), str(sim), "--config", str(config_path),
                     "--out", str(out)]) == 0
        assert set(special_gofs) == {"ew", "ns", "ud"}
        for comp, gof in special_gofs.items():
            n_times, n_freqs = gof.tfeg.shape
            with np.load(out / f"tf_{comp}.npz", allow_pickle=False) as npz:
                assert npz.files == ["times", "freqs", "teg", "tpg", "feg",
                                     "fpg", "tfeg", "tfpg"]
                arrays = {name: npz[name] for name in npz.files}
            for name in ("tfeg", "tfpg"):
                csv_path = tmp_path / f"{name}_{comp}.csv"
                write_plane_csv(csv_path, gof.times, gof.freqs,
                                getattr(gof, name))
                times, freqs, values = _parsed_plane_csv(csv_path, n_times,
                                                         n_freqs)
                assert _same_bits(arrays["times"], times)
                assert _same_bits(arrays["freqs"], freqs)
                assert _same_bits(arrays[name], values)
                assert np.isnan(values[0, 0])
                assert np.signbit(values[0, 2])

    def test_marginals_equal_the_json_values_they_replace(
            self, pair, special_gofs):
        # The marginals left gof_summary.json for the archive. Each must
        # hold the bits that the JSON encoding of gof_summary.json gave
        # back: the list written by traceio.write_json and parsed again.
        tmp_path, config_path, ref, sim = pair
        out = tmp_path / "gof_out"
        assert main(["gof", str(ref), str(sim), "--config", str(config_path),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "gof_summary.json").read_text())
        assert set(summary) == {"record", "synthetic", "anderson", "tf"}
        for comp, gof in special_gofs.items():
            assert summary["tf"][comp] == {"EG": gof.eg, "PG": gof.pg}
            encoded = write_json(tmp_path / f"json_{comp}.json", {
                name.upper(): getattr(gof, name).tolist()
                for name in ("teg", "tpg", "feg", "fpg")})
            parsed = json.loads(encoded.read_text())
            with np.load(out / f"tf_{comp}.npz", allow_pickle=False) as npz:
                for name in ("teg", "tpg", "feg", "fpg"):
                    json_values = np.array(parsed[name.upper()], dtype=float)
                    assert np.isnan(json_values[0])
                    assert np.signbit(json_values[2])
                    assert _same_bits(npz[name], json_values)
                    assert _same_bits(npz[name], getattr(gof, name))

    def test_two_writes_give_identical_bytes(self, pair):
        tmp_path, config_path, ref, sim = pair
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            assert main(["gof", str(ref), str(sim), "--config",
                         str(config_path), "--out", str(out)]) == 0
        trees = [_tree(out) for out in outs]
        assert {"tf_ew.npz", "tf_ns.npz", "tf_ud.npz"} <= set(trees[0])
        assert trees[0] == trees[1]


class TestSweepCommand:
    def test_full_pipeline_outputs(self, workspace):
        tmp_path, config_path = workspace
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(config_path),
                     "--out", str(out)]) == 0
        run_dirs = sorted((out / "runs").iterdir())
        assert len(run_dirs) == 27
        assert (out / "runs" / "40_50_80" / "synthetic.csv").exists()
        assert (out / "runs" / "50_60_100" / "gof.json").exists()
        for comp in ("ew", "ns", "ud"):
            assert (out / f"correlations_{comp}.csv").exists()
            assert (out / f"correlation_{comp}.svg").exists()
            assert (out / f"grouped_{comp}.svg").exists()
        assert (out / "grouped_scores.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["grid"]["size"] == 27
        assert manifest["failed_runs"] == []
        assert "qualitative trends" in manifest["correlation_note"]

    def test_trees_are_identical_at_one_two_and_three_workers(
            self, workspace):
        # The chunks differ with the worker count (14 + 13 runs at one or
        # two workers, 9 + 9 + 9 at three); no output byte does.
        tmp_path, config_path = workspace
        trees = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"sweep_w{workers}"
            assert main(["sweep", "--config", str(config_path), "--out",
                         str(out), "--workers", workers]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["generated_at"]
            trees.append({str(p.relative_to(out)): p.read_bytes()
                          for p in out.rglob("*") if p.is_file()
                          and p.name != "manifest.json"} | {
                              "manifest": manifest})
        assert len(trees[0]) == 1 + 27 * 3 + 3 + 1 + 6
        assert trees[0] == trees[1] == trees[2]

    def test_external_runs_ingestion(self, workspace):
        tmp_path, config_path = workspace
        scenario_path = tmp_path / "scenario.json"
        scenario, fm, stf = None, None, None
        from seisgof.source import scenario_from_dict
        scenario, fm, stf = scenario_from_dict(
            json.loads(scenario_path.read_text()))
        external = tmp_path / "external"
        external.mkdir()
        from seisgof import build_grid
        for angles in build_grid(fm).angles():
            rec = synth_fullspace(scenario, FocalMechanism(*angles), stf)
            write_record(rec, external / "{:g}_{:g}_{:g}.csv".format(*angles))
        out = tmp_path / "sweep_ext"
        assert main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--external-runs", str(external)]) == 0
        assert len(list((out / "runs").iterdir())) == 27

    def test_partial_external_sweep_exits_two(self, workspace):
        tmp_path, config_path = workspace
        external = tmp_path / "external_partial"
        external.mkdir()
        from seisgof.source import scenario_from_dict
        scenario, fm, stf = scenario_from_dict(
            json.loads((tmp_path / "scenario.json").read_text()))
        from seisgof import build_grid
        angles_list = build_grid(fm).angles()
        for angles in angles_list[:-2]:  # leave two runs missing
            rec = synth_fullspace(scenario, FocalMechanism(*angles), stf)
            write_record(rec, external / "{:g}_{:g}_{:g}.csv".format(*angles))
        out = tmp_path / "sweep_partial"
        assert main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--external-runs", str(external)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["failed_runs"]) == 2

    def test_external_sweep_runs_in_the_pool(self, workspace, monkeypatch):
        # --workers applies to --external-runs as to synthesized runs: a
        # pool at --workers 2, and the tree of --workers 1 apart from the
        # manifest's generated_at, one missing run included.
        tmp_path, _ = workspace
        config_path = make_config_file(
            tmp_path, tmp_path / "scenario.json", tmp_path / "recorded.csv",
            grid={"strike_delta": 5.0, "dip_delta": 5.0, "rake_delta": 0.0})
        scenario, fm, stf = scenario_from_dict(
            json.loads((tmp_path / "scenario.json").read_text()))
        external = tmp_path / "external_pool"
        angles_list = build_grid(fm, (5.0, 5.0, 0.0)).angles()
        assert len(angles_list) == 9
        for i, angles in enumerate(angles_list[:-1]):  # the last is missing
            name = "{:g}_{:g}_{:g}".format(*angles)
            # Both layouts the ingestion accepts.
            path = (external / f"{name}.csv" if i % 2
                    else external / name / "synthetic.csv")
            path.parent.mkdir(parents=True, exist_ok=True)
            write_record(synth_fullspace(scenario, FocalMechanism(*angles),
                                         stf), path)
        pools = []

        class CountingPool(ensemble.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", CountingPool)
        trees = []
        for workers in (1, 2):
            out = tmp_path / f"external_w{workers}"
            assert main(["sweep", "--config", str(config_path), "--out",
                         str(out), "--workers", str(workers),
                         "--external-runs", str(external)]) == 2
            trees.append(_tree(out))
        assert pools == [2]
        assert trees[0] == trees[1]
        manifest = json.loads(trees[0]["manifest.json"])
        assert [run["run"] for run in manifest["failed_runs"]] == [
            "{:g}_{:g}_{:g}".format(*angles_list[-1])]
        assert len(manifest["runs"]) == 9


def _tree(root: Path) -> dict[str, bytes]:
    """Every file under root by relative path; the manifest without its
    generated_at."""
    tree = {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}
    manifest = json.loads(tree["manifest.json"])
    del manifest["generated_at"]
    tree["manifest.json"] = json.dumps(manifest, sort_keys=True)
    return tree


class TestReportCommand:
    def test_report_from_sweep_dir_is_idempotent(self, workspace):
        tmp_path, config_path = workspace
        out = tmp_path / "sweep_out2"
        assert main(["sweep", "--config", str(config_path),
                     "--out", str(out)]) == 0
        report_out = tmp_path / "report_out"
        assert main(["report", str(out), "--out", str(report_out)]) == 0
        for comp in ("ew", "ns", "ud"):
            a = (out / f"correlation_{comp}.svg").read_bytes()
            b = (report_out / f"correlation_{comp}.svg").read_bytes()
            assert a == b
            ga = (out / f"grouped_{comp}.svg").read_bytes()
            gb = (report_out / f"grouped_{comp}.svg").read_bytes()
            assert ga == gb

    def test_report_renders_at_the_sweeps_alpha(self, workspace):
        tmp_path, _ = workspace
        config_path = make_config_file(tmp_path, tmp_path / "scenario.json",
                                       tmp_path / "recorded.csv", alpha=0.3)
        out = tmp_path / "sweep_alpha"
        assert main(["sweep", "--config", str(config_path),
                     "--out", str(out)]) == 0
        report_out = tmp_path / "report_alpha"
        assert main(["report", str(out), "--out", str(report_out)]) == 0
        svgs = sorted(p.name for p in out.glob("*.svg"))
        assert len(svgs) == 6
        for name in svgs:
            assert ((report_out / name).read_bytes()
                    == (out / name).read_bytes())
        assert "p &#8804; 0.3)" in (out / "correlation_ew.svg").read_text()

    @staticmethod
    def report_at(swept, tmp_path, alpha):
        # The sweep's tree with its manifest's alpha replaced, and the
        # exit code of a report on it.
        run_dir = tmp_path / "edited"
        shutil.copytree(swept, run_dir)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["config"]["alpha"] = alpha
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        return main(["report", str(run_dir), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("alpha", [5, 1.0, 0.0, -0.05, "five", None,
                                       [0.05]])
    def test_report_rejects_the_alpha_the_config_rejects(
            self, swept, tmp_path, capsys, alpha):
        assert self.report_at(swept, tmp_path, alpha) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "alpha" in err["error"]["message"]
        assert not (tmp_path / "out").exists()

    def test_report_reads_a_numeric_string_alpha_as_the_config_does(
            self, swept, tmp_path):
        # load_config reads every number through float(), so "0.05" is
        # 0.05 in a config file; the report reads its manifest alike.
        assert self.report_at(swept, tmp_path, "0.05") == 0
        for path in swept.glob("*.svg"):
            assert (tmp_path / "out" / path.name).read_bytes() == (
                path.read_bytes())

    @pytest.mark.parametrize("name, column", [
        ("grouped_scores.csv", "value"), ("correlations_ew.csv", "metric")])
    def test_report_names_a_missing_csv_column(self, swept, tmp_path, capsys,
                                               name, column):
        run_dir = tmp_path / "edited"
        shutil.copytree(swept, run_dir)
        path = run_dir / name
        lines = [line.split(",") for line in path.read_text().splitlines()]
        drop = lines[0].index(column)
        path.write_text("".join(",".join(cells[:drop] + cells[drop + 1:])
                                + "\n" for cells in lines))
        rc = main(["report", str(run_dir), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"
        assert name in err["error"]["message"]
        assert repr(column) in err["error"]["message"]
        assert not (tmp_path / "out").exists()

    def test_report_names_a_truncated_csv_row(self, swept, tmp_path, capsys):
        run_dir = tmp_path / "edited"
        shutil.copytree(swept, run_dir)
        path = run_dir / "grouped_scores.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "ew,strike\n"
        path.write_text("".join(lines))
        rc = main(["report", str(run_dir), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"
        assert "grouped_scores.csv: line 2 " in err["error"]["message"]
        assert not (tmp_path / "out").exists()

    def test_report_needs_the_sweep_manifest(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for path in (DATA / "fixture_run").glob("*.csv"):
            (run_dir / path.name).write_bytes(path.read_bytes())
        rc = main(["report", str(run_dir), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "CliError"
        assert "manifest.json" in err["error"]["message"]


def _strict_json(path: Path):
    """The file's JSON; NaN or Infinity in it is an error."""
    def reject(constant):
        raise ValueError(f"{path.name}: non-JSON constant {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestMeasureWithNoScoredBand:
    # Sa periods of 15-16 ms lie only in the 60-70 Hz band, above the
    # 50-Hz Nyquist frequency of the 100-Hz records, which is skipped per
    # record. So no run has an Sa score and every Sa aggregate is
    # non-finite. (Periods in no band at all are a ConfigError.)
    @pytest.fixture
    def config_path(self, workspace):
        tmp_path, _ = workspace
        return make_config_file(tmp_path, tmp_path / "scenario.json",
                                tmp_path / "recorded.csv",
                                bands=[[0.5, 1.0], [1.0, 2.0], [60.0, 70.0]],
                                periods={"min": 0.015, "max": 0.016,
                                         "count": 8})

    def test_gof_summary_is_valid_json_with_null_aggregates(
            self, workspace, config_path):
        tmp_path, _ = workspace
        out = tmp_path / "gof_no_sa"
        ref = str(tmp_path / "recorded.csv")
        assert main(["gof", ref, ref, "--config", str(config_path),
                     "--out", str(out)]) == 0
        summary = _strict_json(out / "gof_summary.json")
        for comp in ("ew", "ns", "ud"):
            aggregates = summary["anderson"][comp]["aggregates"]
            assert aggregates["sa"] == {"max": None, "mean": None,
                                        "min": None, "quality": None}
            assert aggregates["pga"]["mean"] == 10.0

    def test_sweep_and_report_write_every_output(self, workspace,
                                                 config_path):
        tmp_path, _ = workspace
        out = tmp_path / "sweep_no_sa"
        assert main(["sweep", "--config", str(config_path),
                     "--out", str(out)]) == 0
        gof_files = sorted((out / "runs").glob("*/gof.json"))
        assert len(gof_files) == 27
        for path in gof_files:
            body = _strict_json(path)
            assert body["anderson"]["ud"]["aggregates"]["sa"]["mean"] is None
        manifest = _strict_json(out / "manifest.json")
        assert manifest["failed_runs"] == []
        assert set(manifest["files"]) >= {
            "grouped_scores.csv", "grouped_ew.svg", "correlation_ud.svg"}
        rows = (out / "grouped_scores.csv").read_text().splitlines()
        sa_rows = [row for row in rows if row.split(",")[3] == "sa"]
        assert len(sa_rows) == 3 * 9
        assert all(row.endswith(",9,,,,") for row in sa_rows)
        for comp in ("ew", "ns", "ud"):
            for row in (out / f"correlations_{comp}.csv").read_text(
                    ).splitlines():
                if ",sa," in row:
                    assert row.endswith(",,,no,27")
        # The report replays the blank groups from the grouped CSV.
        report_out = tmp_path / "report_no_sa"
        assert main(["report", str(out), "--out", str(report_out)]) == 0
        for name in sorted(p.name for p in out.glob("*.svg")):
            assert ((report_out / name).read_bytes()
                    == (out / name).read_bytes())


class TestErrorHandling:
    def test_missing_config_gives_json_error(self, tmp_path, capsys):
        rc = main(["synth", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    def test_sidecar_that_is_not_an_object_gives_json_error(
            self, workspace, capsys):
        tmp_path, config_path = workspace
        (tmp_path / "recorded.meta.json").write_text("[1]")
        record = str(tmp_path / "recorded.csv")
        rc = main(["gof", record, record, "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"
        assert "recorded.meta.json" in err["error"]["message"]

    def test_bad_trace_gives_json_error(self, workspace, capsys):
        tmp_path, config_path = workspace
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        rc = main(["gof", str(bad), str(bad), "--config", str(config_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "t,ew,ns,ud" in err["error"]["message"]

    @pytest.mark.parametrize("body", [
        {"grid": [1, 2, 3]}, {"periods": 5}, {"tf": "x"},
        {"duration_thresholds": 5}, {"alpha": None}, {"workers": None},
        {"max_lag": [1]}, {"grid": {"strike_delta": None}},
    ])
    def test_wrongly_typed_value_gives_json_error(self, tmp_path, capsys,
                                                  body):
        scenario_path, _, _ = make_scenario_file(tmp_path)
        config_path = make_config_file(tmp_path, scenario_path, **body)
        rc = main(["synth", "--config", str(config_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert next(iter(body)) in err["error"]["message"]

    @pytest.mark.parametrize("body, key", [
        ({"workers": float("inf")}, "workers"),
        ({"periods": {"count": float("inf")}}, "periods.count"),
        ({"tf": {"nfreq": float("inf")}}, "tf.nfreq"),
        ({"max_lag": float("inf")}, "max_lag"),
        ({"max_lag": float("nan")}, "max_lag"),
        ({"grid": {"strike_delta": float("nan")}}, "grid.strike_delta"),
        ({"tf": {"decay": float("nan")}}, "tf.decay"),
        ({"bands": [[0.5, float("inf")]]}, "bands[0]"),
        ({"bands": [[0.5, 1.0], [float("nan"), 2.0]]}, "bands[1]"),
    ], ids=["workers-inf", "periods-count-inf", "tf-nfreq-inf", "max-lag-inf",
            "max-lag-nan", "strike-delta-nan", "tf-decay-nan", "band-edge-inf",
            "band-edge-nan"])
    def test_number_that_is_not_finite_gives_json_error(self, tmp_path,
                                                        capsys, body, key):
        # json.dumps writes these as JSON's Infinity and NaN.
        scenario_path, _, _ = make_scenario_file(tmp_path)
        config_path = make_config_file(tmp_path, scenario_path, **body)
        rc = main(["synth", "--config", str(config_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert err["error"]["message"].startswith(f"{key}: ")

    @pytest.mark.parametrize("key", ["hypocenter", "receiver"])
    def test_scenario_without_geometry_gives_json_error(self, tmp_path,
                                                        capsys, key):
        scenario_path, _, _ = make_scenario_file(tmp_path)
        scenario = json.loads(scenario_path.read_text())
        del scenario[key]
        scenario_path.write_text(json.dumps(scenario))
        config_path = make_config_file(tmp_path, scenario_path)
        rc = main(["synth", "--config", str(config_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "CliError"
        assert repr(key) in err["error"]["message"]

    @pytest.mark.parametrize("edit,key", [
        (lambda s: s["medium"].pop("vs"), "'vs'"),
        (lambda s: s.update(mechanism=[45.0, 55.0, 90.0]), "'mechanism'"),
    ], ids=["medium-without-vs", "list-mechanism"])
    def test_malformed_scenario_gives_json_error(self, tmp_path, capsys,
                                                 edit, key):
        scenario_path, _, _ = make_scenario_file(tmp_path)
        scenario = json.loads(scenario_path.read_text())
        edit(scenario)
        scenario_path.write_text(json.dumps(scenario))
        config_path = make_config_file(tmp_path, scenario_path)
        rc = main(["synth", "--config", str(config_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "CliError"
        assert "scenario.json" in err["error"]["message"]
        assert key in err["error"]["message"]

    @pytest.mark.parametrize("edit,field", [
        (lambda s: s["mechanism"].update(strike=float("nan")), "strike"),
        (lambda s: s["mechanism"].update(rake=float("inf")), "rake"),
        (lambda s: s.update(duration=float("inf")), "duration"),
        (lambda s: s.update(dt=float("nan")), "dt"),
        (lambda s: s.update(m0=float("inf")), "m0"),
        (lambda s: s["hypocenter"].__setitem__(0, float("nan")),
         "hypocenter"),
        (lambda s: s["receiver"].__setitem__(1, float("-inf")), "receiver"),
        (lambda s: s["medium"].update(vp=float("inf")), "vp"),
        (lambda s: s["stf"].update(rise_time=float("inf")), "rise_time"),
    ], ids=["strike-nan", "rake-inf", "duration-inf", "dt-nan", "m0-inf",
            "hypocenter-nan", "receiver-inf", "vp-inf", "rise-time-inf"])
    def test_scenario_number_that_is_not_finite_gives_json_error(
            self, tmp_path, capsys, edit, field):
        # json.loads reads NaN and Infinity. A NaN strike used to become
        # 0.0 and an infinite duration an OverflowError traceback.
        scenario_path, _, _ = make_scenario_file(tmp_path)
        scenario = json.loads(scenario_path.read_text())
        edit(scenario)
        scenario_path.write_text(json.dumps(scenario))
        config_path = make_config_file(tmp_path, scenario_path)
        rc = main(["synth", "--config", str(config_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValueError"
        assert err["error"]["message"].startswith(f"{field} must be finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("periods", [
        {"min": 30.0, "max": 100.0, "count": 8},
        {"min": 2.0 * (1 + 1e-15), "max": 5.0, "count": 3},
        {"min": 0.1, "max": 0.5 * (1 - 1e-15), "count": 3}])
    def test_sa_periods_in_no_band_are_rejected(self, tmp_path, capsys,
                                                periods):
        # The bands span 0.5-2 Hz, so periods 0.5-2 s; each config misses
        # them, the last two by an ulp.
        scenario_path, _, _ = make_scenario_file(tmp_path)
        config_path = make_config_file(tmp_path, scenario_path,
                                       periods=periods)
        with pytest.raises(ConfigError, match="no Sa period lies in a band"):
            load_config(config_path)
        assert main(["synth", "--config", str(config_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert err["error"]["message"].startswith("no Sa period")

    @pytest.mark.parametrize("periods", [
        {"min": 2.0, "max": 5.0, "count": 3},
        {"min": 0.1, "max": 0.5, "count": 3}])
    def test_sa_period_on_a_band_edge_is_kept(self, tmp_path, periods):
        # The scorer's band test includes both edges, and so does the
        # config's.
        scenario_path, _, _ = make_scenario_file(tmp_path)
        config_path = make_config_file(tmp_path, scenario_path,
                                       periods=periods)
        assert load_config(config_path).anderson.periods.size == 3

    @pytest.mark.parametrize("amplitude", [12.0, 10.5, 0.0, -1.0])
    def test_tf_amplitude_outside_the_gof_scale_is_rejected(
            self, tmp_path, capsys, amplitude):
        scenario_path, _, _ = make_scenario_file(tmp_path)
        config_path = make_config_file(
            tmp_path, scenario_path,
            tf={"fmin": 0.5, "fmax": 5.0, "nfreq": 10, "amplitude": amplitude})
        rc = main(["synth", "--config", str(config_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "amplitude" in err["error"]["message"]

    @pytest.mark.parametrize("omega0", [0.0, -6.0])
    def test_tf_omega0_that_is_not_positive_is_rejected(self, tmp_path,
                                                        capsys, omega0):
        scenario_path, _, _ = make_scenario_file(tmp_path)
        config_path = make_config_file(
            tmp_path, scenario_path,
            tf={"fmin": 0.5, "fmax": 5.0, "nfreq": 10, "omega0": omega0})
        rc = main(["synth", "--config", str(config_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {
            "type": "ConfigError",
            "message": f"tf: wavelet_omega0={omega0} must be positive"}

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_flag_below_one_gives_json_error(self, workspace, capsys,
                                                     workers):
        tmp_path, config_path = workspace
        out = tmp_path / "never_written"
        rc = main(["sweep", "--config", str(config_path), "--out", str(out),
                   "--workers", workers])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "ConfigError", "message":
                                f"workers must be >= 1, got {workers}"}
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_into_a_regular_file_fails_before_any_run(
            self, workspace, capsys, monkeypatch, workers):
        # An --out that cannot be a directory is the JSON error before any
        # run is synthesized, in this process or in a pool worker.
        tmp_path, config_path = workspace
        out = tmp_path / "taken"
        out.write_text("a regular file\n")
        marker = tmp_path / "synthesized"
        synth = ensemble.synth_fullspace

        def marking_synth(*args):
            marker.touch()
            return synth(*args)

        monkeypatch.setattr(ensemble, "synth_fullspace", marking_synth)
        rc = main(["sweep", "--config", str(config_path), "--out", str(out),
                   "--workers", workers])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "FileExistsError"
        assert out.read_text() == "a regular file\n"
        assert not marker.exists()

    @pytest.mark.parametrize("command", ["synth", "sweep"])
    def test_boxcar_stf_is_an_unknown_kind(self, workspace, capsys, command):
        # A boxcar moment rate has zero acceleration everywhere, so the
        # kind is gone rather than synthesizing zeros.
        tmp_path, config_path = workspace
        scenario_path = tmp_path / "scenario.json"
        scenario = json.loads(scenario_path.read_text())
        scenario["stf"] = {"kind": "boxcar", "rise_time": 0.8}
        scenario_path.write_text(json.dumps(scenario))
        out = tmp_path / "never_written"
        rc = main([command, "--config", str(config_path), "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "ValueError",
                                "message": "unknown stf kind: 'boxcar'"}
        assert not out.exists()

    def test_sweep_requires_reference(self, tmp_path, capsys):
        scenario_path, _, _ = make_scenario_file(tmp_path)
        config_path = make_config_file(tmp_path, scenario_path)
        rc = main(["sweep", "--config", str(config_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "reference" in err["error"]["message"]


class TestPipelineConfig:
    # PipelineConfig checks its own fields, so a value set in code, by
    # load_config (flags included) or by dataclasses.replace meets one check.
    @pytest.mark.parametrize("fields, message", [
        ({"workers": 0}, "workers must be >= 1, got 0"),
        ({"workers": -2}, "workers must be >= 1, got -2"),
        ({"alpha": 1.0}, "alpha must be in (0, 1), got 1.0"),
        ({"alpha": 0.0}, "alpha must be in (0, 1), got 0.0"),
        ({"grid_deltas": (5.0, -1.0, 10.0)},
         "grid deltas must be non-negative"),
    ])
    def test_a_field_out_of_range_is_a_config_error(self, fields, message):
        with pytest.raises(ConfigError) as built:
            PipelineConfig(**fields)
        with pytest.raises(ConfigError) as replaced:
            dataclasses.replace(PipelineConfig(), **fields)
        assert str(built.value) == str(replaced.value) == message

    def test_fields_cannot_be_assigned(self):
        cfg = PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.workers = 2
        assert cfg.workers == 1

    def test_defaults_without_a_config_file(self, monkeypatch):
        monkeypatch.delenv("SEISGOF_WORKERS", raising=False)
        monkeypatch.delenv("SEISGOF_OUTPUT_DIR", raising=False)
        cfg, default = load_config(), PipelineConfig()
        assert config_echo(cfg) == config_echo(default)
        assert ((cfg.workers, cfg.output_dir, cfg.base_dir)
                == (default.workers, default.output_dir, default.base_dir))


class TestEnvironmentOverrides:
    def test_apply_without_a_config_file(self, monkeypatch):
        monkeypatch.setenv("SEISGOF_WORKERS", "3")
        monkeypatch.setenv("SEISGOF_OUTPUT_DIR", "env_out")
        cfg = load_config()
        assert (cfg.workers, cfg.output_dir) == (3, Path("env_out"))
        monkeypatch.setenv("SEISGOF_WORKERS", "0")
        with pytest.raises(ConfigError) as raised:
            load_config()
        assert str(raised.value) == "workers must be >= 1, got 0"

    @pytest.fixture
    def three_run_config(self, workspace):
        tmp_path, _ = workspace
        return tmp_path, make_config_file(
            tmp_path, tmp_path / "scenario.json", tmp_path / "recorded.csv",
            grid={"strike_delta": 5.0, "dip_delta": 0.0, "rake_delta": 0.0})

    def test_workers_flag_replaces_an_out_of_range_env_value(
            self, three_run_config, monkeypatch):
        tmp_path, config_path = three_run_config
        pools = []

        class CountingPool(ensemble.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setenv("SEISGOF_WORKERS", "0")
        assert main(["sweep", "--config", str(config_path), "--out",
                     str(tmp_path / "flagged"), "--workers", "2"]) == 0
        assert pools == [2]
        assert load_config(config_path, workers=2).workers == 2
        # A flag's value is taken without reading the environment's.
        monkeypatch.setenv("SEISGOF_WORKERS", "two")
        assert load_config(config_path, workers=1).workers == 1

    def test_out_of_range_env_value_without_a_flag_fails(
            self, three_run_config, monkeypatch, capsys):
        tmp_path, config_path = three_run_config
        monkeypatch.setenv("SEISGOF_WORKERS", "0")
        out = tmp_path / "unflagged"
        assert main(["sweep", "--config", str(config_path), "--out",
                     str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": {
            "type": "ConfigError", "message": "workers must be >= 1, got 0"}}
        assert not out.exists()

    def test_gof_without_a_config_writes_into_the_env_output_dir(
            self, workspace, monkeypatch):
        tmp_path, _ = workspace
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SEISGOF_OUTPUT_DIR", "env_out")
        assert main(["gof", "recorded.csv", "recorded.csv",
                     "--component", "ud"]) == 0
        assert (tmp_path / "env_out" / "gof_summary.json").exists()
        assert not (tmp_path / "out").exists()
        # An explicit --out still wins over the environment.
        assert main(["gof", "recorded.csv", "recorded.csv",
                     "--component", "ud", "--out", "flag_out"]) == 0
        assert (tmp_path / "flag_out" / "gof_summary.json").exists()

    def test_report_writes_into_the_env_output_dir(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SEISGOF_OUTPUT_DIR", "env_out")
        assert main(["report", str(DATA / "fixture_run")]) == 0
        assert (tmp_path / "env_out" / "correlation_ew.svg").exists()
        assert not (tmp_path / "out").exists()

    def test_help_names_the_environment_overrides(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "SEISGOF_WORKERS" in text
        assert "SEISGOF_OUTPUT_DIR" in text

    def test_workers_and_output_dir(self, workspace, monkeypatch):
        tmp_path, config_path = workspace
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("SEISGOF_OUTPUT_DIR", str(env_out))
        monkeypatch.setenv("SEISGOF_WORKERS", "2")
        assert main(["synth", "--config", str(config_path)]) == 0
        assert (env_out / "synthetic.csv").exists()
        echo = json.loads((env_out / "manifest.json").read_text())["config"]
        assert "workers" not in echo
        assert "output_dir" not in echo

    def test_echo_ignores_runtime_only_settings(self, workspace, monkeypatch):
        # Criterion 8 in the fast suite: the worker count and the output
        # location must not reach the manifest's byte-compared config.
        _, config_path = workspace
        monkeypatch.setenv("SEISGOF_WORKERS", "1")
        monkeypatch.setenv("SEISGOF_OUTPUT_DIR", "out_a")
        first = config_echo(load_config(config_path))
        monkeypatch.setenv("SEISGOF_WORKERS", "2")
        monkeypatch.setenv("SEISGOF_OUTPUT_DIR", "out_b")
        assert config_echo(load_config(config_path)) == first

    def test_echo_ignores_where_the_inputs_sit(self, workspace, tmp_path_factory):
        # The same inputs in two directories must give the same manifest
        # config, so input paths are echoed as written in the config file.
        src_dir, config_path = workspace
        echoes = []
        for name in ("copy_a", "copy_b"):
            dst = tmp_path_factory.mktemp(name)
            for path in src_dir.iterdir():
                if path.is_file():
                    (dst / path.name).write_bytes(path.read_bytes())
            echoes.append(config_echo(load_config(dst / config_path.name)))
        assert echoes[0] == echoes[1]
        assert echoes[0]["scenario"] == "scenario.json"
        assert echoes[0]["reference"] == "recorded.csv"

    def test_echo_loads_back_to_itself(self, workspace):
        # Every echoed key off its default. The echo names the grid
        # "grid_deltas", so it is written back as the config's "grid".
        _, config_path = workspace
        body = json.loads(config_path.read_text())
        body.update(
            grid={"strike_delta": 2.5, "dip_delta": 7.5, "rake_delta": 15.0},
            alpha=0.1, bands=[[0.3, 0.9], [0.9, 2.7]], damping=0.07,
            duration_thresholds=[0.1, 0.9], max_lag=0.25,
            periods={"min": 0.1, "max": 5.0, "count": 12},
            tf={"fmin": 0.3, "fmax": 6.0, "nfreq": 14, "omega0": 5.5,
                "amplitude": 9.0, "decay": 1.5})
        config_path.write_text(json.dumps(body))
        echo = config_echo(load_config(config_path))
        default = config_echo(PipelineConfig())
        assert [key for key in echo if echo[key] == default[key]] == []
        assert echo["tf"] == body["tf"]
        config_path.write_text(json.dumps(dict(echo, grid=dict(zip(
            ("strike_delta", "dip_delta", "rake_delta"),
            echo["grid_deltas"])))))
        assert config_echo(load_config(config_path)) == echo

    @pytest.mark.parametrize("periods", [
        {"min": 0.02, "max": 5.0, "count": 7},
        {"min": 0.03, "max": 0.7, "count": 9}])
    def test_echo_gives_the_period_range_as_read(self, workspace, periods):
        # The ends of the log-spaced grid can differ from the config's
        # numbers by an ulp; the echo must not.
        _, config_path = workspace
        body = json.loads(config_path.read_text())
        config_path.write_text(json.dumps(dict(body, periods=periods)))
        cfg = load_config(config_path)
        assert config_echo(cfg)["periods"] == periods
        assert cfg.anderson.periods.size == periods["count"]

    def test_echo_gives_a_grid_set_in_code_by_its_ends(self, workspace):
        # A grid that the range read no longer generates is echoed as it is
        # scored, by its own ends.
        _, config_path = workspace
        cfg = load_config(config_path)
        periods = np.logspace(-1.0, 0.5, 7)
        cfg = dataclasses.replace(cfg, anderson=dataclasses.replace(
            cfg.anderson, periods=periods))
        assert config_echo(cfg)["periods"] == {
            "min": float(periods[0]), "max": float(periods[-1]), "count": 7}

    def test_default_and_fixture_configs_load(self, tmp_path):
        # The default config and the committed fixture's echoed one pass
        # every config check, Sa's band check included, and echo alike.
        echo = json.loads((DATA / "fixture_run" / "manifest.json")
                          .read_text())["config"]
        assert config_echo(PipelineConfig()) == echo
        body = {key: value for key, value in echo.items()
                if value is not None and key != "grid_deltas"}
        body["grid"] = dict(zip(("strike_delta", "dip_delta", "rake_delta"),
                                echo["grid_deltas"]))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(body))
        assert config_echo(load_config(path)) == echo


def test_cli_starts_without_scipy(workspace):
    # scipy's signal stack takes most of the CLI's start-up. The program
    # runs no scipy at all: neither filtering, even of a long record, nor
    # a pooled sweep and its report, whose p-values are computed in the
    # parent, loads a scipy module.
    tmp_path, config_path = workspace
    src = str(Path(seisgof.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """
import sys, numpy as np, seisgof.cli
from seisgof.signal import bandpass_bank
def loaded():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
def filtered(n):
    bandpass_bank(np.ones((1, n)), 0.02, [(1.0, 2.0)])
print(loaded())
filtered(601)
print(loaded())
filtered(30_001)
print(loaded())
config, out = sys.argv[1:]
assert seisgof.cli.main(["sweep", "--config", config, "--out", out,
                         "--workers", "2"]) == 0
assert seisgof.cli.main(["report", out, "--out", out + "_report"]) == 0
print(loaded())
"""
    out = subprocess.run(
        [sys.executable, "-c", code, str(config_path), str(tmp_path / "s")],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split("\n")[:4] == ["[]", "[]", "[]", "[]"]
    assert (tmp_path / "s_report" / "correlation_ud.svg").is_file()


def test_only_a_pooled_sweep_loads_the_process_pool(workspace):
    # multiprocessing costs every command 12-20 ms of start-up, and only a
    # sweep with --workers above 1 starts a pool: importing the CLI, a gof
    # and a serial sweep load neither multiprocessing nor the pool module.
    tmp_path, config_path = workspace
    src = str(Path(seisgof.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("SEISGOF_WORKERS", None)
    code = """
import sys, seisgof.cli
def loaded():
    return sorted(m for m in sys.modules
                  if m.split('.')[0] == 'multiprocessing'
                  or m == 'concurrent.futures.process')
print(loaded())
config, record, out = sys.argv[1:]
assert seisgof.cli.main(["gof", record, record, "--config", config,
                         "--out", out + "_gof", "--component", "ud"]) == 0
print(loaded())
assert seisgof.cli.main(["sweep", "--config", config, "--out", out,
                         "--workers", "1"]) == 0
print(loaded())
from seisgof import ensemble
print(ensemble.ProcessPoolExecutor.__module__)
"""
    out = subprocess.run(
        [sys.executable, "-c", code, str(config_path),
         str(tmp_path / "recorded.csv"), str(tmp_path / "s")],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split("\n")[:4] == [
        "[]", "[]", "[]", "concurrent.futures.process"]
