import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import seisgof
from seisgof import (FocalMechanism, build_grid, default_scenario, ensemble,
                     synth_fullspace)
from seisgof.cli import main
from seisgof.config import config_echo, load_config
from seisgof.source import scenario_from_dict, scenario_to_dict
from seisgof.traceio import read_record, write_record

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
        assert (out / "tfeg_ew.csv").exists()
        assert (out / "tfpg_ud.csv").exists()

    def test_component_filter(self, workspace):
        tmp_path, config_path = workspace
        out = tmp_path / "gof_ew"
        ref = tmp_path / "recorded.csv"
        assert main(["gof", str(ref), str(ref), "--config", str(config_path),
                     "--out", str(out), "--component", "ew"]) == 0
        summary = json.loads((out / "gof_summary.json").read_text())
        assert set(summary["tf"]) == {"ew"}
        assert not (out / "tfeg_ns.csv").exists()

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


class TestErrorHandling:
    def test_missing_config_gives_json_error(self, tmp_path, capsys):
        rc = main(["synth", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

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

    def test_sweep_requires_reference(self, tmp_path, capsys):
        scenario_path, _, _ = make_scenario_file(tmp_path)
        config_path = make_config_file(tmp_path, scenario_path)
        rc = main(["sweep", "--config", str(config_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "reference" in err["error"]["message"]


class TestEnvironmentOverrides:
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


def test_cli_starts_without_scipy():
    # scipy's signal stack takes most of the CLI's start-up. A report's
    # p-values load scipy.special when they are computed; filtering, even
    # of a long record, loads no scipy module.
    src = str(Path(seisgof.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """
import sys, numpy as np, seisgof.cli
from seisgof.signal import TimeSeries, Unit, bandpass_bank
def loaded():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
def filtered(n):
    ts = TimeSeries(0.02, 0.0, np.ones(n), Unit.ACCELERATION)
    bandpass_bank([ts], [(1.0, 2.0)])
print(loaded())
filtered(601)
print(loaded())
filtered(30_001)
print(loaded())
"""
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.split("\n")[:3] == ["[]", "[]", "[]"]
