"""Tests of the benchmark's own code.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from inputs import (DEFAULT_SEED, REFERENCE, reference_mechanism,  # noqa: E402
                    write_inputs)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- seeded generator --------------------------------------------------------

@pytest.mark.parametrize("workload", ["sweep-w1", "gof-long"])
def test_inputs_are_identical_for_one_seed(tmp_path, workload):
    first = write_inputs(workload, 7, tmp_path / "a")
    again = write_inputs(workload, 7, tmp_path / "b")
    other = write_inputs(workload, 8, tmp_path / "c")
    assert first == again
    assert first["recorded.csv"] != other["recorded.csv"]


def test_default_seed_keeps_the_criterion_8_reference_mechanism():
    assert reference_mechanism(DEFAULT_SEED) == REFERENCE == (47.0, 57.0, 95.0)
    assert reference_mechanism(3) == reference_mechanism(3)
    assert reference_mechanism(3) != REFERENCE


# -- metric names and units --------------------------------------------------

def test_declared_metrics_match_the_emitted_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind, units in (("end_to_end", run.END_TO_END_UNITS),
                        ("per_layer", run.LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[kind]} == units
    for name, unit in {**run.END_TO_END_UNITS, **run.LAYER_UNITS}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


class _FakeWorkload:
    attempted = 0
    cpus = [0]
    failed = 0

    def setup_seconds(self):
        return 1.25

    def invoke(self):
        self.attempted += 27
        return run.Invocation(0, 2.0, 2.5, 100.0)


def test_timed_run_scales_times_by_the_mean_host_speed(monkeypatch):
    # Windows alternate between the reference speed and half of it.
    speeds = iter([1.0, 2.0] * 20)
    monkeypatch.setattr(hostspeed, "window",
                        lambda cpus: hostspeed.REFERENCE_S * next(speeds))
    wl = _FakeWorkload()
    metrics, details = run.timed_run(wl, seconds=5.0)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    # 2 s per invocation: a third would overrun 5 s by more than half.
    quartiles = details["unscaled_quartiles"]
    assert quartiles["wall_s"]["n"] == 2
    assert quartiles["setup_s"]["n"] == run.SETUP_REPEATS
    # 8 windows: the first, then one after each of 2 invocations and
    # 5 probes.
    assert details["host_speed"]["window_s"]["n"] == 8
    assert metrics["wall_s"] == pytest.approx(2.0 / 1.5)
    assert metrics["cpu_s"] == pytest.approx(2.5 / 1.5)
    assert metrics["setup_s"] == pytest.approx(1.25 / 1.5)
    assert metrics["peak_rss_mb"] == 100.0
    assert metrics["ok_frac"] == 1.0


def test_host_speed_window_times_the_kernel_and_keeps_the_cpu_set():
    own = os.sched_getaffinity(0)
    assert 0.0 < hostspeed.window(sorted(own)) < 1.0
    assert os.sched_getaffinity(0) == own
    assert hostspeed.scale([hostspeed.REFERENCE_S] * 3) == 1.0


def test_layer_metrics_emit_every_per_layer_metric():
    worker = {"spans": [[0, None, "signal.bandpass", 0.0, 3.0]],
              "counts": {}, "keys": {"signal.bandpass.inputs": ["k1"]}}
    trace = {"import_s": 1.0,
             "spans": [[0, None, "gof_anderson.score_pair", 0.0, 2.0],
                       [1, 0, "signal.bandpass", 0.5, 1.0],
                       [2, None, spans.HOOKS, 2.0, 2.25]],
             "counts": {}, "keys": {"signal.bandpass.inputs": ["k1"]},
             "workers": [worker]}
    m = run.layer_metrics(trace, traced_wall=4.0, untraced_wall=3.5)
    assert set(m) == set(run.LAYER_UNITS)
    assert m["gof_anderson.score_pair.self_s"] == 1.5
    assert m["signal.bandpass.self_s"] == 3.5
    assert m["signal.bandpass.calls"] == 2
    assert m["signal.bandpass.repeat_frac"] == 0.5
    assert m["trace_overhead_s"] == 0.5
    # Worker spans overlap the parent and are not part of its wall time.
    assert m["unattributed_s"] == pytest.approx(4.0 - 1.0 - 2.0)


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_direct_children_of_nested_spans():
    Span = spans.Span
    tree = [Span(0, None, "root", 0.0, 10.0),
            Span(1, 0, "a", 1.0, 4.0),
            Span(2, 1, "b", 2.0, 3.0),
            Span(3, 0, "a", 5.0, 6.0),
            Span(4, 3, "b", 5.5, 5.75)]
    assert spans.self_times(tree) == {"root": 6.0, "a": 2.75, "b": 1.25}


def test_tracer_links_nested_spans_to_their_parents():
    tracer = spans.Tracer("unused")
    with tracer.span("outer"):
        with tracer.span("inner"):
            assert tracer.current == "inner"
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert (outer.parent, first.parent, second.parent) == (None, 0, 0)
    selfs = spans.self_times(tracer.spans)
    assert sum(selfs.values()) == pytest.approx(outer.end - outer.start)


def test_traced_cli_records_layers_at_their_call_sites(tmp_path):
    write_inputs("sweep-w1", 1, tmp_path)
    (tmp_path / "recorded.csv").rename(tmp_path / "a.csv")
    (tmp_path / "recorded.meta.json").rename(tmp_path / "a.meta.json")
    write_inputs("sweep-w1", 2, tmp_path)
    subprocess.run([sys.executable, str(BENCH / "traced_cli.py"),
                    "trace.json", "gof", "a.csv", "recorded.csv",
                    "--out", "out"],
                   cwd=tmp_path, env=run.child_env(), check=True,
                   capture_output=True, timeout=120)
    trace = json.loads((tmp_path / "trace.json").read_text())
    m = run.layer_metrics(trace, 1.0, 1.0)
    assert m["imeasures.response_spectrum.calls"] == 42
    assert m["signal.bandpass.distinct_designs"] == 7
    assert m["gof_tf.cwt.ffts"] == 6 * (1 + 2 * 40)
    assert m["gof_tf.write_plane_csv.calls"] == 6
    assert m["traceio.read_record.calls"] == 2
    assert m["report.bytes_written"] > 0


# -- output checks -----------------------------------------------------------

def _sweep_tree(root: Path, score: float = 7.5) -> None:
    for i in range(run.GRID_RUNS):
        run_dir = root / "runs" / f"{i}_55_90"
        run_dir.mkdir(parents=True)
        aggregates = {im: {"max": score, "mean": score, "min": score}
                      for im in ("pga", "sa")}
        (run_dir / "gof.json").write_text(json.dumps({
            "error": None,
            "tf": {"ew": {"EG": 8.0, "PG": 9.0}},
            "anderson": {"ew": {"aggregates": aggregates, "skipped": []}}}))
    (root / "manifest.json").write_text(json.dumps({
        "config": {"workers": 1}, "failed_runs": [],
        "generated_at": "2026-01-01T00:00:00"}))


def _checker(tmp_path):
    return run.Workload("sweep-w1", 5, tmp_path / "work")


def test_output_check_accepts_a_repeat_that_differs_only_in_timestamp(
        tmp_path):
    _sweep_tree(tmp_path / "t")
    wl = _checker(tmp_path)
    ok = run.Invocation(0, 1.0, 1.0, 1.0)
    assert wl.check(ok, tmp_path / "t", repeat=True) == []
    manifest = tmp_path / "t" / "manifest.json"
    body = json.loads(manifest.read_text())
    body["generated_at"] = "2026-02-02T00:00:00"
    manifest.write_text(json.dumps(body))
    assert wl.check(ok, tmp_path / "t", repeat=True) == []


def test_output_check_rejects_a_tampered_tree(tmp_path):
    _sweep_tree(tmp_path / "t")
    wl = _checker(tmp_path)
    ok = run.Invocation(0, 1.0, 1.0, 1.0)
    assert wl.check(ok, tmp_path / "t", repeat=True) == []
    with open(tmp_path / "t" / "runs" / "0_55_90" / "gof.json", "a") as fh:
        fh.write(" ")
    problems = wl.check(ok, tmp_path / "t", repeat=True)
    assert len(problems) == 1
    assert "differs from the first repeat" in problems[0]


def test_output_check_rejects_scores_outside_0_to_10(tmp_path):
    _sweep_tree(tmp_path / "t", score=10.5)
    problems = _checker(tmp_path).check(run.Invocation(0, 1.0, 1.0, 1.0),
                                        tmp_path / "t", repeat=True)
    assert problems and all("not finite in [0, 10]" in p for p in problems)
    assert check.range_problems({"x": float("nan"), "y": -0.1, "z": 0.0}) == [
        "score x=nan not finite in [0, 10]",
        "score y=-0.1 not finite in [0, 10]"]


def test_output_check_rejects_failures_and_missing_runs(tmp_path):
    _sweep_tree(tmp_path / "t")
    manifest = tmp_path / "t" / "manifest.json"
    body = json.loads(manifest.read_text())
    body["failed_runs"] = [{"run": "0_55_90", "error": "ValueError: x"}]
    manifest.write_text(json.dumps(body))
    problems = check.sweep_problems(tmp_path / "t", run.GRID_RUNS + 1)
    assert len(problems) == 2
    problems = _checker(tmp_path).check(run.Invocation(2, 1.0, 1.0, 1.0),
                                        tmp_path / "t", repeat=False)
    assert problems[0] == "exit status 2"


def test_golden_check_uses_the_stated_tolerance():
    golden = {"a": 5.0}
    assert check.golden_problems({"a": 5.0 + 5e-7}, golden, 1e-6) == []
    assert check.golden_problems({"a": 5.0 + 2e-6}, golden, 1e-6)
    assert check.golden_problems({"b": 5.0}, golden, 1e-6)


def test_worker_count_difference_is_named_by_key(tmp_path):
    _sweep_tree(tmp_path / "w1")
    _sweep_tree(tmp_path / "w2")
    manifest = tmp_path / "w2" / "manifest.json"
    body = json.loads(manifest.read_text())
    body["config"]["workers"] = 2
    manifest.write_text(json.dumps(body))
    diffs = check.tree_differences(tmp_path / "w1", tmp_path / "w2")
    assert diffs == list(check.EXPECTED_WORKER_DIFFS)
