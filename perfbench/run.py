"""seisgof benchmark: drive the real CLI on one seeded workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-w1 --seed 0 --seconds 20 \
        --trace 0

With ``--trace 0`` the CLI runs as fresh untraced subprocesses for about
``--seconds`` seconds on fixed CPUs and the end-to-end metrics are
reported as medians over the run, with times scaled to a reference host
speed (``hostspeed.py``). With ``--trace 1`` one untraced and one traced
invocation run and the per-layer metrics are reported. Every invocation's
output tree is checked. The last stdout line is the JSON result; the line
before it holds the details (environment, seed, input digests, quartiles,
tree digest).
"""

from __future__ import annotations

import os

THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_CAPS)  # before numpy loads, here and in children

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

# name -> (CLI command, --workers)
WORKLOADS = {"sweep-w1": ("sweep", 1), "sweep-w2": ("sweep", 2),
             "gof-long": ("gof", None)}
GRID_RUNS = 27
SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_TOLERANCE = 1e-6  # absolute, on the 0-10 score scale

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s", "ok_frac": "ratio"}

# Layers timed by self time and counted by calls.
SELF_TIMED = (
    "config.load_config", "source.scenario_from_dict",
    "source.synth_fullspace", "signal.align_records", "signal.bandpass",
    "imeasures.compute_intensity_vector", "imeasures.response_spectrum",
    "imeasures.cross_correlation", "gof_anderson.score_pair", "gof_tf.cwt",
    "gof_tf.record_tf_gof", "gof_tf.write_plane_csv", "traceio.read_record",
    "traceio.write_record", "ensemble.run_sweep",
    "ensemble.correlation_tables", "ensemble.group_report")
CALL_COUNTED = (
    "source.synth_fullspace", "signal.bandpass",
    "imeasures.compute_intensity_vector", "imeasures.response_spectrum",
    "imeasures.cross_correlation", "gof_tf.cwt", "gof_tf.write_plane_csv",
    "traceio.read_record", "traceio.write_record")
REPEATS = ("signal.bandpass", "imeasures.compute_intensity_vector",
           "gof_tf.cwt")
COUNTED = {  # tracer counters reported as they are, with their units
    "imeasures.response_spectrum.oscillator_steps": "count",
    "gof_tf.cwt.ffts": "count",
    "gof_tf.write_plane_csv.bytes": "B",
    "traceio.read_record.bytes": "B",
    "traceio.write_record.bytes": "B",
    "report.bytes_written": "B",
    "ensemble.run_sweep.task_bytes": "B",
    "ensemble.run_sweep.result_bytes": "B",
}
RATIOS = {  # metric -> (numerator counter, denominator counter)
    "imeasures.response_spectrum.in_band_frac": (
        "imeasures.response_spectrum.scored_periods",
        "imeasures.response_spectrum.periods"),
    "imeasures.cross_correlation.lag_useful_frac": (
        "imeasures.cross_correlation.useful_lags",
        "imeasures.cross_correlation.computed_lags"),
    "ensemble.run_sweep.worker_busy_frac": (
        "ensemble.run_sweep.worker_cpu_s",
        "ensemble.run_sweep.worker_capacity_s"),
}


LAYER_UNITS = {
    "cli.import_s": "s",
    **{f"{n}.self_s": "s" for n in SELF_TIMED},
    **{f"{n}.calls": "count" for n in CALL_COUNTED},
    **{f"{n}.repeat_frac": "ratio" for n in REPEATS},
    "signal.bandpass.distinct_designs": "count",
    **COUNTED,
    **{m: "ratio" for m in RATIOS},
    "report.self_s": "s",
    "ensemble.run_sweep.total_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
    "unattributed_s": "s",
}


@dataclass
class Invocation:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], cwd: Path, log: Path,
              timeout: float) -> Invocation:
    """Run one process to completion; rusage covers it and its children.

    The process group is killed after ``timeout`` seconds.
    """
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(timeout, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss * 1024 / 1e6)


class Workload:
    """One workload's inputs, CLI invocations and output checks."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.command, self.workers = WORKLOADS[name]
        # One CPU per process that computes at once. The CLI runs on these,
        # and so do the host-speed windows.
        self.cpus = sorted(os.sched_getaffinity(0))[:self.workers or 1]
        self.pairs = GRID_RUNS if self.command == "sweep" else 1
        self.log = work / "cli.log"
        self.reference_digest = None
        self.golden = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def prepare(self) -> dict[str, str]:
        from inputs import DEFAULT_SEED, write_inputs

        digests = write_inputs(self.name, self.seed, self.work)
        if self.seed == DEFAULT_SEED:
            golden = json.loads(GOLDEN_PATH.read_text())
            self.golden = golden["sweep" if self.command == "sweep"
                                 else self.name]
        return digests

    def cli_args(self, out: str, workers: int | None = None) -> list[str]:
        if self.command == "sweep":
            return ["sweep", "--config", "config.json", "--out", out,
                    "--workers", str(workers or self.workers)]
        return ["gof", "recorded.csv", "synthetic.csv", "--config",
                "config.json", "--out", out]

    @property
    def out(self) -> Path:
        return self.work / "out"

    def invoke(self, argv_prefix: list[str] | None = None,
               workers: int | None = None) -> Invocation:
        """Run the CLI into a fresh ``out`` directory and check the tree.

        A run with a non-default worker count is not held to the tree digest
        of the workload's own repeats.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        prefix = argv_prefix or [sys.executable, "-m", "seisgof.cli"]
        inv = run_child(prefix + self.cli_args("out", workers), self.work,
                        self.log, self.remaining())
        problems = self.check(inv, self.out, repeat=workers is None)
        self.attempted += self.pairs
        if problems:
            self.failed += self.pairs
            self.problems += problems
        return inv

    def check(self, inv: Invocation, root: Path, repeat: bool) -> list[str]:
        import check

        problems = [] if inv.code == 0 else [f"exit status {inv.code}"]
        try:
            if self.command == "sweep":
                problems += check.sweep_problems(root, GRID_RUNS)
                scores = check.sweep_scores(root)
            else:
                scores = check.gof_scores(root)
            problems += check.range_problems(scores)
            if self.golden is not None:
                problems += check.golden_problems(scores, self.golden,
                                                  GOLDEN_TOLERANCE)
            digest = check.tree_digest(check.file_digests(root))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return problems + [f"unreadable output tree: {exc!r}"]
        if repeat and self.reference_digest is None:
            self.reference_digest = digest
        elif repeat and digest != self.reference_digest:
            problems.append(f"tree digest {digest} differs from the first "
                            f"repeat {self.reference_digest}")
        return problems

    def setup_seconds(self) -> float:
        args = ["config.json"] + (["recorded.csv", "synthetic.csv"]
                                  if self.command == "gof" else [])
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *args],
            cwd=self.work, env=child_env(), capture_output=True, text=True,
            timeout=self.remaining(), check=True)
        return float(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        p25, p50, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p50 = p75 = values[0]
    return {"median": statistics.median(values), "p25": p25, "p75": p75,
            "n": len(values)}


def timed_run(wl: Workload, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from untraced invocations filling ``seconds``.

    A window of the host-speed kernel runs on the workload's CPUs before
    the first step and after every invocation and set-up probe. Each metric
    is the median over the run; times are then scaled to the reference
    speed by the mean of the run's windows. Set-up probes alternate with the
    first invocations, so they sample the load across the run as well.
    """
    import hostspeed

    windows = [hostspeed.window(wl.cpus)]
    setup: list[float] = []
    runs: list[Invocation] = []
    while True:
        if len(setup) < SETUP_REPEATS:
            setup.append(wl.setup_seconds())
            windows.append(hostspeed.window(wl.cpus))
        runs.append(wl.invoke())
        windows.append(hostspeed.window(wl.cpus))
        measured = sum(r.wall_s for r in runs)
        # Stop when one more invocation would overrun by more than half.
        if measured + 0.5 * measured / len(runs) >= seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(wl.setup_seconds())
        windows.append(hostspeed.window(wl.cpus))
    samples = {"wall_s": [r.wall_s for r in runs],
               "cpu_s": [r.cpu_s for r in runs],
               "peak_rss_mb": [r.peak_rss_mb for r in runs],
               "setup_s": setup}
    stats = {name: quartiles(values) for name, values in samples.items()}
    scale = hostspeed.scale(windows)
    metrics = {name: s["median"] * (1.0 if name == "peak_rss_mb" else scale)
               for name, s in stats.items()}
    metrics["ok_frac"] = 1.0 - wl.failed / wl.attempted
    return metrics, {
        "unscaled_quartiles": stats,
        "host_speed": {"cpus": wl.cpus, "reference_s": hostspeed.REFERENCE_S,
                       "window_s": quartiles(windows), "scale": scale}}


def layer_metrics(trace: dict, traced_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics from one traced invocation's spans and counters."""
    from spans import HOOKS, Span, self_times

    parent = [Span(*row) for row in trace["spans"]]
    selfs, calls, counts, keys = Counter(), Counter(), Counter(), {}
    for chunk in [trace, *trace["workers"]]:
        spans = [Span(*row) for row in chunk["spans"]]
        selfs.update(self_times(spans))
        calls.update(s.name for s in spans)
        counts.update(chunk["counts"])
        for name, values in chunk["keys"].items():
            keys.setdefault(name, set()).update(values)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {"cli.import_s": trace["import_s"]}
    m.update({f"{n}.self_s": selfs.get(n, 0.0) for n in SELF_TIMED})
    m.update({f"{n}.calls": calls[n] for n in CALL_COUNTED})
    m.update({f"{n}.repeat_frac": ratio(
        calls[n] - len(keys.get(f"{n}.inputs", ())), calls[n])
        for n in REPEATS})
    m.update({name: counts[name] for name in COUNTED})
    m["signal.bandpass.distinct_designs"] = len(
        keys.get("signal.bandpass.designs", ()))
    m.update({metric: ratio(counts[num], counts[den])
              for metric, (num, den) in RATIOS.items()})
    m["report.self_s"] = sum(v for k, v in selfs.items()
                             if k.startswith("report."))
    m["ensemble.run_sweep.total_s"] = sum(
        (s.end - s.start for s in parent if s.name == "ensemble.run_sweep"),
        0.0)
    # Worker spans overlap the parent's wait in run_sweep: attribute the
    # parent's wall time to the parent's spans only.
    attributed = trace["import_s"] + sum(
        v for k, v in self_times(parent).items() if k != HOOKS)
    m["traced_wall_s"] = traced_wall
    m["trace_overhead_s"] = traced_wall - untraced_wall
    m["unattributed_s"] = traced_wall - attributed
    return m


def traced_run(wl: Workload) -> tuple[dict, dict]:
    """Per-layer metrics from one traced invocation; overhead vs untraced."""
    import check

    untraced = wl.invoke()
    trace_path = wl.work / "trace.json"
    traced = wl.invoke([sys.executable, str(HERE / "traced_cli.py"),
                        str(trace_path)])
    metrics = layer_metrics(json.loads(trace_path.read_text()),
                            traced.wall_s, untraced.wall_s)
    details = {"untraced_wall_s": untraced.wall_s}
    if wl.name == "sweep-w2" and wl.out.is_dir():
        # Criterion 8: the trees of --workers 1 and 2 must match. The one
        # known difference is reported by name, not dropped.
        w2_tree = wl.work / "out-w2"
        wl.out.rename(w2_tree)
        wl.invoke(workers=1)
        diffs = check.tree_differences(wl.out, w2_tree)
        unexpected = [d for d in diffs
                      if d not in check.EXPECTED_WORKER_DIFFS]
        details["workers_1_vs_2"] = {
            "differences": diffs,
            "expected": [d for d in diffs if d in check.EXPECTED_WORKER_DIFFS],
            "unexpected": unexpected}
        if unexpected:
            wl.failed += wl.pairs
            wl.problems.append(f"unexpected --workers 1/2 tree differences: "
                               f"{unexpected[:5]}")
    return metrics, details


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu_model": cpu, "thread_caps": THREAD_CAPS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seisgof" / "cli.py").is_file():
        print(f"error: no seisgof sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = Workload(args.workload, args.seed, work)
    os.sched_setaffinity(0, wl.cpus)  # inherited by every child
    try:
        inputs = wl.prepare()
        if args.trace:
            metrics, details = traced_run(wl)
            units = LAYER_UNITS
        else:
            metrics, details = timed_run(wl, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details.update({"workload": args.workload, "seed": args.seed,
                    "inputs": inputs, "tree_digest": wl.reference_digest,
                    "problems": wl.problems[:20],
                    "environment": environment()})
    print(json.dumps({"details": details}, sort_keys=True))
    for name in sorted(metrics):
        print(f"{name:48s} {metrics[name]!r:>24} {units[name]}")
    print(json.dumps({
        "correct": not wl.problems, "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
