"""In-memory spans and counters recorded around seisgof's public functions.

``install`` replaces every binding of each traced function in the loaded
``seisgof`` modules, so a call is timed at its call site whichever module
imported the name. Counter hooks run after the span closes, inside a
``trace.hooks`` span, so their cost never lands in a layer's self time.
Pool workers forked from the traced process inherit the wrappers; each
appends the trace of every task it runs to ``<trace path>.<pid>``.

Importing this module loads only the standard library, so a caller can
time ``import seisgof.cli`` after importing it.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import pickle
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

HOOKS = "trace.hooks"


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


def self_times(spans) -> dict[str, float]:
    """Sum per span name of duration minus the duration of direct children."""
    child = Counter()
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out = Counter()
    for s in spans:
        out[s.name] += s.end - s.start - child[s.sid]
    return dict(out)


class Tracer:
    """Spans, counters and input hashes of one single-threaded process."""

    def __init__(self, path: str):
        self.path = path
        self.root_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Start an empty trace owned by the calling process."""
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set[str]] = {}
        self._open: list[Span] = []
        self._bands: dict[int, tuple] = {}

    @property
    def current(self) -> str | None:
        return self._open[-1].name if self._open else None

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].sid if self._open else None
        s = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def key(self, name: str, *parts) -> None:
        """Add the hash of ``parts`` to the set of distinct keys ``name``."""
        h = hashlib.blake2b(digest_size=16)
        for part in parts:
            h.update(part if isinstance(part, bytes) else repr(part).encode())
        self.keys.setdefault(name, set()).add(h.hexdigest())

    def to_json(self) -> dict:
        return {"spans": [[s.sid, s.parent, s.name, s.start, s.end]
                          for s in self.spans],
                "counts": dict(self.counts),
                "keys": {name: sorted(v) for name, v in self.keys.items()}}


def _file_bytes(*paths) -> int:
    return sum(p.stat().st_size for p in paths if p.exists())


# Counter hooks: hook(tracer, bound_arguments, result, pre_state).

def _bandpass(tr, a, out, _):
    ts = a["ts"]
    tr.key("signal.bandpass.designs", a["f_lo"], a["f_hi"], ts.dt,
           a["order"])
    tr.key("signal.bandpass.inputs", ts.samples.tobytes(), ts.dt, ts.t0,
           a["f_lo"], a["f_hi"], a["order"], a["zero_phase"])
    tr._bands[id(out)] = (out, a["f_lo"], a["f_hi"])


def _intensity_vector(tr, a, out, _):
    acc = a["acc"]
    kwargs = {k: v for k, v in a.items() if k != "acc"}
    periods = kwargs.pop("periods")
    tr.key("imeasures.compute_intensity_vector.inputs",
           acc.samples.tobytes(), acc.dt, acc.t0, sorted(kwargs.items()),
           None if periods is None else periods.tobytes())


def _response_spectrum(tr, a, out, _):
    import numpy as np
    from seisgof.imeasures import default_periods

    acc = a["acc"]
    periods = a["periods"]
    periods = default_periods() if periods is None else np.asarray(periods)
    valid = periods > 2.0 * acc.dt
    tr.counts["imeasures.response_spectrum.periods"] += int(valid.sum())
    tr.counts["imeasures.response_spectrum.oscillator_steps"] += (
        int(valid.sum()) * acc.n)
    band = tr._bands.get(id(acc))
    if band is not None and band[0] is acc:
        freqs = 1.0 / periods
        scored = valid & (freqs >= band[1]) & (freqs <= band[2])
        tr.counts["imeasures.response_spectrum.scored_periods"] += (
            int(scored.sum()))


def _cross_correlation(tr, a, out, _):
    n = a["a"].n
    lags = int(a["max_lag"] / a["a"].dt + 1e-9)
    tr.counts["imeasures.cross_correlation.useful_lags"] += min(
        2 * lags + 1, 2 * n - 1)
    tr.counts["imeasures.cross_correlation.computed_lags"] += 2 * n - 1


def _cwt(tr, a, out, _):
    import numpy as np

    ts = a["ts"]
    tr.key("gof_tf.cwt.inputs", ts.samples.tobytes(), ts.dt, ts.t0,
           np.asarray(a["freqs"], dtype=float).tobytes(),
           a["wavelet_omega0"], a["taper_fraction"])


def _plane_csv(tr, a, out, _):
    tr.counts["gof_tf.write_plane_csv.bytes"] += _file_bytes(out)


def _read_record(tr, a, out, _):
    from pathlib import Path
    from seisgof.traceio import meta_path_for

    path = Path(a["path"])
    tr.counts["traceio.read_record.bytes"] += _file_bytes(
        path, meta_path_for(path))


def _write_record(tr, a, out, _):
    from seisgof.traceio import meta_path_for

    tr.counts["traceio.write_record.bytes"] += _file_bytes(
        out, meta_path_for(out))


def _report(tr, a, out, _):
    from pathlib import Path

    if isinstance(out, Path):
        tr.counts["report.bytes_written"] += _file_bytes(out)
    elif isinstance(out, str) and out.startswith("<svg"):
        # Rendered SVGs are written verbatim by the caller.
        tr.counts["report.bytes_written"] += len(out.encode())


def _cpu_now():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (ru.ru_utime + ru.ru_stime, time.process_time(),
            time.perf_counter())


def _run_sweep(tr, a, out, pre):
    children, own, start = pre
    now_children, now_own, now = _cpu_now()
    workers = a["workers"]
    cpu = now_children - children if workers > 1 else now_own - own
    tr.counts["ensemble.run_sweep.worker_cpu_s"] += cpu
    tr.counts["ensemble.run_sweep.worker_capacity_s"] += workers * (
        now - start)


# (module, function, counter hook, pre-call state)
TARGETS = [
    ("seisgof.config", "load_config", None, None),
    ("seisgof.source", "scenario_from_dict", None, None),
    ("seisgof.source", "synth_fullspace", None, None),
    ("seisgof.signal", "align_records", None, None),
    ("seisgof.signal", "bandpass", _bandpass, None),
    ("seisgof.imeasures", "compute_intensity_vector", _intensity_vector,
     None),
    ("seisgof.imeasures", "response_spectrum", _response_spectrum, None),
    ("seisgof.imeasures", "cross_correlation", _cross_correlation, None),
    ("seisgof.gof_anderson", "score_pair", None, None),
    ("seisgof.gof_tf", "cwt", _cwt, None),
    ("seisgof.gof_tf", "record_tf_gof", None, None),
    ("seisgof.gof_tf", "write_plane_csv", _plane_csv, None),
    ("seisgof.traceio", "read_record", _read_record, None),
    ("seisgof.traceio", "write_record", _write_record, None),
    ("seisgof.ensemble", "run_sweep", _run_sweep, _cpu_now),
    ("seisgof.ensemble", "correlation_tables", None, None),
    ("seisgof.ensemble", "group_report", None, None),
] + [("seisgof.report", name, _report, None) for name in (
    "write_anderson_csv", "anderson_summary", "write_correlations_csv",
    "write_grouped_csv", "render_correlation_svg", "render_grouped_svg",
    "run_dir_name", "write_run_gof_json", "write_manifest")]


def _wrap(tracer: Tracer, func, name: str, hook, pre):
    sig = inspect.signature(func)

    @functools.wraps(func)
    def traced(*args, **kwargs):
        if os.getpid() != tracer.pid:
            return func(*args, **kwargs)
        state = pre() if pre is not None else None
        with tracer.span(name):
            out = func(*args, **kwargs)
        if hook is not None:
            with tracer.span(HOOKS):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, out, state)
        return out

    return traced


def _pool_task(tracer: Tracer, func):
    """Span around one sweep task; a forked worker appends its trace."""

    @functools.wraps(func)
    def task(*args, **kwargs):
        in_worker = os.getpid() != tracer.root_pid
        if in_worker and os.getpid() != tracer.pid:
            tracer.reset()
        with tracer.span("ensemble._execute_run"):
            out = func(*args, **kwargs)
        if in_worker:
            with open(f"{tracer.path}.{os.getpid()}", "a") as fh:
                fh.write(json.dumps(tracer.to_json()) + "\n")
            tracer.reset()
        return out

    return task


def _rebind(old, new) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "seisgof" or modname.startswith("seisgof."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def _counting_pool(tracer: Tracer, base):
    """Executor whose ``map`` adds the pickled task and result sizes."""

    class CountingPool(base):
        def map(self, fn, *iterables, **kwargs):
            columns = [list(it) for it in iterables]
            with tracer.span(HOOKS):
                tracer.counts["ensemble.run_sweep.task_bytes"] += sum(
                    len(pickle.dumps((fn, *item))) for item in zip(*columns))
            for result in super().map(fn, *columns, **kwargs):
                with tracer.span(HOOKS):
                    tracer.counts["ensemble.run_sweep.result_bytes"] += len(
                        pickle.dumps(result))
                yield result

    return CountingPool


def _counting_fft(tracer: Tracer, func):
    @functools.wraps(func)
    def counted(*args, **kwargs):
        if tracer.current == "gof_tf.cwt":
            tracer.counts["gof_tf.cwt.ffts"] += 1
        return func(*args, **kwargs)

    return counted


def install(tracer: Tracer) -> None:
    """Wrap each target at all its bindings in the loaded seisgof modules."""
    import importlib

    import numpy.fft

    for modname, funcname, hook, pre in TARGETS:
        module = importlib.import_module(modname)
        func = getattr(module, funcname)
        name = f"{modname.removeprefix('seisgof.')}.{funcname}"
        _rebind(func, _wrap(tracer, func, name, hook, pre))
    ensemble = importlib.import_module("seisgof.ensemble")
    ensemble._execute_run = _pool_task(tracer, ensemble._execute_run)
    ensemble.ProcessPoolExecutor = _counting_pool(
        tracer, ensemble.ProcessPoolExecutor)
    for name in ("fft", "ifft", "rfft", "irfft"):
        setattr(numpy.fft, name,
                _counting_fft(tracer, getattr(numpy.fft, name)))
