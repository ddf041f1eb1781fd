"""Mechanism sweeps and significance-filtered correlation analysis.

A sweep takes one record per grid mechanism, scores it against the
reference with both frameworks, and correlates each fault angle with each
score metric over all runs. With only three distinct values per angle the
correlations are qualitative trends, and every report marks them as such.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import traceio
from .gof_anderson import (IMS, AndersonConfig, anderson_features,
                           anderson_summary, compare_anderson)
from .gof_tf import TfConfig, compare_tf, tf_features
from .signal import COMPONENTS, Record3C, align_records
from .source import FocalMechanism, PointSourceScenario, synth_fullspace

PARAMETERS = ("strike", "dip", "rake")
METRICS = ("EG", "PG") + IMS

QUALITATIVE_TRENDS_NOTE = (
    "Each fault angle takes only three discrete values; correlations are "
    "qualitative trends, not effect-size estimates.")


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian product of per-angle value lists."""

    strikes: tuple[float, ...]
    dips: tuple[float, ...]
    rakes: tuple[float, ...]

    def __post_init__(self):
        for name in ("strikes", "dips", "rakes"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not vals:
                raise ValueError(f"{name} must not be empty")
            object.__setattr__(self, name, vals)
        for dip in self.dips:
            if not 0.0 <= dip <= 90.0:
                raise ValueError(f"dip {dip} outside [0, 90]")

    @property
    def size(self) -> int:
        return len(self.strikes) * len(self.dips) * len(self.rakes)

    def angles(self) -> list[tuple[float, float, float]]:
        """All (strike, dip, rake) triples in deterministic sorted order."""
        return list(product(sorted(self.strikes), sorted(self.dips),
                            sorted(self.rakes)))


def build_grid(center: FocalMechanism,
               deltas: tuple[float, float, float] = (5.0, 5.0, 10.0)) -> SweepGrid:
    """3 values per angle: center - delta, center, center + delta.

    A zero delta degenerates that angle to a single value. Strike and rake
    are periodic; a dip leaving [0, 90] is an error (raised on construction).
    """
    def around(c, d):
        return (c,) if d == 0 else (c - d, c, c + d)

    ds, dd, dr = deltas
    return SweepGrid(strikes=around(center.strike, ds),
                     dips=around(center.dip, dd),
                     rakes=around(center.rake, dr))


@dataclass
class RunResult:
    """One sweep run: the swept angles, and either the error or the
    ``gof.json`` body (``summary``: EG and PG per component and
    :func:`anderson_summary`). The run's files were written under
    ``<out>/runs/`` by the process that scored it, so a result holds no
    samples and is small to send between processes."""

    angles: tuple[float, float, float]
    summary: dict | None = None
    error: str | None = None


def run_dir_name(angles: tuple[float, float, float]) -> str:
    return "{:g}_{:g}_{:g}".format(*angles)


def write_run_gof_json(path, result: RunResult) -> Path:
    """Per-run GOF summary: the angles, the error, and for a scored run its
    EG/PG plus measure aggregates per component (``result.summary``)."""
    payload = {
        "angles": {"strike": result.angles[0], "dip": result.angles[1],
                   "rake": result.angles[2]},
        "error": result.error,
    }
    if result.error is None:
        payload.update(result.summary)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


class ReferenceScorer:
    """Scores synthetics against one reference record with both frameworks.

    The reference's features depend only on the grid the pair is aligned
    to, so they are kept for the last aligned grid and rebuilt when a
    synthetic brings another; a rebuilt reference joins the batch of the
    synthetics that need it. A reference that cannot be prepared fails
    every run that needs it with the same error.
    """

    def __init__(self, reference: Record3C, anderson_config: AndersonConfig,
                 tf_config: TfConfig):
        self.reference = reference
        self.anderson_config = anderson_config
        self.tf_config = tf_config
        self._grid = self._anderson = self._tf = None

    def _summaries(self, pairs) -> list[dict]:
        # The gof.json bodies of aligned (reference, synthetic) pairs on
        # one grid; one features batch covers every synthetic.
        rec = pairs[0][0]
        grid = _grid(rec)
        if grid != self._grid:
            self._grid, self._anderson, self._tf = grid, None, None
        a_cfg, t_cfg = self.anderson_config, self.tf_config
        records = [sim for _, sim in pairs]
        if self._anderson is None:
            self._anderson, *features = anderson_features([rec, *records],
                                                          a_cfg)
        else:
            features = anderson_features(records, a_cfg)
        if self._tf is None:
            self._tf = tf_features(rec, t_cfg)
        return [{"anderson": anderson_summary(
                    compare_anderson(self._anderson, sim_f, a_cfg)),
                 "tf": {comp: {"EG": gof.eg, "PG": gof.pg} for comp, gof
                        in compare_tf(self._tf, sim, t_cfg).items()}}
                for sim_f, sim in zip(features, records)]

    def run_many(self, angles, make_synthetic, out_dir) -> list[RunResult]:
        """Score the record ``make_synthetic(a)`` returns for each ``a`` in
        ``angles`` as sweep runs, in order, with the runs aligned to one
        grid in one batch. Once all are scored, each run's directory
        ``out_dir/runs/<angles>/`` gets its ``gof.json`` and, if the run
        was scored, its ``synthetic.csv``. Failures are recorded in the
        results and the ``gof.json``, never raised.
        """
        results = [RunResult(angles=run) for run in angles]
        synthetics, groups = [], {}
        for res in results:
            try:
                synthetic = make_synthetic(res.angles)
                pair = align_records(self.reference, synthetic)
            except Exception as exc:  # per-run failures are recorded
                res.error, synthetic = _error(exc), None
            else:
                groups.setdefault(_grid(pair[0]), []).append((res, pair))
            synthetics.append(synthetic)
        for runs in groups.values():
            self._score_runs(runs)
        for res, synthetic in zip(results, synthetics):
            run_dir = Path(out_dir) / "runs" / run_dir_name(res.angles)
            run_dir.mkdir(parents=True, exist_ok=True)
            if res.error is None:
                traceio.write_record(synthetic, run_dir / "synthetic.csv")
            write_run_gof_json(run_dir / "gof.json", res)
        return results

    def _score_runs(self, runs) -> None:
        # (result, aligned pair) runs of one grid in one batch; if it
        # raises, run by run, so that each run records its own error.
        try:
            summaries = self._summaries([pair for _, pair in runs])
        except Exception as exc:
            if len(runs) > 1:
                for run in runs:
                    self._score_runs([run])
            else:
                runs[0][0].error = _error(exc)
            return
        for (res, _), summary in zip(runs, summaries):
            res.summary = summary


def _grid(rec: Record3C) -> tuple[float, float, int]:
    return rec.ew.t0, rec.dt, rec.ew.n


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# Runs scored in one batch and sent to a pool worker as one task. The
# per-run cost falls with the batch, but a task is also the unit the pool
# shares out: larger chunks leave fewer tasks to balance between workers
# (one 27-run chunk is a serial sweep), and a worker holds a whole chunk's
# filtered traces at once. Four runs keep most of the speed-up of larger
# chunks (curve in ROADMAP.md). A result holds only its angles and
# gof.json body, so whether a larger chunk pays is open and measurable.
SWEEP_CHUNK_RUNS = 4


def _chunks(runs: list) -> list[list]:
    return [runs[i:i + SWEEP_CHUNK_RUNS]
            for i in range(0, len(runs), SWEEP_CHUNK_RUNS)]


def synthesize(scenario: PointSourceScenario, stf, angles) -> Record3C:
    """``synth_fullspace`` of the scenario for one (strike, dip, rake)."""
    return synth_fullspace(scenario, FocalMechanism(*angles), stf)


# (make_record, scorer, out_dir) of the sweep a pool worker serves; set
# once per worker by the pool initializer, so that tasks carry only angles.
_SWEEP = None


def _start_worker(*sweep) -> None:
    global _SWEEP
    _SWEEP = sweep


def _execute_run(chunk, sweep=None) -> list[RunResult]:
    make_record, scorer, out_dir = sweep if sweep is not None else _SWEEP
    return scorer.run_many(chunk, make_record, out_dir)


def run_sweep(make_record, grid: SweepGrid, reference: Record3C, out_dir, *,
              anderson_config: AndersonConfig | None = None,
              tf_config: TfConfig | None = None,
              workers: int = 1) -> list[RunResult]:
    """Score ``make_record(angles) -> Record3C``, for example
    ``partial(synthesize, scenario, stf)``, against the reference record
    for every grid mechanism. With ``workers > 1`` each pool worker is sent
    ``make_record`` once, so it must pickle (no lambda or closure).

    The grid is cut into contiguous chunks of :data:`SWEEP_CHUNK_RUNS`
    runs, one task each. The process that scores a chunk writes its runs'
    files under ``out_dir/runs/`` (see :meth:`ReferenceScorer.run_many`).
    Results come back in grid order regardless of worker count, so repeated
    sweeps are bit-identical. Each process prepares the reference once.
    """
    a_cfg = anderson_config if anderson_config is not None else AndersonConfig()
    t_cfg = tf_config if tf_config is not None else TfConfig()
    sweep = (make_record, ReferenceScorer(reference, a_cfg, t_cfg), out_dir)
    chunks = _chunks(grid.angles())
    if workers <= 1:
        done = [_execute_run(chunk, sweep) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                 initargs=sweep) as pool:
            done = list(pool.map(_execute_run, chunks))
    return [res for results in done for res in results]


def pearson(x, y) -> float:
    """Pearson correlation coefficient; constant input is an error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if x.size < 3:
        raise ValueError("need at least 3 samples")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.dot(dx, dx))
    sy = float(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("constant input: correlation undefined")
    r = float(np.dot(dx, dy) / math.sqrt(sx * sy))
    return min(1.0, max(-1.0, r))


def p_value(r: float, n: int) -> float:
    """Two-sided p from the t statistic t = r * sqrt((n-2)/(1-r^2))."""
    if n < 3:
        raise ValueError("need at least 3 samples")
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"r={r} outside [-1, 1]")
    if abs(r) == 1.0:
        return 0.0
    # Imported on first use, so that the CLI starts without scipy: this
    # is the only part of scipy the program needs.
    from scipy.special import stdtr

    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return float(2.0 * stdtr(n - 2, -abs(t)))


def metric_values(result: RunResult, component: str) -> dict[str, float]:
    """EG, PG and the ten mean-over-bands measure scores for one run."""
    tf = result.summary["tf"][component]
    aggregates = result.summary["anderson"][component]["aggregates"]
    return {"EG": tf["EG"], "PG": tf["PG"],
            **{im: aggregates[im]["mean"] for im in IMS}}


@dataclass(frozen=True)
class CorrelationTable:
    """Pearson r and p for each (fault angle x metric) cell, one component.

    NaN in ``r`` marks an undefined (constant-input) cell, or after
    :func:`significant` also a blanked one; ``p`` is NaN only where the
    cell is undefined.
    """

    component: str
    parameters: tuple[str, ...]
    metrics: tuple[str, ...]
    r: np.ndarray
    p: np.ndarray
    n: int

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        p = np.asarray(self.p, dtype=float)
        shape = (len(self.parameters), len(self.metrics))
        if r.shape != shape or p.shape != shape:
            raise ValueError("r/p shape must be (parameters, metrics)")
        finite = r[np.isfinite(r)]
        if finite.size and np.abs(finite).max() > 1.0:
            raise ValueError("|r| must not exceed 1")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)


def correlation_tables(results: list[RunResult]) -> dict[str, CorrelationTable]:
    """One table per component over the successful runs."""
    ok = [res for res in results if res.error is None]
    n = len(ok)
    angles = {param: np.array([res.angles[i] for res in ok])
              for i, param in enumerate(PARAMETERS)}
    tables = {}
    for comp in COMPONENTS:
        r = np.full((len(PARAMETERS), len(METRICS)), np.nan)
        p = np.full_like(r, np.nan)
        values = [metric_values(res, comp) for res in ok]
        for j, metric in enumerate(METRICS):
            y = np.array([v[metric] for v in values])
            for i, param in enumerate(PARAMETERS):
                try:
                    rij = pearson(angles[param], y)
                except ValueError:
                    continue  # undefined cell stays NaN
                r[i, j] = rij
                p[i, j] = p_value(rij, n)
        tables[comp] = CorrelationTable(component=comp, parameters=PARAMETERS,
                                        metrics=METRICS, r=r, p=p, n=n)
    return tables


def significant(table: CorrelationTable, alpha: float = 0.05) -> CorrelationTable:
    """Blank (NaN, not zero) every cell with p > alpha."""
    keep = np.isfinite(table.p) & (table.p <= alpha)
    r = np.where(keep, table.r, np.nan)
    return CorrelationTable(component=table.component,
                            parameters=table.parameters, metrics=table.metrics,
                            r=r, p=table.p, n=table.n)


@dataclass(frozen=True)
class GroupedScores:
    """Distribution of one metric across the runs sharing one angle value."""

    component: str
    parameter: str
    value: float
    metric: str
    scores: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.scores))

    @property
    def min(self) -> float:
        return float(np.min(self.scores))

    @property
    def max(self) -> float:
        return float(np.max(self.scores))


def group_report(results: list[RunResult]) -> list[GroupedScores]:
    """Scores grouped by fault parameter value, per component and metric."""
    ok = [res for res in results if res.error is None]
    rows = []
    for comp in COMPONENTS:
        values = [(res.angles, metric_values(res, comp)) for res in ok]
        for i, param in enumerate(PARAMETERS):
            levels = sorted({angles[i] for angles, _ in values})
            for level in levels:
                group = [vals for angles, vals in values if angles[i] == level]
                for metric in METRICS:
                    rows.append(GroupedScores(
                        component=comp, parameter=param, value=level,
                        metric=metric,
                        scores=tuple(v[metric] for v in group)))
    return rows
