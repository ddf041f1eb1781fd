"""Mechanism sweeps and significance-filtered correlation analysis.

A sweep takes one record per grid mechanism, scores it against the
reference with both frameworks, and correlates each fault angle with each
score metric over all runs. With only three distinct values per angle the
correlations are qualitative trends, and every report marks them as such.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import traceio
from .gof_anderson import (IMS, AndersonConfig, anderson_features,
                           anderson_summary, compare_anderson)
from .gof_tf import TfConfig, tf_reference
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


# The sweep's (strike, dip, rake) steps when none are configured.
DEFAULT_GRID_DELTAS = (5.0, 5.0, 10.0)


def build_grid(center: FocalMechanism,
               deltas: tuple[float, float, float] = DEFAULT_GRID_DELTAS,
               ) -> SweepGrid:
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
    ``gof.json`` body (``summary``: :func:`score_body`). The run's files
    were written under ``<out>/runs/`` by the process that scored it, so
    a result holds no samples and is small to send between processes."""

    angles: tuple[float, float, float]
    summary: dict | None = None
    error: str | None = None


def run_dir_name(angles: tuple[float, float, float]) -> str:
    return "{:g}_{:g}_{:g}".format(*angles)


def score_body(anderson: dict, tf: dict) -> dict:
    """The scores of a ``gof.json`` and a ``gof_summary.json``: the
    :func:`anderson_summary` of ``anderson`` (component: AndersonScores),
    and EG and PG per component from ``tf`` (component: (eg, pg))."""
    return {"anderson": anderson_summary(anderson),
            "tf": {c: {"EG": eg, "PG": pg} for c, (eg, pg) in tf.items()}}


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
    return traceio.write_json(path, payload)


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
        # one grid; one features batch covers every synthetic's traces.
        rec = pairs[0][0]
        a_cfg, n = self.anderson_config, len(COMPONENTS)
        refs = [ts for _, ts in rec.components()]
        traces = [ts for _, sim in pairs for _, ts in sim.components()]
        new_grid = _grid(rec) != self._grid
        if new_grid:
            features = anderson_features(refs + traces, a_cfg)
            prepared, features = features[:n], features[n:]
        else:
            prepared = self._anderson
            features = anderson_features(traces, a_cfg)
        scores = compare_anderson(
            [(prepared[j % n], f) for j, f in enumerate(features)], a_cfg)
        del features  # freed before the synthetics' wavelet planes
        if new_grid:
            self._anderson, self._tf = prepared, [
                tf_reference(ts, self.tf_config) for ts in refs]
            self._grid = _grid(rec)
        bodies = []
        for i in range(0, len(traces), n):
            anderson, tf = {}, {}
            for c, comp in enumerate(COMPONENTS):
                anderson[comp] = scores[i + c]
                gof = self._tf[c].gof(traces[i + c])
                tf[comp] = gof.eg, gof.pg
            bodies.append(score_body(anderson, tf))
        return bodies

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


# Most runs scored in one batch and sent to a pool worker as one task.
# The filter and response-spectrum kernels step through the samples in
# Python for all rows at once, so a chunk pays that loop once however
# many runs it holds; but a worker holds a whole chunk's filtered traces,
# so peak memory grows with the chunk. On the 200-Hz criterion-8 sweep,
# 14-run chunks against 4-run ones took a serial sweep from 3.9 to 3.3 s
# and its peak RSS from 68 to 82 MB (the curve is in BENCH_11.json).
# Fourteen is the smallest cap that splits the 27-run grid in two,
# 14 + 13, at one or two workers.
SWEEP_CHUNK_MAX_RUNS = 14


def _chunks(runs: list, workers: int) -> list[list]:
    # Contiguous chunks in run order: the fewest whose count is a multiple
    # of ``workers`` (or one run each, if there are fewer runs than that)
    # and whose sizes stay within the cap and differ by at most one.
    count = min(len(runs), workers * math.ceil(
        len(runs) / (workers * SWEEP_CHUNK_MAX_RUNS)))
    size, larger = divmod(len(runs), count)
    bounds = [i * size + min(i, larger) for i in range(count + 1)]
    return [runs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def synthesize(scenario: PointSourceScenario, stf, angles) -> Record3C:
    """``synth_fullspace`` of the scenario for one (strike, dip, rake)."""
    return synth_fullspace(scenario, FocalMechanism(*angles), stf)


def __getattr__(name: str):
    # PEP 562: ``ProcessPoolExecutor`` is imported on first use, because
    # only a pooled sweep needs it and loading multiprocessing costs every
    # other command 12-20 ms. It is then kept as a module attribute, which
    # a caller may replace by name.
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures.process import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


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

    The grid is cut into contiguous chunks of at most
    :data:`SWEEP_CHUNK_MAX_RUNS` runs, one task each: the fewest chunks
    whose count is a multiple of ``workers``, with sizes that differ by at
    most one, so that every worker gets the same share. The process that
    scores a chunk writes its runs' files under ``out_dir/runs/`` (see
    :meth:`ReferenceScorer.run_many`). Results come back in grid order
    regardless of worker count, so repeated sweeps are bit-identical. Each
    process prepares the reference once.
    """
    a_cfg = anderson_config if anderson_config is not None else AndersonConfig()
    t_cfg = tf_config if tf_config is not None else TfConfig()
    sweep = (make_record, ReferenceScorer(reference, a_cfg, t_cfg), out_dir)
    chunks = _chunks(grid.angles(), workers)
    if workers == 1:
        done = [_execute_run(chunk, sweep) for chunk in chunks]
    else:
        # A name lookup inside the module does not fall back to the module's
        # __getattr__, so the first pooled sweep calls it.
        pool_type = (globals().get("ProcessPoolExecutor")
                     or __getattr__("ProcessPoolExecutor"))
        # Under fork all workers start at once: no more than the chunks.
        with pool_type(max_workers=min(workers, len(chunks)),
                       initializer=_start_worker, initargs=sweep) as pool:
            done = list(pool.map(_execute_run, chunks))
    return [res for results in done for res in results]


def pearson(x, y) -> float:
    """Pearson correlation coefficient; constant or non-finite input is an
    error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if x.size < 3:
        raise ValueError("need at least 3 samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite input: correlation undefined")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.dot(dx, dx))
    sy = float(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("constant input: correlation undefined")
    r = float(np.dot(dx, dy) / math.sqrt(sx * sy))
    return min(1.0, max(-1.0, r))


def p_value(r: float, n: int) -> float:
    """Two-sided p of Pearson's r over n samples: Student's t with
    nu = n - 2 degrees of freedom at t = r * sqrt(nu / (1 - r^2)).

    p = I_x(nu/2, 1/2), the regularized incomplete beta function at
    x = nu / (nu + t^2) = 1 - r^2 (Abramowitz & Stegun 1964, 26.7). It is
    evaluated as in Press et al. (2007), *Numerical Recipes*, 3rd ed.,
    section 6.4: the prefactor x^a (1-x)^b / B(a, b) from ``math.lgamma``,
    times the continued fraction of I_x(a, b) or of 1 - I_{1-x}(b, a),
    whichever converges fast, by Lentz's (1976, Appl. Opt. 15(3)) method.
    x = (1 - |r|)(1 + |r|) and 1 - x = r^2 are both formed from r, so
    neither end loses digits to the other.

    Within 1e-12 relative of the exact value at the given r for the sample
    counts a sweep has (3 to 27), tested against mpmath up to n = 200. A
    value below the normal floats may underflow to 0.0; p at |r| = 1 is
    0.0.
    """
    if n < 3:
        raise ValueError("need at least 3 samples")
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"r={r} outside [-1, 1]")
    r = abs(r)
    if r == 1.0:
        return 0.0
    y = r * r
    if y == 0.0:
        return 1.0
    a, b = 0.5 * (n - 2), 0.5
    x = (1.0 - r) * (1.0 + r)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


# Lentz's method gives up, rather than return an unconverged fraction,
# after this many steps; p_value takes fewer than 30 for n up to 27 and
# fewer than 50 up to n = 200.
_BETA_FRACTION_MAX_STEPS = 10_000
_TINY = sys.float_info.min / sys.float_info.epsilon


def _beta_fraction(a: float, b: float, x: float) -> float:
    # The continued fraction of I_x(a, b) / (x^a (1-x)^b / (a B(a, b))) by
    # Lentz's method, as Press et al. (2007), Beta::betacf: each step m
    # takes an even term and an odd term, and keeps every denominator of
    # the ratios d and c at least _TINY from zero.
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_FRACTION_MAX_STEPS + 1):
        for term in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x
                     / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + term * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + term / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            step = d * c
            h *= step
        if abs(step - 1.0) < sys.float_info.epsilon:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge for "
                          f"a={a}, b={b}, x={x}")


def metric_values(result: RunResult, component: str) -> dict[str, float]:
    """EG, PG and the ten mean-over-bands measure scores for one run; NaN
    for a measure with no scored band."""
    aggregates = result.summary["anderson"][component]["aggregates"]
    means = {im: aggregates[im]["mean"] for im in IMS}
    return {**result.summary["tf"][component],  # EG and PG (score_body)
            **{im: math.nan if mean is None else mean
               for im, mean in means.items()}}


@dataclass(frozen=True)
class CorrelationTable:
    """Pearson r and p for each (fault angle x metric) cell, one component.

    NaN in ``r`` marks an undefined (constant or non-finite input) cell,
    or after :func:`significant` also a blanked one; ``p`` is NaN only
    where the cell is undefined.
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
