"""Intensity-measure goodness-of-fit on a 0-10 scale.

Each pair of traces is compared band by band: both are band-pass filtered,
the ten intensity measures are computed for each, and every measure is mapped
to a score S = 10 * exp(-((p1 - p2)/min(p1, p2))^2). Vector measures (Sa, fs)
are scored pointwise over the samples falling inside the band and averaged;
cross correlation maps as 10 * max(0, rho).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .imeasures import (CentredRows, IntensityMeasures, _check_thresholds,
                        centred_rows, cross_correlations, default_periods,
                        intensity_measures, lag_samples)
from .signal import (COMPONENTS, Record3C, Unit, bandpass_bank,
                     require_same_grid, require_unit)

IMS = ("pga", "pgv", "pgd", "ia", "da", "de", "iv", "sa", "fs", "cstar")
SCALAR_IMS = ("pga", "pgv", "pgd", "ia", "da", "de", "iv")


class QualityLevel(enum.Enum):
    POOR = "poor"
    FAIR = "fair"
    GOOD = "good"
    EXCELLENT = "excellent"


def quality(score: float) -> QualityLevel:
    """Quality bin for a 0-10 score; scores below 1 clamp to poor."""
    if not np.isfinite(score):
        raise ValueError("score must be finite")
    if score < 4.0:
        return QualityLevel.POOR
    if score < 6.0:
        return QualityLevel.FAIR
    if score < 8.0:
        return QualityLevel.GOOD
    return QualityLevel.EXCELLENT


@dataclass(frozen=True)
class BandSpec:
    """Ascending list of (f_lo, f_hi) band edges in Hz."""

    edges: tuple[tuple[float, float], ...]

    def __post_init__(self):
        edges = tuple((float(lo), float(hi)) for lo, hi in self.edges)
        if not edges:
            raise ValueError("at least one band is required")
        for lo, hi in edges:
            if not 0 < lo < hi:
                raise ValueError(f"invalid band ({lo}, {hi})")
        los = [lo for lo, _ in edges]
        if any(b <= a for a, b in zip(los, los[1:])):
            raise ValueError("bands must be ordered ascending")
        object.__setattr__(self, "edges", edges)

    def __len__(self):
        return len(self.edges)


def default_bands() -> BandSpec:
    """Seven log-spaced bands spanning 0.05-10 Hz."""
    return BandSpec(((0.05, 0.1), (0.1, 0.25), (0.25, 0.5), (0.5, 1.0),
                     (1.0, 2.0), (2.0, 5.0), (5.0, 10.0)))


def score_scalar(p1: float, p2: float) -> float:
    """Score two scalar parameters; symmetric, 10 for equal inputs.

    Unequal inputs score below 10 unless they differ by less than about
    1e-8 relative, where exp(-x^2) rounds to 1. Degenerate conventions:
    both zero -> 10 (identical), exactly one zero -> 0. The denominator is
    min(|p1|, |p2|), which also covers opposite-sign inputs. The one-pair
    case of :func:`score_values`.
    """
    return float(score_values(np.array([p1], dtype=float),
                              np.array([p2], dtype=float))[0])


def score_values(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """The scores of the pairs of entries of two float arrays of one shape,
    each with the bits it gets on its own.

    The ratio (p1 - p2) / min(|p1|, |p2|) is array arithmetic, with
    Python's ``min`` for a NaN. Each ratio is squared by Python's float
    power, libm's ``pow``, because numpy's square differs from it in the
    last bit for some values; the exponential is one ``np.exp`` over the
    whole array, which gives every value the bits of ``np.exp`` on that
    value alone (``tests/test_gof_anderson.py`` pins both).
    """
    a, b = np.abs(p1), np.abs(p2)
    denom = np.where(b < a, b, a)
    with np.errstate(all="ignore"):
        ratio = (p1 - p2) / denom
    # Beyond 2**500 a square is at least 2**1000, or overflows: either way
    # its score is 0, as it is for an infinite ratio.
    ratio[np.abs(ratio) > 2.0 ** 500] = np.inf
    squares = np.array([x ** 2 for x in ratio.ravel().tolist()],
                       dtype=float).reshape(ratio.shape)
    scores = 10.0 * np.exp(-squares)
    scores[denom == 0.0] = 0.0
    scores[p1 == p2] = 10.0
    return scores


@dataclass(frozen=True)
class AndersonConfig:
    bands: BandSpec = field(default_factory=default_bands)
    damping: float = 0.05
    periods: np.ndarray = field(default_factory=default_periods)
    duration_lo: float = 0.05
    duration_hi: float = 0.75
    max_lag: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.damping < 1.0:
            raise ValueError(f"damping={self.damping} outside (0, 1)")
        _check_thresholds(self.duration_lo, self.duration_hi)
        if not self.max_lag >= 0:
            raise ValueError(f"max_lag={self.max_lag} must be non-negative")
        # Sa is scored at the periods whose frequency lies in the band; a
        # band that a record cannot resolve is skipped per record instead.
        freqs = 1.0 / np.asarray(self.periods, dtype=float)
        if not any(_in_band(freqs, *edge).any() for edge in self.bands.edges):
            raise ValueError(
                f"no Sa period lies in a band: {freqs.min():g}-"
                f"{freqs.max():g} Hz, so Sa could never be scored")


@dataclass(frozen=True)
class AndersonScores:
    """Per-measure x per-band score matrix for one component.

    ``scores[i, j]`` is the score of measure ``ims[i]`` in band ``j``; NaN
    marks a skipped (band, measure) cell, with the reason in ``skipped``.
    """

    ims: tuple[str, ...]
    bands: BandSpec
    scores: np.ndarray
    skipped: tuple[tuple[str, int, str], ...] = ()

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        if scores.shape != (len(self.ims), len(self.bands)):
            raise ValueError("score matrix shape does not match ims x bands")
        finite = scores[np.isfinite(scores)]
        if finite.size and (finite.min() < 0 or finite.max() > 10):
            raise ValueError("scores must lie in [0, 10]")
        object.__setattr__(self, "scores", scores)


def aggregate(scores: AndersonScores) -> dict[str, tuple[float, float, float]]:
    """(max, mean, min) per measure across non-skipped bands."""
    out = {}
    for i, im in enumerate(scores.ims):
        row = scores.scores[i]
        row = row[np.isfinite(row)]
        if row.size == 0:
            out[im] = (float("nan"),) * 3
        else:
            out[im] = (float(row.max()), float(row.mean()), float(row.min()))
    return out


def anderson_summary(scores_by_component: dict[str, AndersonScores]) -> dict:
    """JSON-ready aggregates (max/mean/min and quality of the mean) per IM,
    with each component's skipped cells. A measure with no scored band has
    ``None`` (JSON ``null``) for all four."""
    out = {}
    for comp, scores in scores_by_component.items():
        comp_out = {}
        for im, (mx, mean, mn) in aggregate(scores).items():
            if np.isfinite(mean):
                comp_out[im] = {"max": mx, "mean": mean, "min": mn,
                                "quality": quality(mean).value}
            else:
                comp_out[im] = dict.fromkeys(("max", "mean", "min",
                                              "quality"))
        out[comp] = {
            "aggregates": comp_out,
            "skipped": [list(item) for item in scores.skipped],
        }
    return out


def score_pair(rec: Record3C, sim: Record3C,
               config: AndersonConfig | None = None) -> dict[str, AndersonScores]:
    """Score a recorded/simulated pair per component: the
    :func:`compare_anderson` of one :func:`anderson_features` batch. Both
    records must be aligned (same grid and unit); use
    :func:`seisgof.signal.align_records` first when they are not."""
    config = config if config is not None else AndersonConfig()
    features = anderson_features(
        [ts for r in (rec, sim) for _, ts in r.components()], config)
    return dict(zip(COMPONENTS, compare_anderson(
        zip(features, features[len(COMPONENTS):]), config)))


@dataclass(frozen=True)
class AndersonFeatures:
    """The per-trace half of a score: the trace's band-filtered rows on
    its grid (``t0``, ``dt``) and their intensity measures.

    ``bands`` holds the indices, in the config's ``bands``, of the bands
    below the Nyquist frequency; the others are not filtered. Row ``k`` of
    ``filtered`` and of ``measures`` is band ``bands[k]``. Each row's Sa
    holds values only at the periods inside its band, the only ones a
    score reads, and NaN elsewhere.
    """

    t0: float
    dt: float
    bands: tuple[int, ...]
    filtered: np.ndarray
    measures: IntensityMeasures
    _centred: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def centred(self, max_shift: int) -> CentredRows:
        """The filtered rows prepared for cross-correlation at lags of at
        most ``max_shift`` samples, kept for the next call: a reference is
        prepared once however many synthetics it is compared with."""
        if max_shift not in self._centred:
            self._centred[max_shift] = centred_rows(self.filtered, max_shift)
        return self._centred[max_shift]


def anderson_features(traces,
                      config: AndersonConfig) -> list[AndersonFeatures]:
    """Filter every trace of a batch in every band and measure it.

    The traces must be acceleration on one grid. One
    :func:`~seisgof.signal.bandpass_bank` call filters them all, and one
    :func:`~seisgof.imeasures.intensity_measures` call measures all the
    filtered rows, with Sa at the in-band periods only. Both give each row
    the bits it gets on its own, so a trace's features do not depend on
    its batch. Returns one :class:`AndersonFeatures` per trace.
    """
    traces = list(traces)
    first = traces[0]
    require_unit(first, Unit.ACCELERATION)
    for ts in traces:
        require_same_grid(first, ts)
    bands = tuple(bi for bi, (_, f_hi) in enumerate(config.bands.edges)
                  if f_hi < 0.5 / first.dt)
    edges = [config.bands.edges[bi] for bi in bands]
    filtered = bandpass_bank(np.stack([ts.samples for ts in traces]),
                             first.dt, edges)
    freqs = 1.0 / np.asarray(config.periods, dtype=float)
    in_band = np.array([_in_band(freqs, *edge) for edge in edges],
                       dtype=bool).reshape(len(edges), freqs.size)
    measures = intensity_measures(
        filtered, first.t0, first.dt, config.damping, config.periods,
        duration_lo=config.duration_lo, duration_hi=config.duration_hi,
        where=np.tile(in_band, (len(traces), 1)))
    size = len(bands)
    return [AndersonFeatures(first.t0, first.dt, bands,
                             filtered[i * size:(i + 1) * size].copy(),
                             measures.rows(i * size, (i + 1) * size))
            for i in range(len(traces))]


def compare_anderson(pairs, config: AndersonConfig) -> list[AndersonScores]:
    """The scores of simulated traces from (recorded, simulated) pairs of
    features, all on one grid: one :class:`AndersonScores` per pair.

    One :func:`score_values` call maps every measure of every pair and one
    :func:`~seisgof.imeasures.cross_correlations` call correlates every
    band, so each pair gets the scores it gets alone.
    """
    pairs = list(pairs)
    sides = list(zip(*pairs))
    first, edges = pairs[0][0], config.bands.edges
    # The (recorded, simulated) values to map: the scalar measures as
    # (pairs, measures, rows), then per row Sa and fs at the in-band
    # samples as (pairs, samples).
    blocks = [[np.array([[getattr(f.measures, im) for im in SCALAR_IMS]
                         for f in side]) for side in sides]]
    vectors = (("sa", 1.0 / first.measures.periods,
                "no response-spectrum periods in band"),
               ("fs", first.measures.freqs, "no Fourier samples in band"))
    for k, bi in enumerate(first.bands):
        for im, freqs, _ in vectors:
            cols = np.flatnonzero(_in_band(freqs, *edges[bi]))
            blocks.append([np.array([getattr(f.measures, im)[k]
                                     for f in side])[:, cols]
                           for side in sides])
    mapped = score_values(*(np.concatenate([b[i].ravel() for b in blocks])
                            for i in range(2)))
    mapped = np.split(mapped, np.cumsum([b[0].size for b in blocks])[:-1])
    rho = cross_correlations(
        (rec.centred(lag_samples(config.max_lag, rec.dt)), sim.filtered)
        for rec, sim in pairs).reshape(len(pairs), len(first.bands))

    scores = np.full((len(pairs), len(IMS), len(edges)), np.nan)
    scores[:, :len(SCALAR_IMS)][..., list(first.bands)] = (
        mapped[0].reshape(blocks[0][0].shape))
    skipped: list[list[tuple[str, int, str]]] = [[] for _ in pairs]
    for bi, (f_lo, f_hi) in enumerate(edges):
        if bi not in first.bands:
            for skips in skipped:
                skips.append(("*", bi, f"band ({f_lo}, {f_hi}) Hz outside "
                                       f"(0, {0.5 / first.dt:g}) Hz"))
            continue
        # Both traces are on one grid, so they share their bands' rows.
        k = first.bands.index(bi)
        for v, (im, _, reason) in enumerate(vectors):
            b = 1 + 2 * k + v
            means = _in_band_means(mapped[b].reshape(blocks[b][0].shape),
                                   *blocks[b])
            scores[:, IMS.index(im), bi] = means
            for j in np.flatnonzero(np.isnan(means)):
                skipped[j].append((im, bi, reason))
        # 10 * max(0.0, rho), and NaN for a band without variance
        scores[:, IMS.index("cstar"), bi] = 10.0 * np.where(
            rho[:, k] <= 0.0, 0.0, rho[:, k])
        for j in np.flatnonzero(np.isnan(rho[:, k])):
            skipped[j].append(("cstar", bi, "zero variance in band"))
    return [AndersonScores(IMS, config.bands, s, tuple(skips))
            for s, skips in zip(scores, skipped)]


def _in_band_means(scores, values_r, values_s):
    # Pointwise scoring over in-band samples, averaged; penalizes shape
    # mismatch inside the band rather than comparing band means. Row j is
    # pair j; a pair with a non-finite value averages its finite ones, and
    # one with none is NaN.
    finite = np.isfinite(values_r) & np.isfinite(values_s)
    means = np.full(len(scores), np.nan)
    whole = finite.all(axis=1) & finite.any(axis=1)
    if whole.any():
        means[whole] = scores[whole].mean(axis=1)
    for j in np.flatnonzero(~whole & finite.any(axis=1)):
        means[j] = scores[j][finite[j]].mean()
    return means


def _in_band(freqs, f_lo, f_hi):
    # The samples a band scores, edges included; anderson_features
    # computes Sa only at these periods.
    return (freqs >= f_lo) & (freqs <= f_hi)
