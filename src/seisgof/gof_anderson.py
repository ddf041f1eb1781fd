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

from .imeasures import (IntensityMeasures, _check_thresholds,
                        cross_correlation, default_periods,
                        intensity_measures)
from .signal import (COMPONENTS, Record3C, TimeSeries, Unit, bandpass_bank,
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
    min(|p1|, |p2|), which also covers opposite-sign inputs.
    """
    if p1 == p2:
        return 10.0
    denom = min(abs(p1), abs(p2))
    if denom == 0.0:
        return 0.0
    try:
        return float(10.0 * np.exp(-(((p1 - p2) / denom) ** 2)))
    except OverflowError:  # a finite ratio whose square exceeds the floats
        return 0.0


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
    return {c: compare_anderson(r, s, config) for c, r, s
            in zip(COMPONENTS, features, features[len(COMPONENTS):])}


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


def compare_anderson(rec: AndersonFeatures, sim: AndersonFeatures,
                     config: AndersonConfig) -> AndersonScores:
    """The scores of a simulated trace from the features of it and of the
    recorded trace, both on one grid."""
    scores = np.full((len(IMS), len(config.bands)), np.nan)
    skipped: list[tuple[str, int, str]] = []
    m_r, m_s = rec.measures, sim.measures
    for bi, (f_lo, f_hi) in enumerate(config.bands.edges):
        if bi not in rec.bands:
            skipped.append(("*", bi, f"band ({f_lo}, {f_hi}) Hz outside "
                                     f"(0, {0.5 / rec.dt:g}) Hz"))
            continue
        # Both traces are on one grid, so they share their bands' rows.
        r = rec.bands.index(bi)

        # Python floats, as the score's float power needs (score_scalar).
        for im in SCALAR_IMS:
            scores[IMS.index(im), bi] = score_scalar(
                float(getattr(m_r, im)[r]), float(getattr(m_s, im)[r]))

        sa_score = _vector_score(1.0 / m_r.periods, m_r.sa[r], m_s.sa[r],
                                 f_lo, f_hi)
        if sa_score is None:
            skipped.append(("sa", bi, "no response-spectrum periods in band"))
        else:
            scores[IMS.index("sa"), bi] = sa_score

        fs_score = _vector_score(m_r.freqs, m_r.fs[r], m_s.fs[r], f_lo, f_hi)
        if fs_score is None:
            skipped.append(("fs", bi, "no Fourier samples in band"))
        else:
            scores[IMS.index("fs"), bi] = fs_score

        try:
            rho = cross_correlation(
                *(TimeSeries(f.dt, f.t0, f.filtered[r], Unit.ACCELERATION)
                  for f in (rec, sim)), config.max_lag)
        except ValueError:
            skipped.append(("cstar", bi, "zero variance in band"))
        else:
            scores[IMS.index("cstar"), bi] = 10.0 * max(0.0, rho)
    return AndersonScores(IMS, config.bands, scores, tuple(skipped))


def _vector_score(freqs, values_r, values_s, f_lo, f_hi):
    # Pointwise scoring over in-band samples, averaged; penalizes shape
    # mismatch inside the band rather than comparing band means.
    mask = (_in_band(freqs, f_lo, f_hi)
            & np.isfinite(values_r) & np.isfinite(values_s))
    if not mask.any():
        return None
    pairs = zip(np.asarray(values_r)[mask], np.asarray(values_s)[mask])
    return float(np.mean([score_scalar(r, s) for r, s in pairs]))


def _in_band(freqs, f_lo, f_hi):
    # The samples a band scores, edges included; anderson_features
    # computes Sa only at these periods.
    return (freqs >= f_lo) & (freqs <= f_hi)
