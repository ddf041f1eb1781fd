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

from .imeasures import (IntensityVector, compute_intensity_vector,
                        cross_correlation, default_periods, response_spectra)
from .signal import COMPONENTS, Record3C, TimeSeries, bandpass_bank

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
    """Score two scalar parameters; 10 iff equal, symmetric.

    Degenerate conventions: both zero -> 10 (identical), exactly one zero
    -> 0. The denominator is min(|p1|, |p2|), which also covers
    opposite-sign inputs.
    """
    if p1 == p2:
        return 10.0
    denom = min(abs(p1), abs(p2))
    if denom == 0.0:
        return 0.0
    return float(10.0 * np.exp(-(((p1 - p2) / denom) ** 2)))


@dataclass
class AndersonConfig:
    bands: BandSpec = field(default_factory=default_bands)
    damping: float = 0.05
    periods: np.ndarray = field(default_factory=default_periods)
    duration_lo: float = 0.05
    duration_hi: float = 0.75
    max_lag: float = 0.5


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

    def row(self, im: str) -> np.ndarray:
        return self.scores[self.ims.index(im)]


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
    with each component's skipped cells."""
    out = {}
    for comp, scores in scores_by_component.items():
        comp_out = {}
        for im, (mx, mean, mn) in aggregate(scores).items():
            comp_out[im] = {"max": mx, "mean": mean, "min": mn,
                            "quality": (quality(mean).value
                                        if np.isfinite(mean) else None)}
        out[comp] = {
            "aggregates": comp_out,
            "skipped": [list(item) for item in scores.skipped],
        }
    return out


def score_pair(rec: Record3C, sim: Record3C,
               config: AndersonConfig | None = None) -> dict[str, AndersonScores]:
    """Score a recorded/simulated pair per component.

    Both records must be aligned (same grid and unit); use
    :func:`seisgof.signal.align_records` first when they are not. This is
    :func:`anderson_features` of both records followed by
    :func:`compare_anderson`.
    """
    config = config if config is not None else AndersonConfig()
    return compare_anderson(*anderson_features([rec, sim], config), config)


@dataclass(frozen=True)
class AndersonFeatures:
    """The per-record half of a score: each component's band-filtered
    traces and their intensity measures, keyed by the index of the band in
    the config's ``bands``.

    Bands at or beyond the Nyquist frequency are absent. Each trace's Sa
    holds values only at the periods inside its band, the only ones a
    score reads, and NaN elsewhere.
    """

    nyquist: float
    components: dict[str, dict[int, tuple[TimeSeries, IntensityVector]]]


def anderson_features(records,
                      config: AndersonConfig) -> list[AndersonFeatures]:
    """Filter every component x band of a batch of records and measure it.

    The records must share one grid and unit. One
    :func:`~seisgof.signal.bandpass_bank` call filters every component of
    every record, and one :func:`~seisgof.imeasures.response_spectra` call
    covers the in-band periods of all the filtered traces. Both give each
    trace the bits it gets on its own, so a record's features do not
    depend on its batch. Returns one :class:`AndersonFeatures` per record.
    """
    records = list(records)
    nyquist = 0.5 / records[0].dt
    in_range = {bi: edge for bi, edge in enumerate(config.bands.edges)
                if edge[1] < nyquist}
    filtered = bandpass_bank(
        [ts for rec in records for _, ts in rec.components()],
        in_range.values())
    freqs = 1.0 / np.asarray(config.periods, dtype=float)
    in_band = [_in_band(freqs, f_lo, f_hi)
               for f_lo, f_hi in in_range.values()] * len(filtered)
    traces = [ts for per_band in filtered for ts in per_band]
    rows = iter(response_spectra(traces, config.damping, config.periods,
                                 where=in_band)
                if traces else ())
    per_trace = iter(filtered)
    return [AndersonFeatures(nyquist, {
        name: {bi: (ts, _measures(ts, next(rows), config))
               for bi, ts in zip(in_range, next(per_trace))}
        for name in COMPONENTS}) for _ in records]


def compare_anderson(rec: AndersonFeatures, sim: AndersonFeatures,
                     config: AndersonConfig) -> dict[str, AndersonScores]:
    """Per-component scores from the features of two aligned records."""
    return {name: _score_component(per_band, sim.components[name],
                                   config.bands, rec.nyquist, config.max_lag)
            for name, per_band in rec.components.items()}


def _score_component(rec: dict, sim: dict, bands: BandSpec, nyquist: float,
                     max_lag: float) -> AndersonScores:
    scores = np.full((len(IMS), len(bands)), np.nan)
    skipped: list[tuple[str, int, str]] = []
    for bi, (f_lo, f_hi) in enumerate(bands.edges):
        if bi not in rec:
            skipped.append(("*", bi, f"band ({f_lo}, {f_hi}) Hz outside "
                                     f"(0, {nyquist:g}) Hz"))
            continue
        rec_b, iv_r = rec[bi]
        sim_b, iv_s = sim[bi]

        for im in SCALAR_IMS:
            scores[IMS.index(im), bi] = score_scalar(getattr(iv_r, im),
                                                     getattr(iv_s, im))

        sa_score = _vector_score(1.0 / iv_r.periods, iv_r.sa, iv_s.sa,
                                 f_lo, f_hi)
        if sa_score is None:
            skipped.append(("sa", bi, "no response-spectrum periods in band"))
        else:
            scores[IMS.index("sa"), bi] = sa_score

        fs_score = _vector_score(iv_r.fs.freqs, iv_r.fs.amplitudes,
                                 iv_s.fs.amplitudes, f_lo, f_hi)
        if fs_score is None:
            skipped.append(("fs", bi, "no Fourier samples in band"))
        else:
            scores[IMS.index("fs"), bi] = fs_score

        try:
            rho = cross_correlation(rec_b, sim_b, max_lag)
        except ValueError:
            skipped.append(("cstar", bi, "zero variance in band"))
        else:
            scores[IMS.index("cstar"), bi] = 10.0 * max(0.0, rho)
    return AndersonScores(IMS, bands, scores, tuple(skipped))


def _measures(ts: TimeSeries, sa: np.ndarray,
              cfg: AndersonConfig) -> IntensityVector:
    return compute_intensity_vector(
        ts, damping=cfg.damping, periods=cfg.periods,
        duration_lo=cfg.duration_lo, duration_hi=cfg.duration_hi, sa=sa)


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
