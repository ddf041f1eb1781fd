"""Deterministic report emission: CSV tables, SVG charts and the manifest.

SVGs are assembled from strings with no plotting dependency, so identical
inputs produce identical bytes. Grouped-score cells use three color classes
(red = poor, yellow = fair to good, white = excellent); correlation heatmaps
leave non-significant cells blank.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .ensemble import (QUALITATIVE_TRENDS_NOTE, CorrelationTable,
                       GroupedScores, RunResult, significant)
# anderson_summary is kept in this module's namespace: the CLI and the
# benchmark's spans reach it as report.anderson_summary.
from .gof_anderson import (AndersonScores, QualityLevel, anderson_summary,
                           quality)

QUALITY_COLORS = {
    QualityLevel.POOR: "#d73027",
    QualityLevel.FAIR: "#ffd966",
    QualityLevel.GOOD: "#ffd966",
    QualityLevel.EXCELLENT: "#ffffff",
}

_NEG = (33, 102, 172)    # r = -1
_MID = (247, 247, 247)   # r = 0
_POS = (178, 24, 43)     # r = +1


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _corr_color(r: float) -> str:
    r = max(-1.0, min(1.0, r))
    lo, hi = (_MID, _POS) if r >= 0 else (_MID, _NEG)
    w = abs(r)
    rgb = tuple(round(a + (b - a) * w) for a, b in zip(lo, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def write_anderson_csv(path, scores_by_component: dict[str, AndersonScores]) -> Path:
    """``component,im,band_lo,band_hi,score`` rows; skipped cells stay empty."""
    path = Path(path)
    lines = ["component,im,band_lo,band_hi,score"]
    for comp in sorted(scores_by_component):
        scores = scores_by_component[comp]
        for i, im in enumerate(scores.ims):
            for j, (lo, hi) in enumerate(scores.bands.edges):
                val = scores.scores[i, j]
                cell = "" if not np.isfinite(val) else repr(float(val))
                lines.append(f"{comp},{im},{lo!r},{hi!r},{cell}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_correlations_csv(path, table: CorrelationTable,
                           alpha: float = 0.05) -> Path:
    path = Path(path)
    masked = significant(table, alpha)
    lines = ["parameter,metric,r,p,significant,n"]
    for i, param in enumerate(table.parameters):
        for j, metric in enumerate(table.metrics):
            r, p = table.r[i, j], table.p[i, j]
            is_sig = bool(np.isfinite(masked.r[i, j]))
            r_cell = repr(float(r)) if np.isfinite(r) else ""
            p_cell = repr(float(p)) if np.isfinite(p) else ""
            lines.append(f"{param},{metric},{r_cell},{p_cell},"
                         f"{'yes' if is_sig else 'no'},{table.n}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_grouped_csv(path, rows: list[GroupedScores]) -> Path:
    path = Path(path)
    lines = ["component,parameter,value,metric,n,mean,min,max,quality"]
    for row in rows:
        lines.append(
            f"{row.component},{row.parameter},{row.value!r},{row.metric},"
            f"{len(row.scores)},{row.mean!r},{row.min!r},{row.max!r},"
            f"{quality(row.mean).value}")
    path.write_text("\n".join(lines) + "\n")
    return path


@dataclass
class _Layout:
    cell_w: int = 64
    cell_h: int = 30
    left: int = 96
    top: int = 58
    font: str = "Helvetica, Arial, sans-serif"


def render_correlation_svg(table: CorrelationTable,
                           alpha: float = 0.05) -> str:
    """Heatmap with blank cells where p > alpha or r is undefined."""
    lay = _Layout()
    masked = significant(table, alpha)
    n_rows = len(table.parameters)
    n_cols = len(table.metrics)
    width = lay.left + n_cols * lay.cell_w + 20
    height = lay.top + n_rows * lay.cell_h + 64
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{lay.left}" y="24" font-size="16" '
        f'font-family="{lay.font}">Correlation of fault angles with score '
        f'metrics ({_esc(table.component.upper())} component, '
        f'p &#8804; {alpha:g})</text>',
    ]
    for j, metric in enumerate(table.metrics):
        x = lay.left + j * lay.cell_w + lay.cell_w // 2
        parts.append(f'<text x="{x}" y="{lay.top - 8}" text-anchor="middle" '
                     f'font-size="12" font-family="{lay.font}">'
                     f'{_esc(metric)}</text>')
    for i, param in enumerate(table.parameters):
        y = lay.top + i * lay.cell_h
        parts.append(f'<text x="{lay.left - 10}" y="{y + lay.cell_h // 2 + 4}" '
                     f'text-anchor="end" font-size="12" '
                     f'font-family="{lay.font}">{_esc(param)}</text>')
        for j in range(len(table.metrics)):
            x = lay.left + j * lay.cell_w
            r = masked.r[i, j]
            if np.isfinite(r):
                fill = _corr_color(float(r))
                parts.append(f'<rect x="{x}" y="{y}" width="{lay.cell_w}" '
                             f'height="{lay.cell_h}" fill="{fill}" '
                             f'stroke="#999999"/>')
                parts.append(f'<text x="{x + lay.cell_w // 2}" '
                             f'y="{y + lay.cell_h // 2 + 4}" '
                             f'text-anchor="middle" font-size="11" '
                             f'font-family="{lay.font}">{float(r):.2f}</text>')
            else:
                # Blank cell: no value, plain background.
                parts.append(f'<rect x="{x}" y="{y}" width="{lay.cell_w}" '
                             f'height="{lay.cell_h}" fill="#ffffff" '
                             f'stroke="#cccccc"/>')
    note_y = lay.top + n_rows * lay.cell_h + 24
    parts.append(f'<text x="{lay.left}" y="{note_y}" font-size="11" '
                 f'fill="#555555" font-family="{lay.font}">n = {table.n}; '
                 f'blank cells are not statistically significant. '
                 f'{_esc(QUALITATIVE_TRENDS_NOTE)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_grouped_svg(rows: list[GroupedScores], component: str) -> str:
    """Fig-5-style panel set: one panel per fault angle, colored by quality."""
    lay = _Layout()
    rows = [r for r in rows if r.component == component]
    params = []
    for row in rows:
        if row.parameter not in params:
            params.append(row.parameter)
    metrics = []
    for row in rows:
        if row.metric not in metrics:
            metrics.append(row.metric)
    panel_gap = 40
    panels = []
    y_cursor = lay.top
    width = lay.left + len(metrics) * lay.cell_w + 20
    for param in params:
        levels = sorted({r.value for r in rows if r.parameter == param})
        panels.append((param, levels, y_cursor))
        y_cursor += len(levels) * lay.cell_h + panel_gap
    height = y_cursor + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{lay.left}" y="24" font-size="16" '
        f'font-family="{lay.font}">Mean scores grouped by fault angle '
        f'({_esc(component.upper())} component)</text>',
    ]
    lookup = {(r.parameter, r.value, r.metric): r for r in rows}
    for param, levels, y0 in panels:
        parts.append(f'<text x="{lay.left}" y="{y0 - 18}" font-size="13" '
                     f'font-family="{lay.font}">{_esc(param)}</text>')
        for j, metric in enumerate(metrics):
            x = lay.left + j * lay.cell_w + lay.cell_w // 2
            parts.append(f'<text x="{x}" y="{y0 - 4}" text-anchor="middle" '
                         f'font-size="10" font-family="{lay.font}">'
                         f'{_esc(metric)}</text>')
        for i, level in enumerate(levels):
            y = y0 + i * lay.cell_h
            parts.append(f'<text x="{lay.left - 10}" '
                         f'y="{y + lay.cell_h // 2 + 4}" text-anchor="end" '
                         f'font-size="12" font-family="{lay.font}">'
                         f'{level:g}&#176;</text>')
            for j, metric in enumerate(metrics):
                x = lay.left + j * lay.cell_w
                row = lookup[(param, level, metric)]
                fill = QUALITY_COLORS[quality(row.mean)]
                parts.append(f'<rect x="{x}" y="{y}" width="{lay.cell_w}" '
                             f'height="{lay.cell_h}" fill="{fill}" '
                             f'stroke="#999999"/>')
                parts.append(f'<text x="{x + lay.cell_w // 2}" '
                             f'y="{y + lay.cell_h // 2 + 4}" '
                             f'text-anchor="middle" font-size="11" '
                             f'font-family="{lay.font}">{row.mean:.1f}</text>')
    legend_y = height - 14
    legend = [("poor", QUALITY_COLORS[QualityLevel.POOR]),
              ("fair to good", QUALITY_COLORS[QualityLevel.FAIR]),
              ("excellent", QUALITY_COLORS[QualityLevel.EXCELLENT])]
    x = lay.left
    for label, color in legend:
        parts.append(f'<rect x="{x}" y="{legend_y - 11}" width="14" '
                     f'height="14" fill="{color}" stroke="#999999"/>')
        parts.append(f'<text x="{x + 20}" y="{legend_y}" font-size="11" '
                     f'font-family="{lay.font}">{_esc(label)}</text>')
        x += 24 + 8 * len(label) + 24
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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


def write_manifest(path, payload: dict) -> Path:
    """Single JSON manifest; the timestamp is isolated in ``generated_at``."""
    body = dict(payload)
    body["generated_at"] = datetime.now(timezone.utc).isoformat()
    path = Path(path)
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    return path
