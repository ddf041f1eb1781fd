"""Deterministic report emission: CSV tables, SVG charts and the manifest.

SVGs are assembled from strings with no plotting dependency, so identical
inputs produce identical bytes. Grouped-score cells use three color classes
(red = poor, yellow = fair to good, white = excellent); correlation heatmaps
leave non-significant cells blank.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# anderson_summary, run_dir_name and write_run_gof_json are kept in this
# module's namespace: the benchmark's spans look them up as report.<name>,
# and the CLI calls the first two from here.
from .ensemble import (QUALITATIVE_TRENDS_NOTE, CorrelationTable,
                       GroupedScores, run_dir_name, significant,
                       write_run_gof_json)
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


CELL_W, CELL_H = 64, 30   # one heatmap or grouped-score cell
LEFT, TOP = 96, 58        # the first cell's top-left corner
FONT = "Helvetica, Arial, sans-serif"


def _text(x, y, size, body, anchor="", fill="") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    fill = f' fill="{fill}"' if fill else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-size="{size}"{fill} '
            f'font-family="{FONT}">{body}</text>')


def _rect(x, y, width, height, fill, stroke="#999999") -> str:
    return (f'<rect x="{x}" y="{y}" width="{width}" height="{height}" '
            f'fill="{fill}" stroke="{stroke}"/>')


def _cell(x, y, fill, label) -> list[str]:
    """A filled grid cell with its value centered."""
    return [_rect(x, y, CELL_W, CELL_H, fill),
            _text(x + CELL_W // 2, y + CELL_H // 2 + 4, 11, label, "middle")]


def _svg(width, height, title, parts) -> str:
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        _text(LEFT, 24, 16, title), *parts, "</svg>"]) + "\n"


def render_correlation_svg(table: CorrelationTable,
                           alpha: float = 0.05) -> str:
    """Heatmap with blank cells where p > alpha or r is undefined."""
    masked = significant(table, alpha)
    n_rows = len(table.parameters)
    parts = [_text(LEFT + j * CELL_W + CELL_W // 2, TOP - 8, 12, _esc(metric),
                   "middle") for j, metric in enumerate(table.metrics)]
    for i, param in enumerate(table.parameters):
        y = TOP + i * CELL_H
        parts.append(_text(LEFT - 10, y + CELL_H // 2 + 4, 12, _esc(param),
                           "end"))
        for j in range(len(table.metrics)):
            x = LEFT + j * CELL_W
            r = masked.r[i, j]
            if np.isfinite(r):
                parts += _cell(x, y, _corr_color(float(r)), f"{float(r):.2f}")
            else:
                # Blank cell: no value, plain background.
                parts.append(_rect(x, y, CELL_W, CELL_H, "#ffffff", "#cccccc"))
    parts.append(_text(LEFT, TOP + n_rows * CELL_H + 24, 11,
                       f"n = {table.n}; blank cells are not statistically "
                       f"significant. {_esc(QUALITATIVE_TRENDS_NOTE)}",
                       fill="#555555"))
    return _svg(LEFT + len(table.metrics) * CELL_W + 20,
                TOP + n_rows * CELL_H + 64,
                f"Correlation of fault angles with score metrics "
                f"({_esc(table.component.upper())} component, "
                f"p &#8804; {alpha:g})", parts)


def render_grouped_svg(rows: list[GroupedScores], component: str) -> str:
    """Fig-5-style panel set: one panel per fault angle, colored by quality."""
    rows = [r for r in rows if r.component == component]
    params = list(dict.fromkeys(r.parameter for r in rows))
    metrics = list(dict.fromkeys(r.metric for r in rows))
    lookup = {(r.parameter, r.value, r.metric): r for r in rows}
    parts = []
    y0 = TOP
    for param in params:
        levels = sorted({r.value for r in rows if r.parameter == param})
        parts.append(_text(LEFT, y0 - 18, 13, _esc(param)))
        parts += [_text(LEFT + j * CELL_W + CELL_W // 2, y0 - 4, 10,
                        _esc(metric), "middle")
                  for j, metric in enumerate(metrics)]
        for i, level in enumerate(levels):
            y = y0 + i * CELL_H
            parts.append(_text(LEFT - 10, y + CELL_H // 2 + 4, 12,
                               f"{level:g}&#176;", "end"))
            for j, metric in enumerate(metrics):
                mean = lookup[(param, level, metric)].mean
                parts += _cell(LEFT + j * CELL_W, y,
                               QUALITY_COLORS[quality(mean)], f"{mean:.1f}")
        y0 += len(levels) * CELL_H + 40   # the gap between panels
    height = y0 + 40
    x = LEFT
    for label, level in (("poor", QualityLevel.POOR),
                         ("fair to good", QualityLevel.FAIR),
                         ("excellent", QualityLevel.EXCELLENT)):
        parts += [_rect(x, height - 25, 14, 14, QUALITY_COLORS[level]),
                  _text(x + 20, height - 14, 11, _esc(label))]
        x += 24 + 8 * len(label) + 24
    return _svg(LEFT + len(metrics) * CELL_W + 20, height,
                f"Mean scores grouped by fault angle "
                f"({_esc(component.upper())} component)", parts)


def write_charts(out_dir, tables: dict[str, CorrelationTable],
                 grouped: list[GroupedScores], alpha: float) -> list[str]:
    """Write ``correlation_<c>.svg`` and ``grouped_<c>.svg`` for each
    component ``c`` of ``tables``; returns the file names."""
    names = []
    for comp, table in tables.items():
        svgs = {f"correlation_{comp}.svg": render_correlation_svg(table,
                                                                  alpha),
                f"grouped_{comp}.svg": render_grouped_svg(grouped, comp)}
        for name, svg in svgs.items():
            (Path(out_dir) / name).write_text(svg)
        names += svgs
    return names


def write_manifest(path, payload: dict) -> Path:
    """Single JSON manifest; the timestamp is isolated in ``generated_at``."""
    body = dict(payload)
    body["generated_at"] = datetime.now(timezone.utc).isoformat()
    path = Path(path)
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    return path
