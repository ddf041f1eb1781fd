"""Deterministic report emission: CSV tables, SVG charts and the manifest,
and the readers that load a sweep's correlation and grouped-score tables
back for ``seisgof report``.

SVGs are assembled from strings with no plotting dependency, so identical
inputs produce identical bytes. Grouped-score cells use three color classes
(red = poor, yellow = fair to good, white = excellent); correlation heatmaps
leave non-significant cells blank, and grouped-score charts leave a group
with a non-finite mean blank.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# anderson_summary, run_dir_name and write_run_gof_json are kept in this
# module's namespace: the benchmark's spans look them up as report.<name>,
# and the CLI calls run_dir_name from here.
from .ensemble import (PARAMETERS, QUALITATIVE_TRENDS_NOTE,
                       CorrelationTable, GroupedScores, run_dir_name,
                       significant, write_run_gof_json)
from .gof_anderson import (AndersonScores, QualityLevel, anderson_summary,
                           quality)
from .traceio import write_json

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


def _csv_number(value: float) -> str:
    """``repr`` of a finite value; an empty cell otherwise."""
    return repr(float(value)) if np.isfinite(value) else ""


def write_anderson_csv(path, scores_by_component: dict[str, AndersonScores]) -> Path:
    """``component,im,band_lo,band_hi,score`` rows; skipped cells stay empty."""
    path = Path(path)
    lines = ["component,im,band_lo,band_hi,score"]
    for comp in sorted(scores_by_component):
        scores = scores_by_component[comp]
        for i, im in enumerate(scores.ims):
            for j, (lo, hi) in enumerate(scores.bands.edges):
                lines.append(f"{comp},{im},{lo!r},{hi!r},"
                             f"{_csv_number(scores.scores[i, j])}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_correlations_csv(path, table: CorrelationTable,
                           alpha: float = 0.05) -> Path:
    path = Path(path)
    masked = significant(table, alpha)
    lines = ["parameter,metric,r,p,significant,n"]
    for i, param in enumerate(table.parameters):
        for j, metric in enumerate(table.metrics):
            is_sig = bool(np.isfinite(masked.r[i, j]))
            lines.append(f"{param},{metric},{_csv_number(table.r[i, j])},"
                         f"{_csv_number(table.p[i, j])},"
                         f"{'yes' if is_sig else 'no'},{table.n}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_grouped_csv(path, rows: list[GroupedScores]) -> Path:
    """One row per (component, angle value, metric). A group with a
    non-finite score has empty mean, min, max and quality cells."""
    path = Path(path)
    lines = ["component,parameter,value,metric,n,mean,min,max,quality"]
    for row in rows:
        level = quality(row.mean).value if np.isfinite(row.mean) else ""
        lines.append(
            f"{row.component},{row.parameter},{row.value!r},{row.metric},"
            f"{len(row.scores)},{_csv_number(row.mean)},"
            f"{_csv_number(row.min)},{_csv_number(row.max)},{level}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _rows(path, columns: tuple[str, ...]) -> list[dict]:
    import csv  # here, so that the CLI starts without it

    # A header without one of the columns, or a row with fewer cells than
    # the header (which DictReader fills with None), is a ValueError that
    # names the file, not a KeyError or TypeError further on.
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        rows = []
        for row in reader:
            if None in row.values():
                raise ValueError(f"{path}: line {reader.line_num} has "
                                 f"fewer cells than the header")
            rows.append(row)
        return rows


def table_from_csv(path, component: str) -> CorrelationTable:
    """Rebuild a correlation table from ``correlations_<component>.csv``."""
    rows = _rows(path, ("parameter", "metric", "r", "p"))
    metrics = list(dict.fromkeys(row["metric"] for row in rows))
    params = list(dict.fromkeys(row["parameter"] for row in rows))
    if tuple(params) != PARAMETERS:
        raise ValueError(f"{path}: unexpected parameter rows {params}")
    r = np.full((len(params), len(metrics)), np.nan)
    p = np.full_like(r, np.nan)
    for row in rows:
        i = params.index(row["parameter"])
        j = metrics.index(row["metric"])
        if row["r"]:
            r[i, j] = float(row["r"])
        if row["p"]:
            p[i, j] = float(row["p"])
    n = int(rows[0]["n"]) if rows and rows[0].get("n") else 0
    return CorrelationTable(component=component, parameters=PARAMETERS,
                            metrics=tuple(metrics), r=r, p=p, n=n)


def grouped_rows_from_csv(path) -> list[GroupedScores]:
    """Rebuild grouped-score rows from ``grouped_scores.csv``.

    Only the mean is needed for rendering; the persisted mean is replayed as
    a single-score distribution so the chart is byte-stable. An empty mean
    cell is replayed as NaN.
    """
    rows = _rows(path, ("component", "parameter", "value", "metric", "mean"))
    return [GroupedScores(component=row["component"],
                          parameter=row["parameter"],
                          value=float(row["value"]), metric=row["metric"],
                          scores=(float(row["mean"] or "nan"),))
            for row in rows]


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


def _blank_cell(x, y) -> str:
    """A cell with no value: plain background, lighter border."""
    return _rect(x, y, CELL_W, CELL_H, "#ffffff", "#cccccc")


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
                parts.append(_blank_cell(x, y))
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
                x = LEFT + j * CELL_W
                mean = lookup[(param, level, metric)].mean
                if np.isfinite(mean):
                    parts += _cell(x, y, QUALITY_COLORS[quality(mean)],
                                   f"{mean:.1f}")
                else:
                    parts.append(_blank_cell(x, y))
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
    return write_json(path, {
        **payload, "generated_at": datetime.now(timezone.utc).isoformat()})
