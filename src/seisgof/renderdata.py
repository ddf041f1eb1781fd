"""Load persisted sweep tables back into the in-memory report structures."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .ensemble import PARAMETERS, CorrelationTable, GroupedScores


def _rows(path, columns: tuple[str, ...]) -> list[dict]:
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
    metrics = []
    for row in rows:
        if row["metric"] not in metrics:
            metrics.append(row["metric"])
    params = []
    for row in rows:
        if row["parameter"] not in params:
            params.append(row["parameter"])
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
