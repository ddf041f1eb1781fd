"""Load persisted sweep tables back into the in-memory report structures."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .ensemble import PARAMETERS, CorrelationTable, GroupedScores


def table_from_csv(path, component: str) -> CorrelationTable:
    """Rebuild a correlation table from ``correlations_<component>.csv``."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
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
    a single-score distribution so the chart is byte-stable.
    """
    with Path(path).open(newline="") as fh:
        return [GroupedScores(component=row["component"],
                              parameter=row["parameter"],
                              value=float(row["value"]), metric=row["metric"],
                              scores=(float(row["mean"]),))
                for row in csv.DictReader(fh)]
