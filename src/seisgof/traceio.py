"""Trace-file I/O.

Format contract: CSV with the exact header line ``t,ew,ns,ud`` followed by
rows of time in decimal seconds and three acceleration samples in m/s^2 on a
uniform grid (jitter tolerance 1e-9 s). A JSON sidecar named
``<basename>.meta.json`` carries ``station_id``, ``units`` and
``epicentral_distance``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .signal import Record3C, TimeSeries, Unit, UnitError

HEADER = "t,ew,ns,ud"
JITTER = 1e-9


def meta_path_for(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def write_json(path, payload) -> Path:
    """Write ``payload`` as indented JSON with sorted keys; return the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_record(record: Record3C, path) -> Path:
    """Write a record as trace CSV plus JSON sidecar; returns the CSV path.

    Floats are written with ``repr`` (shortest round-trip form), so a
    read/write cycle is byte-identical.
    """
    if record.unit is not Unit.ACCELERATION:
        raise UnitError("trace CSV stores acceleration in m/s2; integrate/"
                        "differentiate to acceleration before writing")
    path = Path(path)
    # One %-format of the row template repeated once per sample; %r is repr.
    columns = np.column_stack([record.ew.times, record.ew.samples,
                               record.ns.samples, record.ud.samples])
    rows = ("%r,%r,%r,%r\n" * record.ew.n) % tuple(columns.ravel().tolist())
    path.write_text(f"{HEADER}\n{rows}")
    write_json(meta_path_for(path), {
        "station_id": record.station_id,
        "units": Unit.ACCELERATION.value,
        "epicentral_distance": record.epicentral_distance,
    })
    return path


def _exact_interval(t: np.ndarray, dt: float) -> float:
    # The interval for which t[0] + i * dt gives back every time of the
    # column bit for bit, as write_record computes them, or the mean
    # interval dt when none does. Each time grows with the interval, so
    # those that fit form a range: bisect on the bits of positive floats.
    i = np.arange(t.size)
    lo, hi = np.array([dt / 2, dt * 2]).view(np.int64)
    while lo < hi:
        mid = lo + (hi - lo) // 2
        if np.any(t[0] + i * mid.view(np.float64) < t):
            lo = mid + 1
        else:
            hi = mid
    fit = lo.view(np.float64)
    return float(fit) if np.array_equal(t[0] + i * fit, t) else dt


def _read_rows(path: Path) -> np.ndarray:
    # The (n, 4) rows of a trace CSV: every field of the non-blank lines
    # after the header, as float() reads it, converted in one numpy pass
    # over one flat list of fields. So each line's width is checked by its
    # comma count first. Malformed or NaN/Inf input: a ValueError naming path.
    text = path.read_text().splitlines()
    if not text or text[0].strip() != HEADER:
        raise ValueError(f"{path}: first line must be exactly {HEADER!r}")
    lines = [line for line in text[1:] if line.strip()]
    if len(lines) < 2 or any(line.count(",") != 3 for line in lines):
        raise ValueError(f"{path}: expected at least 2 rows of t,ew,ns,ud")
    try:
        rows = np.array(",".join(lines).split(","), dtype=float).reshape(-1, 4)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():  # numbers[0] is the header's
        numbers = [i for i, line in enumerate(text, 1) if line.strip()]
        raise ValueError(f"{path}: line {numbers[bad.argmax() + 1]} holds "
                         f"NaN or Inf")
    return rows


def read_record(path) -> Record3C:
    """Read a trace CSV (and its sidecar if present) back into a Record3C."""
    path = Path(path)
    rows = _read_rows(path)
    t = rows[:, 0]
    n = t.size
    dt = (t[-1] - t[0]) / (n - 1)
    if dt <= 0:
        raise ValueError(f"{path}: time column must be increasing")
    jitter = np.abs(t - (t[0] + np.arange(n) * dt)).max()
    if jitter > JITTER:
        raise ValueError(f"{path}: non-uniform sampling (jitter {jitter:.3g} s "
                         f"exceeds {JITTER:g} s)")
    if jitter > 0.0:
        dt = _exact_interval(t, dt)

    station_id = ""
    epicentral = None
    meta_file = meta_path_for(path)
    if meta_file.exists():
        meta = json.loads(meta_file.read_text())
        if not isinstance(meta, dict):
            raise ValueError(f"{meta_file}: sidecar must be a JSON object")
        units = meta.get("units", Unit.ACCELERATION.value)
        if units != Unit.ACCELERATION.value:
            raise UnitError(f"{meta_file}: units must be "
                            f"{Unit.ACCELERATION.value!r}, got {units!r}")
        station_id = meta.get("station_id", "")
        epicentral = meta.get("epicentral_distance")

    def series(col):
        return TimeSeries(dt, t[0], rows[:, col], Unit.ACCELERATION)

    return Record3C(ew=series(1), ns=series(2), ud=series(3),
                    station_id=station_id, epicentral_distance=epicentral)
