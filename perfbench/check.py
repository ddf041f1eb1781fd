"""Output checks on one CLI output tree.

The tree digest covers every file by relative path and content; in each
``manifest.json`` only ``generated_at`` is dropped, as criterion 8 does.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Known difference between a --workers 1 and a --workers 2 sweep tree: the
# manifest echoes the worker count (ROADMAP item 1, criterion 8).
EXPECTED_WORKER_DIFFS = ("manifest.json:config.workers",)


def _normalized(path: Path) -> bytes:
    if path.name == "manifest.json":
        body = json.loads(path.read_text())
        body.pop("generated_at", None)
        return json.dumps(body, sort_keys=True).encode()
    return path.read_bytes()


def file_digests(root: Path) -> dict[str, str]:
    """{relative path: sha256 of the normalized content} for every file."""
    return {str(p.relative_to(root)):
            hashlib.sha256(_normalized(p)).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def tree_digest(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for rel, digest in sorted(files.items()):
        h.update(f"{rel}\0{digest}\n".encode())
    return h.hexdigest()


def _flatten(value, prefix: str, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}.{key}" if prefix else key, out)
    else:
        out[prefix] = value


def tree_differences(root_a: Path, root_b: Path) -> list[str]:
    """Differing files; for JSON files, the differing dotted keys."""
    a, b = file_digests(root_a), file_digests(root_b)
    diffs = []
    for rel in sorted(set(a) | set(b)):
        if a.get(rel) == b.get(rel):
            continue
        if rel in a and rel in b and rel.endswith(".json"):
            fa, fb = {}, {}
            _flatten(json.loads(_normalized(root_a / rel)), "", fa)
            _flatten(json.loads(_normalized(root_b / rel)), "", fb)
            diffs += [f"{rel}:{key}" for key in sorted(set(fa) | set(fb))
                      if fa.get(key, "<missing>") != fb.get(key, "<missing>")]
        else:
            diffs.append(rel)
    return diffs


def _summary_scores(summary: dict, prefix: str) -> dict[str, float]:
    """EG, PG and the mean of every measure score, per component."""
    out = {}
    for comp, tf in sorted(summary["tf"].items()):
        out[f"{prefix}{comp}.EG"] = tf["EG"]
        out[f"{prefix}{comp}.PG"] = tf["PG"]
    for comp, block in sorted(summary["anderson"].items()):
        for im, agg in sorted(block["aggregates"].items()):
            out[f"{prefix}{comp}.{im}"] = agg["mean"]
    return out


def sweep_scores(root: Path) -> dict[str, float]:
    scores = {}
    for gof in sorted((root / "runs").glob("*/gof.json")):
        body = json.loads(gof.read_text())
        if body.get("error") is None:
            scores.update(_summary_scores(body, f"{gof.parent.name}."))
    return scores


def gof_scores(root: Path) -> dict[str, float]:
    scores = _summary_scores(json.loads((root / "gof_summary.json")
                                        .read_text()), "")
    with open(root / "anderson_scores.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["score"]:
                key = (f"{row['component']}.{row['im']}."
                       f"{row['band_lo']}-{row['band_hi']}")
                scores[key] = float(row["score"])
    return scores


def range_problems(scores: dict[str, float]) -> list[str]:
    return [f"score {key}={value!r} not finite in [0, 10]"
            for key, value in scores.items()
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and 0.0 <= value <= 10.0)]


def golden_problems(scores: dict[str, float], golden: dict[str, float],
                    tolerance: float) -> list[str]:
    if set(scores) != set(golden):
        return [f"score keys differ from the golden values: "
                f"{sorted(set(scores) ^ set(golden))[:5]}"]
    return [f"score {key}={scores[key]!r} differs from golden "
            f"{golden[key]!r} by more than {tolerance:g}"
            for key in sorted(golden)
            if not abs(scores[key] - golden[key]) <= tolerance]


def sweep_problems(root: Path, expected_runs: int) -> list[str]:
    """Failed runs or a wrong run count in a sweep tree."""
    problems = []
    manifest = json.loads((root / "manifest.json").read_text())
    failed = manifest.get("failed_runs", [])
    if failed:
        problems.append(f"failed_runs is not empty: {failed[:3]}")
    run_dirs = [p for p in (root / "runs").iterdir() if p.is_dir()]
    if len(run_dirs) != expected_runs:
        problems.append(f"{len(run_dirs)} run directories, "
                        f"expected {expected_runs}")
    return problems
