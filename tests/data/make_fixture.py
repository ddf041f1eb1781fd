"""Regenerate the planted fixture run directory and the golden SVGs.

Run from the repository root:

    python3 tests/data/make_fixture.py

The fixture plants hand-picked values that exercise significant,
non-significant and undefined correlation cells plus all three grouped-score
color classes, next to the manifest of a default-config sweep, from which
the report reads its significance level (0.05). Golden files are reviewed
once and then byte-compared by the test suite.
"""

from pathlib import Path

import numpy as np

from seisgof.cli import cmd_report
from seisgof.config import PipelineConfig, config_echo
from seisgof.ensemble import (METRICS, PARAMETERS, QUALITATIVE_TRENDS_NOTE,
                              CorrelationTable, GroupedScores)
from seisgof.report import (write_correlations_csv, write_grouped_csv,
                            write_manifest)

HERE = Path(__file__).parent
FIXTURE = HERE / "fixture_run"
GOLDEN = HERE / "golden"


def planted_table(component: str) -> CorrelationTable:
    n_m = len(METRICS)
    r = np.full((3, n_m), np.nan)
    p = np.full((3, n_m), np.nan)
    # rake: strong planted correlations, alternating sign, all significant
    r[2] = [(-1.0) ** j * (0.55 + 0.04 * j) for j in range(n_m)]
    p[2] = [0.001 + 0.002 * j for j in range(n_m)]
    # dip: moderate values, only every third cell significant
    r[1] = [0.3 + 0.02 * j for j in range(n_m)]
    p[1] = [0.01 if j % 3 == 0 else 0.5 for j in range(n_m)]
    # strike: first two cells significant, one undefined cell (NaN stays)
    r[0, 0], p[0, 0] = 0.84, 0.02
    r[0, 1], p[0, 1] = -0.62, 0.04
    r[0, 2], p[0, 2] = 0.10, 0.90
    offset = {"ew": 0.0, "ns": 0.05, "ud": -0.05}[component]
    r = np.where(np.isfinite(r), np.clip(r + offset, -1.0, 1.0), r)
    return CorrelationTable(component=component, parameters=PARAMETERS,
                            metrics=METRICS, r=r, p=p, n=27)


def planted_grouped() -> list[GroupedScores]:
    levels = {"strike": (40.0, 45.0, 50.0), "dip": (50.0, 55.0, 60.0),
              "rake": (80.0, 90.0, 100.0)}
    rows = []
    for comp_idx, comp in enumerate(("ew", "ns", "ud")):
        for param in PARAMETERS:
            for li, level in enumerate(levels[param]):
                for mi, metric in enumerate(METRICS):
                    # cycle through poor / fair / good / excellent means
                    base = (comp_idx + li + mi) % 4
                    mean = (2.0, 5.0, 7.0, 9.5)[base]
                    scores = tuple(mean + d for d in (-0.5, 0.0, 0.5) * 3)
                    rows.append(GroupedScores(component=comp, parameter=param,
                                              value=level, metric=metric,
                                              scores=scores))
    return rows


def main():
    FIXTURE.mkdir(parents=True, exist_ok=True)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    cfg = PipelineConfig()
    files = [write_correlations_csv(FIXTURE / f"correlations_{comp}.csv",
                                    planted_table(comp), cfg.alpha).name
             for comp in ("ew", "ns", "ud")]
    files.append(write_grouped_csv(FIXTURE / "grouped_scores.csv",
                                   planted_grouped()).name)
    write_manifest(FIXTURE / "manifest.json", {
        "command": "sweep", "config": config_echo(cfg),
        "correlation_note": QUALITATIVE_TRENDS_NOTE, "files": sorted(files),
    })
    rc = cmd_report(FIXTURE, GOLDEN)
    assert rc == 0
    (GOLDEN / "manifest.json").unlink()  # timestamps do not belong in goldens
    print(f"fixture: {FIXTURE}")
    print(f"goldens: {sorted(p.name for p in GOLDEN.iterdir())}")


if __name__ == "__main__":
    main()
