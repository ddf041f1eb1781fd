"""Rewrite golden.json: every score of each workload at the default seed.

Usage (from the repository root): python3 perfbench/make_golden.py

Run it only for a change that is meant to move scores, and say why.
"""

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import check
    from inputs import DEFAULT_SEED, write_inputs

    golden = {}
    for key, name, read in (("sweep", "sweep-w1", check.sweep_scores),
                            ("gof-long", "gof-long", check.gof_scores)):
        wl = run.Workload(name, DEFAULT_SEED,
                          run.WORK_ROOT / f"golden-{name}")
        try:
            write_inputs(name, DEFAULT_SEED, wl.work)
            wl.invoke()
            if wl.problems:
                print("\n".join(wl.problems), file=sys.stderr)
                return 1
            golden[key] = read(wl.out)
        finally:
            shutil.rmtree(wl.work, ignore_errors=True)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                               + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
