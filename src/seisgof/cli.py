"""Command-line surface: synth, gof, sweep and report.

Errors exit non-zero with a machine-readable JSON object on stderr; a sweep
with per-run failures writes what it can and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import report, traceio
from .config import (ENV_OUTPUT_DIR, ENV_WORKERS, ConfigError, PipelineConfig,
                     config_echo, load_config, significance_level)
from .ensemble import (QUALITATIVE_TRENDS_NOTE, build_grid, correlation_tables,
                       group_report, run_sweep, score_body, synthesize)
from .gof_anderson import anderson_features, compare_anderson
from .gof_tf import tf_gof
from .signal import COMPONENTS, align_records
from .source import scenario_from_dict, synth_fullspace


class CliError(RuntimeError):
    pass


def _load_scenario(cfg: PipelineConfig):
    if cfg.scenario_path is None:
        raise CliError("config must reference a scenario JSON file")
    try:
        return scenario_from_dict(json.loads(cfg.scenario_path.read_text()))
    except (KeyError, TypeError, AttributeError) as exc:
        raise CliError(f"scenario {cfg.scenario_path.name} has a missing or "
                       f"malformed entry: {exc!r}") from exc


def _load_reference(cfg: PipelineConfig):
    if cfg.reference_path is None:
        raise CliError("config must reference a recorded trace CSV "
                       "(\"reference\")")
    return traceio.read_record(cfg.reference_path)


def cmd_synth(cfg: PipelineConfig, out_dir: Path) -> int:
    """Synthesize one record for the scenario mechanism and write trace files."""
    scenario, fm, stf = _load_scenario(cfg)
    record = synth_fullspace(scenario, fm, stf)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = traceio.write_record(record, out_dir / "synthetic.csv")
    report.write_manifest(out_dir / "manifest.json", {
        "command": "synth",
        "config": config_echo(cfg),
        "mechanism": {"strike": fm.strike, "dip": fm.dip, "rake": fm.rake},
        "files": [csv_path.name, traceio.meta_path_for(csv_path).name],
    })
    return 0


def cmd_gof(record_path: Path, synthetic_path: Path, cfg: PipelineConfig,
            out_dir: Path, component: str = "all") -> int:
    """Both GOF frameworks on one recorded/synthetic pair, scoring only the
    chosen component (``"all"``: every component).

    Writes ``anderson_scores.csv``, ``gof_summary.json`` (the two input
    paths, the Anderson block and EG and PG per scored component) and, per
    scored component ``c``, ``tf_<c>.npz``: an uncompressed numpy archive
    of eight float64 arrays, read with ``np.load(path)``:

    - ``times`` (n_times,) and ``freqs`` (n_freqs,), the plane axes
    - the marginals ``teg`` and ``tpg`` (n_times,), ``feg`` and ``fpg``
      (n_freqs,)
    - the GOF planes ``tfeg`` and ``tfpg`` (n_times, n_freqs)

    Every value is stored exactly, and equal values give equal file bytes.
    """
    rec, sim = align_records(traceio.read_record(record_path),
                             traceio.read_record(synthetic_path))
    wanted = COMPONENTS if component == "all" else (component,)
    features = anderson_features(
        [getattr(r, c) for r in (rec, sim) for c in wanted], cfg.anderson)
    anderson = {c: compare_anderson(r, s, cfg.anderson) for c, r, s
                in zip(wanted, features, features[len(wanted):])}
    del features  # freed before the TF planes are computed

    out_dir.mkdir(parents=True, exist_ok=True)
    files = [report.write_anderson_csv(out_dir / "anderson_scores.csv",
                                       anderson).name]
    tf = {}
    for comp in wanted:
        gof = tf_gof(getattr(rec, comp), getattr(sim, comp), cfg.tf)
        plane_path = out_dir / f"tf_{comp}.npz"
        np.savez(plane_path, times=gof.times, freqs=gof.freqs, teg=gof.teg,
                 tpg=gof.tpg, feg=gof.feg, fpg=gof.fpg, tfeg=gof.tfeg,
                 tfpg=gof.tfpg)
        files.append(plane_path.name)
        tf[comp] = gof.eg, gof.pg
        del gof  # its planes are freed before the next component's
    summary = {"record": str(record_path),
               "synthetic": str(synthetic_path), **score_body(anderson, tf)}
    files.append(traceio.write_json(out_dir / "gof_summary.json",
                                    summary).name)
    report.write_manifest(out_dir / "manifest.json", {
        "command": "gof", "config": config_echo(cfg), "files": sorted(files),
    })
    return 0


def _ingest_external_run(external_dir: Path, angles):
    name = report.run_dir_name(angles)
    for candidate in (external_dir / f"{name}.csv",
                      external_dir / name / "synthetic.csv"):
        if candidate.exists():
            return traceio.read_record(candidate)
    raise CliError(f"external run not found for mechanism {name} under "
                   f"{external_dir}")


def cmd_sweep(cfg: PipelineConfig, out_dir: Path,
              external_runs: Path | None = None) -> int:
    """Full grid pipeline: synthesis (or ingestion), scores, correlations."""
    scenario, center, stf = _load_scenario(cfg)
    reference = _load_reference(cfg)
    grid = build_grid(center, cfg.grid_deltas)

    make_record = (partial(synthesize, scenario, stf) if external_runs is None
                   else partial(_ingest_external_run, external_runs))
    # Created before any run is scored, so an unusable --out fails at once.
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_sweep(make_record, grid, reference, out_dir,
                        anderson_config=cfg.anderson, tf_config=cfg.tf,
                        workers=cfg.workers)
    failed = [{"run": report.run_dir_name(r.angles), "error": r.error}
              for r in results if r.error is not None]

    files = []
    tables = correlation_tables(results)
    for comp, table in tables.items():
        files.append(report.write_correlations_csv(
            out_dir / f"correlations_{comp}.csv", table, cfg.alpha).name)
    grouped = group_report(results)
    files.append(report.write_grouped_csv(out_dir / "grouped_scores.csv",
                                          grouped).name)
    files += report.write_charts(out_dir, tables, grouped, cfg.alpha)

    report.write_manifest(out_dir / "manifest.json", {
        "command": "sweep",
        "config": config_echo(cfg),
        "grid": {"strikes": list(grid.strikes), "dips": list(grid.dips),
                 "rakes": list(grid.rakes), "size": grid.size},
        "runs": [report.run_dir_name(r.angles) for r in results],
        "failed_runs": failed,
        "correlation_note": QUALITATIVE_TRENDS_NOTE,
        "files": sorted(files),
    })
    return 2 if failed else 0


def cmd_report(run_dir: Path, out_dir: Path) -> int:
    """Re-render SVG charts and the manifest from a sweep output directory,
    at the significance level the sweep's manifest records."""
    if not run_dir.is_dir():
        raise CliError(f"run directory not found: {run_dir}")
    try:
        alpha = json.loads((run_dir / "manifest.json").read_text())[
            "config"]["alpha"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"no sweep manifest.json with config.alpha in "
                       f"{run_dir}") from exc
    alpha = significance_level(alpha)
    paths = {comp: run_dir / f"correlations_{comp}.csv" for comp in COMPONENTS}
    grouped_path = run_dir / "grouped_scores.csv"
    for path in (*paths.values(), grouped_path):
        if not path.exists():
            raise CliError(f"missing {path.name} in {run_dir}")
    tables = {comp: report.table_from_csv(path, comp)
              for comp, path in paths.items()}
    grouped = report.grouped_rows_from_csv(grouped_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = report.write_charts(out_dir, tables, grouped, alpha)
    report.write_manifest(out_dir / "manifest.json", {
        "command": "report", "source_dir": str(run_dir),
        "files": sorted(files),
    })
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seisgof",
        description="Synthesize point-source seismograms and score them "
                    "against recorded motions.",
        epilog=f"Every command reads {ENV_WORKERS} (pool processes) and "
               f"{ENV_OUTPUT_DIR} (output directory); a flag overrides them, "
               f"and they override the config file.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize one record")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", default=None)

    p_gof = sub.add_parser(
        "gof", help="score one recorded/synthetic pair",
        description="Score one recorded/synthetic pair with both GOF "
                    "frameworks. Writes anderson_scores.csv, "
                    "gof_summary.json (the Anderson scores and EG and PG "
                    "per component) and, per component c, tf_<c>.npz: the "
                    "float64 arrays times, freqs, the marginals teg, tpg "
                    "(n_times,) and feg, fpg (n_freqs,), and the planes "
                    "tfeg and tfpg (n_times, n_freqs), read with "
                    "numpy.load(path).")
    p_gof.add_argument("record")
    p_gof.add_argument("synthetic")
    p_gof.add_argument("--config", default=None)
    p_gof.add_argument("--out", default=None)
    p_gof.add_argument("--component", choices=[*COMPONENTS, "all"],
                       default="all", help="score only this component; the "
                       "others are not computed (default: all)")

    p_sweep = sub.add_parser("sweep", help="run the mechanism grid pipeline")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="pool processes, also for --external-runs")
    p_sweep.add_argument("--external-runs", default=None)

    p_report = sub.add_parser("report", help="render charts from a sweep dir")
    p_report.add_argument("run_dir")
    p_report.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(getattr(args, "config", None),
                          workers=getattr(args, "workers", None),
                          output_dir=args.out)
        out_dir = cfg.output_dir

        if args.command == "synth":
            return cmd_synth(cfg, out_dir)
        if args.command == "gof":
            return cmd_gof(Path(args.record), Path(args.synthetic), cfg,
                           out_dir, args.component)
        if args.command == "sweep":
            external = (Path(args.external_runs)
                        if args.external_runs is not None else None)
            return cmd_sweep(cfg, out_dir, external)
        return cmd_report(Path(args.run_dir), out_dir)  # the one left: report
    except (CliError, ConfigError, ValueError, OSError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
