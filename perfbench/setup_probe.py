"""Time the CLI's set-up in a fresh interpreter: import, config, inputs.

Usage: python3 perfbench/setup_probe.py CONFIG_JSON [TRACE_CSV ...]

Without trace files the config's scenario and reference are loaded, as
``seisgof sweep`` does; with them, the given traces, as ``seisgof gof``
does. Prints the seconds from the start of the script until everything is
loaded, before any scoring call.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv) -> None:
    from seisgof import cli

    cfg = cli.load_config(argv[0])
    traces = argv[1:]
    if not traces:
        cli.scenario_from_dict(json.loads(cfg.scenario_path.read_text()))
        traces = [cfg.reference_path]
    for path in traces:
        cli.traceio.read_record(path)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(sys.argv[1:])
