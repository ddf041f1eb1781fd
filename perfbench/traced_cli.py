"""Run the seisgof CLI once with spans around each layer's public functions.

Usage: python3 perfbench/traced_cli.py TRACE_JSON <seisgof arguments...>

Writes the time taken by ``import seisgof.cli``, this process's trace and
the traces of its forked pool workers to TRACE_JSON, and exits with the
CLI's exit code.
"""

import json
import sys
import time
from pathlib import Path

import spans


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import seisgof.cli
    import_s = time.perf_counter() - start
    tracer = spans.Tracer(trace_path)
    spans.install(tracer)
    try:
        return seisgof.cli.main(cli_args)
    finally:
        workers = []
        path = Path(trace_path)
        for part in sorted(path.parent.glob(path.name + ".*")):
            workers += [json.loads(line)
                        for line in part.read_text().splitlines()]
            part.unlink()
        path.write_text(json.dumps({"import_s": import_s,
                                    **tracer.to_json(),
                                    "workers": workers}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
