"""Run one `qsymk` CLI command with the per-layer tracer installed.

Usage: python3 perfbench/traced_job.py TRACE_OUT ARG...

Behaves like `qsymk ARG...` (same stdout and exit code) and additionally
writes the tracer's report, plus the wall time of the command, to
TRACE_OUT as JSON.  `src` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    import qsymk.cli

    tracer = Tracer().install()
    start = time.perf_counter()
    code = 1
    try:
        code = qsymk.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        wall = time.perf_counter() - start
        report = tracer.report()
        report["wall_s"] = wall
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
