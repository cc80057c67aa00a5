"""Run one goursat2d CLI call with the benchmark's tracer around ``cli.main``.

    python launch.py SPANS_JSON CALL_ID CLI_ARG...

Behaves like the ``goursat2d`` console script (same stdout, stderr, artifacts
and exit code) and also writes SPANS_JSON: the import time of
``goursat2d.cli``, the wall time of ``main`` and the span records.
"""

import json
import sys
import time

t0 = time.perf_counter()
import goursat2d.cli  # noqa: E402  (timed: the import is a layer of its own)
t1 = time.perf_counter()

from tracer import Tracer  # noqa: E402


def run(spans_path: str, call_id: int, argv: list[str]) -> int:
    tracer = Tracer(call_id)
    code = 1
    t2 = t3 = time.perf_counter()
    try:
        with tracer.installed():
            t2 = time.perf_counter()
            code = goursat2d.cli.main(argv)
            t3 = time.perf_counter()
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": t1 - t0, "main_s": t3 - t2,
                       "spans": tracer.records()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], int(sys.argv[2]), sys.argv[3:]))
