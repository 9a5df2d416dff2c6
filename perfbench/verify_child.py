"""Traced `minsurf verify` in a fresh interpreter.

Usage: python verify_child.py REPORT.json SPANS.json

Runs ``minsurf.cli.main(["verify", "--out", REPORT])``, so the criteria run
in registry order exactly as the console script runs them, with the
tracer's wrappers installed.  The import of the package and its
numpy/scipy stack is recorded as the ``cli.import`` span.  Exits with the
command's exit code after writing the spans as one JSON list.
"""

from __future__ import annotations

import json
import sys
import time

from tracing import Tracer


def main(report: str, spans_path: str) -> int:
    tracer = Tracer()
    tracer.job = 0
    t0 = time.perf_counter()
    import minsurf.acceptance  # noqa: F401
    import minsurf.cli

    tracer.spans.append(["cli.import", "cli", t0, time.perf_counter(), -1,
                         0, None, None, True])
    tracer.install()
    with tracer.span("cli.main", "cli"):
        rc = minsurf.cli.main(["verify", "--out", report])
    tracer.remove()
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
