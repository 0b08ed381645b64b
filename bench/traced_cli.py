"""`python -m cgschur` with spans and counters, for the traced cli pass.

    python bench/traced_cli.py OUTFILE ARGS...

Runs ``cgschur.cli.main(ARGS)`` with the tracer installed, leaves stdout
and the exit code as the CLI makes them, and writes the counters, the
self time per span name and the spans to OUTFILE as JSON.
"""

from __future__ import annotations

import json
import os
import sys

import cgschur.cli
from spans import Tracer, self_time_by_name


def main(argv: list[str]) -> int:
    outfile, args = argv[0], argv[1:]
    tracer = Tracer(f"cli-{os.getpid()}")
    tracer.install()
    try:
        code = cgschur.cli.main(args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    with open(outfile, "w", encoding="utf-8") as fh:
        json.dump({"counts": tracer.snapshot(),
                   "layer_self_s": self_time_by_name(tracer.spans), "spans": tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
