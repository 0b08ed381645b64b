"""How fast the host runs right now, from a fixed pure-Python loop.

The benchmark shares a machine whose speed for the same Python code
drifts by 20-40 % within minutes (2 vCPUs, Python 3.11).  A run
therefore samples this loop between its timed operations, on the CPU
they run on, and reports the geometric mean of the measured time and
the time scaled to a host where the loop takes REFERENCE_S:

    reported = measured * sqrt(REFERENCE_S / median(reference samples))

Full scaling is not used because a slow host slows the loop and the
library by different amounts: in one measured drift the loop slowed by
73 % and the ladder workload by 43 %; in another the two matched.  The
square root halved the run-to-run range of the ladder and cli times in
both cases.  The loop hashes small tuples into a dict of some megabytes,
the kind of work the library does.  It runs in a process of its own,
started once per run, so that its memory never adds to a measured peak
RSS:

    python bench/reference.py     # answers "n" on stdin with n timings
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time

REFERENCE_S = 0.025
# Environment variable that hands a worker the pipe ends of the run's
# reference process, as "read_fd,write_fd".
FDS_ENV = "CGSCHUR_BENCH_REFERENCE_FDS"


def _loop() -> int:
    counts: dict = {}
    for i in range(60_000):
        key = (i * 7919 % 100_003, i & 255)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def serve() -> None:
    """Answer each line "n" on stdin with the seconds of n runs of the loop."""
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            start = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - start)
        print(json.dumps(times), flush=True)


class Reference:
    """Client of the reference process, over its stdin and stdout."""

    def __init__(self, reader, writer):
        self._reader, self._writer = reader, writer

    @classmethod
    def from_env(cls) -> Reference:
        rfd, wfd = (int(fd) for fd in os.environ[FDS_ENV].split(","))
        return cls(os.fdopen(rfd, "r", closefd=False), os.fdopen(wfd, "w", closefd=False))

    def sample(self, times: list[float], repeats: int = 1) -> None:
        """Append the seconds of `repeats` runs of the loop to times."""
        self._writer.write(f"{repeats}\n")
        self._writer.flush()
        times += json.loads(self._reader.readline())


def scale(seconds: float, samples: list[float]) -> float:
    """Measured seconds corrected for the host's speed, given the run's samples."""
    return seconds * math.sqrt(REFERENCE_S / statistics.median(samples))


if __name__ == "__main__":
    serve()
