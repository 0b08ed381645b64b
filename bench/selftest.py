"""Self-test of the benchmark's checks and counters.

    python3 bench/run.py --self-test

1. A ladder run whose cyclotomic ring on 144 elements is corrupted (two
   elements swapped between classes) must report failed operations and
   exit non-zero.
2. Two traced cli runs with the same seed must give identical counts.
"""

from __future__ import annotations

import json
import os
import sys

import run


def _run(*args: str) -> tuple[int, dict]:
    child = run.spawn([sys.executable, os.path.join(run.BENCH, "run.py"), *args])
    last = child.stdout.strip().splitlines()[-1] if child.stdout.strip() else "{}"
    return child.code, json.loads(last)


def main() -> int:
    problems = []
    code, result = _run("--workload", "ladder", "--seconds", "0", "--corrupt", "cyc[144]")
    print(f"corrupted ladder: exit {code}, failed {result.get('failed')}/{result.get('attempted')}")
    if code == 0 or not result.get("failed"):
        problems.append("a corrupted output was not reported as a failure")

    counts = []
    for _ in range(2):
        code, result = _run("--workload", "cli", "--trace", "1")
        if code != 0:
            problems.append(f"traced cli run exited {code}")
        metrics = result.get("metrics", {})
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    print(f"traced cli counts: {counts[0]}")
    if not counts[0] or counts[0] != counts[1]:
        problems.append(f"traced counts differ between runs: {counts}")

    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    if not problems:
        print("self-test passed")
    return 1 if problems else 0
