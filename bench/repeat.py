"""Run the benchmark once per seed and summarise each metric per workload.

    python3 bench/repeat.py --workloads ladder,groups,cli --seeds 1-10
                            [--trace 0|1] [--seconds S] [--out FILE]

For each workload and metric it reports the median, the first and third
quartile (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median.  Every raw
result line is kept in the output, so a summary can be recomputed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="ladder,groups,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--out")
    args = parser.parse_args()

    runs, summary = [], {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            elapsed = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                         "elapsed_s": elapsed, "result": result})
            if result is None:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s, failed "
                  f"{result['failed']}/{result['attempted']}, " + ", ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary[workload] = {name: summarise(v) for name, v in values.items() if len(v) > 1}
        for name, s in summary[workload].items():
            print(f"  {workload:7s} {name:36s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread'] or 0:.4f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"trace": args.trace, "seconds": args.seconds, "summary": summary,
                       "runs": runs}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
