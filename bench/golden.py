"""Record golden.json: the digest of every output under the default seed.

    python3 bench/run.py --record-golden

Outputs that do not depend on the seed go under "any" and are checked
for every seed; seeded outputs go under the seed and are checked for it
only.  A cli output is pinned as "<exit code>:<sha256 of stdout>".
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import run


def _split(rows) -> dict:
    table: dict = {"any": {}, str(run.DEFAULT_SEED): {}}
    for name, seeded, value in rows:
        table[str(run.DEFAULT_SEED) if seeded else "any"][name] = value
    return table


def record() -> int:
    seed = str(run.DEFAULT_SEED)
    with run.ReferenceProcess() as ref:
        return _record(seed, ref)


def _record(seed: str, ref) -> int:
    golden = {}
    for workload in ("ladder", "groups"):
        doc = run.worker(workload, seed, "run", reference=ref)
        bad = [row["name"] for row in doc["jobs"] if row["failures"]]
        if bad:
            raise run.BenchError(f"{workload}: jobs {bad} fail their checks")
        golden[workload] = _split((r["name"], r["seeded"], r["digest"]) for r in doc["jobs"])
    workdir = tempfile.mkdtemp(prefix="golden-", dir=run.OUT)
    try:
        cases = run.worker("cli", seed, "setup", workdir)["cases"]
        rows = []
        for case, child in run.cli_cycle(cases, workdir, False, ref, []):
            if child.code != case["exit"]:
                raise run.BenchError(f"cli {case['name']}: exit {child.code}")
            sha = hashlib.sha256(child.stdout.encode()).hexdigest()
            rows.append((case["name"], case["seeded"], f"{child.code}:{sha}"))
        golden["cli"] = _split(rows)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(run.GOLDEN, run.ROOT)}")
    return 0
