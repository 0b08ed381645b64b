"""One cold process of a benchmark run; prints one JSON line on stdout.

    python bench/worker.py WORKLOAD SEED MODE [WORKDIR | CORRUPT_JOB]

MODE is ``setup`` (import and set-up only), ``run`` (set-up, the timed
jobs, then the checks) or ``trace`` (as ``run``, with spans and counters
installed).  For ``cli``, every mode only sets up: it writes the input
documents into WORKDIR and lists the cases.  For ``ladder`` and
``groups`` the fourth argument names a job whose output is corrupted
before the checks, which the self-test uses to see them fail.
``setup_s`` covers ``import cgschur`` and everything set-up does; the
clock starts right before the import.  A pass also reports the samples
of the reference loop taken between its jobs (see reference.py).
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

from reference import Reference
from spans import Tracer, self_time_by_name

_T0 = time.perf_counter()

import cgschur  # noqa: E402  (timed as part of set-up)


def _setup(workload: str, seed: int):
    if workload == "cli":
        import clicases
        return clicases.cli_plan(seed)
    import workloads
    return workloads.LIBRARY_WORKLOADS[workload](seed)


def _run_jobs(jobs, tracer: Tracer | None) -> tuple[dict, dict, dict, list]:
    """Run every job in order, sampling the reference loop between jobs.

    Returns outputs, seconds and errors by job name, and the reference
    samples.
    """
    out, seconds, errors, refs = {}, {}, {}, []
    reference = Reference.from_env()
    reference.sample(refs, 3)
    for job in jobs:
        start = time.perf_counter()
        try:
            if tracer is None:
                out[job.name] = job.run(out)
            else:
                with tracer.span(f"job.{job.name}"):
                    out[job.name] = job.run(out)
        except Exception:  # a failing operation is counted, the run goes on
            errors[job.name] = traceback.format_exc(limit=3)
        seconds[job.name] = time.perf_counter() - start
        reference.sample(refs, 3)
    return out, seconds, errors, refs


def _check(jobs, out: dict, errors: dict) -> list[dict]:
    import workloads
    rows = []
    for job in jobs:
        row = {"name": job.name, "seeded": job.seeded, "failures": [], "digest": None}
        if job.name in errors:
            row["failures"].append(errors[job.name].strip().splitlines()[-1])
        else:
            try:
                row["failures"] += job.check(out[job.name], out)
                row["digest"] = workloads.digest(job.doc(out[job.name]))
            except Exception:
                row["failures"].append("check raised: " + traceback.format_exc(limit=2))
        rows.append(row)
    return rows


def _corrupt(A):
    """A's classes with the least elements of the last two classes swapped."""
    classes = [sorted(X) for X in A.classes]
    classes[-1][0], classes[-2][0] = classes[-2][0], classes[-1][0]
    return type(A)(A.ring, classes)


def _layers(tracer: Tracer) -> tuple[dict, dict]:
    spans = tracer.spans
    job_ids = {name[4:]: sid for sid, _p, name, *_ in spans if name.startswith("job.")}
    per_job = {name: self_time_by_name(spans, {sid}) for name, sid in job_ids.items()}
    return self_time_by_name(spans), per_job


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    tracer = None
    if mode == "trace":
        tracer = Tracer(f"{workload}-{seed}-{os.getpid()}")
        tracer.install()
    plan = _setup(workload, seed)
    setup_s = time.perf_counter() - _T0
    doc: dict = {"setup_s": setup_s, "cgschur": os.path.dirname(cgschur.__file__)}
    if tracer is not None:
        doc["setup_counts"] = tracer.snapshot()
        tracer.reset()

    if workload == "cli":
        files, cases = plan
        workdir = argv[3]
        os.makedirs(workdir, exist_ok=True)
        for name, content in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        doc["cases"] = [
            {"name": c.name, "group": c.group, "argv": c.argv, "exit": c.exit, "seeded": c.seeded}
            for c in cases
        ]
    elif mode != "setup":
        out, seconds, errors, refs = _run_jobs(plan, tracer)
        doc["wall_s"] = sum(seconds.values())
        doc["reference_s"] = refs
        doc["job_s"] = seconds
        if tracer is not None:
            doc["counts"] = tracer.snapshot()
            doc["layer_self_s"], doc["job_layer_self_s"] = _layers(tracer)
            doc["spans"] = tracer.dump()
            tracer.uninstall()
        if len(argv) > 3 and argv[3] in out:
            out[argv[3]] = _corrupt(out[argv[3]])
        doc["jobs"] = _check(plan, out, errors)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
