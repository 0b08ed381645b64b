"""Benchmark for cgschur.  The last line of stdout is the result as JSON.

    python3 bench/run.py --workload ladder|groups|cli|all [--seed N]
                         [--seconds S] [--trace 0|1]
    python3 bench/run.py --self-test
    python3 bench/run.py --record-golden

Each workload runs in fresh interpreters started from ``sys.executable``
with ``src/`` of this checkout on ``PYTHONPATH``, one at a time: one
client in a closed loop.  ``ladder`` and ``groups`` run their job list in
one worker process per pass and repeat passes until S seconds have been
measured (at least one pass); ``cli`` cycles through its invocations
until S seconds and at least 100 invocations.  Set-up is measured again
in separate processes and reported as a median.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics instead of the end-to-end ones; see README.md.
Exit code 0 when every output checked out, 1 when some operation
failed (the result is still printed), 2 when the benchmark could not
run at all (no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

from reference import FDS_ENV, Reference, scale

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(BENCH, "golden.json")

WORKLOADS = ("ladder", "groups", "cli")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
CLI_MIN_INVOCATIONS = 100
CLI_SAMPLES = 5  # spawn and import samples of a traced run
CHILD_TIMEOUT_S = 170

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("galois.mul_calls", "count"),
    ("galois.add_calls", "count"),
    ("cgring.mul_calls", "count"),
    ("cgring.add_calls", "count"),
    ("cgring.neg_calls", "count"),
    ("cgring.mul_fallthrough_frac", "ratio"),
    ("cgring.mul_table_s", "s"),
    ("sring.verify_s", "s"),
    ("sring.cyclotomic_s", "s"),
    ("sring.self_s", "s"),
    ("duality.table_s", "s"),
    ("duality.dual_s", "s"),
    ("construct.self_s", "s"),
    ("construct.subgroup_generated_calls", "count"),
    ("classify.self_s", "s"),
    ("cli.spawn_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)

_ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# -- processes ------------------------------------------------------------------


class Child(NamedTuple):
    code: int
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float


def spawn(argv: list[str], cwd: str = ROOT, pass_fds: tuple = ()) -> Child:
    """Run one process to its end; wall time and its own peak RSS."""
    env = _ENV
    if pass_fds:
        env = dict(_ENV, **{FDS_ENV: ",".join(map(str, pass_fds))})
    with tempfile.TemporaryFile(dir=OUT) as errf:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=errf, pass_fds=pass_fds)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        errf.seek(0)
        err = errf.read().decode(errors="replace")
    return Child(proc.returncode, out.decode(errors="replace"), err, seconds,
                 usage.ru_maxrss / 1024)


class ReferenceProcess:
    """The run's reference loop (reference.py) in a process of its own."""

    def __enter__(self) -> ReferenceProcess:
        self.proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "reference.py")],
                                     env=_ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.client = Reference(self.proc.stdout, self.proc.stdin)
        self.fds = (self.proc.stdout.fileno(), self.proc.stdin.fileno())
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def worker(*args: str, reference: ReferenceProcess | None = None) -> dict:
    """One worker process; its JSON line, or BenchError if it did not finish."""
    child = spawn([sys.executable, os.path.join(BENCH, "worker.py"), *args],
                  pass_fds=reference.fds if reference else ())
    lines = child.stdout.strip().splitlines()
    if child.code != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {child.code}: {child.stderr.strip()}")
    doc = json.loads(lines[-1])
    if os.path.realpath(doc["cgschur"]) != os.path.realpath(os.path.join(SRC, "cgschur")):
        raise BenchError(f"imported cgschur from {doc['cgschur']}, not from {SRC}")
    doc["rss_mb"] = child.rss_mb
    return doc


# -- checks -----------------------------------------------------------------------


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def golden_for(golden: dict, workload: str, name: str, seeded: bool, seed: int) -> str | None:
    """The pinned digest of one output, or None where none applies.

    Seed-independent outputs are pinned for every seed, seeded ones for
    the default seed only.
    """
    table = golden.get(workload, {})
    if not seeded:
        return table.get("any", {}).get(name, "missing")
    return table.get(str(seed), {}).get(name)


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, name: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{name}: {'; '.join(failures)}")


def check_cold_start(tally: Tally, traced: dict) -> None:
    """Set-up must build no product table, so table cost stays in wall_s."""
    calls = traced["setup_counts"].get("cgring.mul_table", 0)
    tally.add("cold-start", [f"set-up called CGRing.mul_table {calls} times"] if calls else [])


def check_jobs(tally: Tally, golden: dict, workload: str, seed: int, doc: dict) -> None:
    for row in doc["jobs"]:
        failures = list(row["failures"])
        want = golden_for(golden, workload, row["name"], row["seeded"], seed)
        if want is not None and row["digest"] is not None and row["digest"] != want:
            failures.append(f"digest {row['digest'][:12]} != golden {want[:12]}")
        tally.add(row["name"], failures)


# -- ladder and groups ----------------------------------------------------------


def write_spans(workload: str, seed: int, spans: list[dict]) -> None:
    with open(os.path.join(OUT, f"spans-{workload}-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(spans, fh)


def run_library(workload: str, seed: int, seconds: float, trace: bool, corrupt: str | None,
                golden: dict, ref: ReferenceProcess) -> tuple[Tally, dict, dict]:
    """Passes of a library workload; the tally, metrics and a report."""
    tally = Tally()
    extra = [corrupt] if corrupt else []
    if trace:
        plain = worker(workload, str(seed), "run", *extra, reference=ref)
        traced = worker(workload, str(seed), "trace", *extra, reference=ref)
        for doc in (plain, traced):
            check_jobs(tally, golden, workload, seed, doc)
        check_cold_start(tally, traced)
        write_spans(workload, seed, traced["spans"])
        metrics = layer_metrics(traced["counts"], traced["layer_self_s"])
        metrics["trace.overhead_frac"] = (scale(traced["wall_s"], traced["reference_s"])
                                          / scale(plain["wall_s"], plain["reference_s"]) - 1)
        metrics.update(startup_samples())
        report = {"job_s": plain["job_s"], "job_layer_self_s": traced["job_layer_self_s"],
                  "counts": traced["counts"], "layer_self_s": traced["layer_self_s"],
                  "named": named_metrics(workload, traced)}
        return tally, metrics, report

    # Set-up samples on both sides of the passes, so they see more than one
    # moment of a shared machine.
    setups = [worker(workload, str(seed), "setup")["setup_s"]
              for _ in range(SETUP_REPEATS // 2)]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(worker(workload, str(seed), "run", *extra, reference=ref))
    setups += [worker(workload, str(seed), "setup")["setup_s"]
               for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    for doc in passes:
        check_jobs(tally, golden, workload, seed, doc)
    refs = [r for p in passes for r in p["reference_s"]]
    metrics = {
        "wall_s": statistics.median(scale(p["wall_s"], p["reference_s"]) for p in passes),
        "setup_s": scale(statistics.median(setups + [p["setup_s"] for p in passes]), refs),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    return tally, metrics, {"passes": len(passes), "job_s": passes[0]["job_s"],
                            "measured_wall_s": statistics.median(p["wall_s"] for p in passes),
                            "reference_s": statistics.median(refs)}


# -- cli ------------------------------------------------------------------------


def cli_expectations(seed: int) -> dict:
    """What each cli case must print, computed with the library in this process."""
    sys.path.insert(0, SRC)
    import clicases
    _files, cases = clicases.cli_plan(seed)
    out = {}
    for case in cases:
        try:
            out[case.name] = case.expect()
        except Exception as err:  # the library failed: that case fails below
            out[case.name] = err
    return out


def check_cli(tally: Tally, golden: dict, seed: int, records: list, expect: dict) -> None:
    first: dict[str, str] = {}
    for case, child in records:
        name = case["name"]
        failures = []
        if child.code != case["exit"]:
            failures.append(f"exit {child.code}, expected {case['exit']}: {child.stderr.strip()[-200:]}")
        if first.setdefault(name, child.stdout) != child.stdout:
            failures.append("stdout differs between invocations")
        want = expect.get(name)
        if isinstance(want, Exception):
            failures.append(f"the library call for this case raised {want!r}")
        elif isinstance(want, str) and child.stdout != want:
            failures.append("stdout differs from the library result")
        elif isinstance(want, dict):
            try:
                got = json.loads(child.stdout)
            except ValueError:
                got = {}
            wrong = [k for k, v in want.items() if got.get(k) != v]
            if wrong:
                failures.append(f"fields {wrong} differ from the library result")
        pinned = golden_for(golden, "cli", name, case["seeded"], seed)
        seen = f"{child.code}:{hashlib.sha256(child.stdout.encode()).hexdigest()}"
        if pinned is not None and seen != pinned:
            failures.append(f"digest {seen[:14]} != golden {pinned[:14]}")
        tally.add(name, failures)


def cli_cycle(cases: list[dict], workdir: str, traced: bool, ref: ReferenceProcess,
              refs: list[float]) -> list:
    """One invocation per case, each followed by a sample of the reference loop."""
    records = []
    for i, case in enumerate(cases):
        if traced:
            outfile = os.path.join(workdir, f"trace-{i}.json")
            argv = [sys.executable, os.path.join(BENCH, "traced_cli.py"), outfile, *case["argv"]]
        else:
            argv = [sys.executable, "-m", "cgschur", *case["argv"]]
        records.append((case, spawn(argv, cwd=workdir)))
        ref.client.sample(refs)
    return records


def run_cli(seed: int, seconds: float, trace: bool, golden: dict,
            ref: ReferenceProcess) -> tuple[Tally, dict, dict]:
    tally = Tally()
    workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    try:
        setups = [worker("cli", str(seed), "trace" if trace else "setup", workdir)]
        cases = setups[0]["cases"]
        if trace:
            check_cold_start(tally, setups[0])
            plain_refs: list[float] = []
            traced_refs: list[float] = []
            plain = cli_cycle(cases, workdir, False, ref, plain_refs)
            traced = cli_cycle(cases, workdir, True, ref, traced_refs)
            counts: dict = {}
            selfs: dict = {}
            spans: list = []
            for i, _ in enumerate(cases):
                with open(os.path.join(workdir, f"trace-{i}.json"), encoding="utf-8") as fh:
                    doc = json.load(fh)
                for key, value in doc["counts"].items():
                    counts[key] = counts.get(key, 0) + value
                for key, value in doc["layer_self_s"].items():
                    selfs[key] = selfs.get(key, 0.0) + value
                spans += doc["spans"]
            write_spans("cli", seed, spans)
            metrics = layer_metrics(counts, selfs)
            metrics["trace.overhead_frac"] = (
                scale(sum(child.seconds for _c, child in traced), traced_refs)
                / scale(sum(child.seconds for _c, child in plain), plain_refs) - 1)
            metrics.update(startup_samples())
            by_group: dict[str, list[float]] = {}
            for case, child in plain:
                by_group.setdefault(case["group"], []).append(child.seconds * 1000)
            named = {f"cli.{group}_ms": statistics.median(v) for group, v in by_group.items()}
            named["cli.stdout_bytes"] = sum(len(child.stdout.encode()) for _c, child in plain)
            named["cli.self_s"] = selfs.get("cli.main", 0.0)
            records = plain + traced
            report = {"counts": counts, "layer_self_s": selfs, "named": named}
        else:
            # One set-up sample after each cycle, so they spread over the run.
            records, cycles, refs = [], 0, []
            start = time.perf_counter()
            while (not cycles or time.perf_counter() - start < seconds
                   or len(records) < CLI_MIN_INVOCATIONS or len(setups) < SETUP_REPEATS):
                records += cli_cycle(cases, workdir, False, ref, refs)
                cycles += 1
                setups.append(worker("cli", str(seed), "setup", workdir))
            latencies = [child.seconds * 1000 for _c, child in records]
            by_case: dict[str, list[float]] = {}
            for case, child in records:
                by_case.setdefault(case["name"], []).append(child.seconds)
            # One cycle, each case at its median latency of the run.
            measured = sum(statistics.median(v) for v in by_case.values())
            metrics = {
                "wall_s": scale(measured, refs),
                "setup_s": scale(statistics.median(s["setup_s"] for s in setups), refs),
                "peak_rss_mb": max(child.rss_mb for _c, child in records),
            }
            report = {
                "measured_wall_s": measured,
                "reference_s": statistics.median(refs),
                "cycles": cycles,
                "invocations": len(records),
                "cli_p50_ms": statistics.median(latencies),
                "cli_p90_ms": statistics.quantiles(latencies, n=10)[8],
            }
        check_cli(tally, golden, seed, records, cli_expectations(seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return tally, metrics, report


# -- traced metrics --------------------------------------------------------------


def layer_metrics(counts: dict, selfs: dict) -> dict:
    def layer_total(prefix: str) -> float:
        return sum(v for k, v in selfs.items() if k.startswith(prefix))

    mul = counts.get("cgring.mul_calls", 0)
    return {
        "galois.mul_calls": counts.get("galois.mul_calls", 0),
        "galois.add_calls": counts.get("galois.add_calls", 0),
        "cgring.mul_calls": mul,
        "cgring.add_calls": counts.get("cgring.add_calls", 0),
        "cgring.neg_calls": counts.get("cgring.neg_calls", 0),
        "cgring.mul_fallthrough_frac": counts.get("cgring.mul_fallthrough_calls", 0) / mul
        if mul else 0.0,
        "cgring.mul_table_s": selfs.get("cgring.mul_table", 0.0),
        "sring.verify_s": selfs.get("sring.verify_sring", 0.0),
        "sring.cyclotomic_s": selfs.get("sring.cyclotomic", 0.0),
        "sring.self_s": layer_total("sring."),
        "duality.table_s": selfs.get("duality.character_table", 0.0),
        "duality.dual_s": selfs.get("duality.dual_sring", 0.0),
        "construct.self_s": layer_total("construct."),
        "construct.subgroup_generated_calls": counts.get("construct.subgroup_generated", 0),
        "classify.self_s": layer_total("classify."),
    }


def startup_samples() -> dict:
    """Median cost of a bare interpreter and of `import cgschur` in one."""
    spawn_ms, import_ms = [], []
    probe = "import time; t = time.perf_counter(); import cgschur; print(time.perf_counter() - t)"
    for _ in range(CLI_SAMPLES):
        spawn_ms.append(spawn([sys.executable, "-c", "pass"]).seconds * 1000)
        child = spawn([sys.executable, "-c", probe])
        if child.code != 0:
            raise BenchError(f"import cgschur failed: {child.stderr.strip()}")
        import_ms.append(float(child.stdout) * 1000)
    return {"cli.spawn_ms": statistics.median(spawn_ms),
            "cli.import_ms": statistics.median(import_ms)}


def named_metrics(workload: str, traced: dict) -> dict:
    """The per-operation breakdown: self time of one span name in given jobs."""
    jobs = traced["job_layer_self_s"]

    def within(names: list[str], span: str | None = None) -> float:
        total = 0.0
        for name in names:
            selfs = jobs.get(name, {})
            total += selfs.get(span, 0.0) if span else sum(selfs.values())
        return total

    if workload == "ladder":
        named = {f"sring.verify_{n}_s": within([f"verify[{n}]"], "sring.verify_sring")
                 for n in (144, 225, 441)}
        named["sring.closure_144_s"] = within(
            [j for j in jobs if j.startswith("closure[")], "sring.schur_closure")
        for n in (144, 225, 441):
            named[f"duality.dual_{n}_s"] = within([f"dual[{n}]", f"dual2[{n}]"],
                                                  "duality.dual_sring")
        return named
    return {
        "construct.all_subgroups_s": within(["all_subgroups[144]"]),
        "construct.build_144_s": within(["build[2231]", "build[3122]"]),
        "classify.decompose_pure_s": within([j for j in jobs if j.startswith("decompose[")]),
        "classify.nondense_s": within([j for j in jobs if j.startswith("nondense[")]),
        "classify.rational_s": within([j for j in jobs if j.startswith("rational[")]),
    }


# -- entry point ------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 corrupt: str | None = None) -> tuple[Tally, dict, dict]:
    golden = load_golden()
    with ReferenceProcess() as ref:
        if workload == "cli":
            return run_cli(seed, seconds, trace, golden, ref)
        return run_library(workload, seed, seconds, trace, corrupt, golden, ref)


def result_line(tally: Tally, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name.split(":")[-1]]}
                    for name, value in metrics.items()},
    })


def describe(workload: str, seed: int, tally: Tally, metrics: dict, report: dict,
             units: dict) -> None:
    cells = [f"{name}={value:.6g} {units[name]}" for name, value in metrics.items()]
    cells.append(f"fail_frac={tally.failed}/{tally.attempted}")
    if "measured_wall_s" in report:
        cells.append(f"(measured wall {report['measured_wall_s']:.6g} s, "
                     f"reference loop {report['reference_s'] * 1000:.4g} ms)")
    for key in ("cli_p50_ms", "cli_p90_ms"):
        if key in report:
            cells.append(f"{key}={report[key]:.6g} ms (n={report['invocations']})")
    print(f"{workload:7s} seed={seed}  " + "  ".join(cells))
    for name, value in report.get("named", {}).items():
        print(f"    {name} = {value:.6g}")
    for message in tally.messages:
        print(f"    FAILED {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", metavar="JOB",
                        help="self-test only: corrupt this job's output before the checks")
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted output fails and traced counts repeat")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from runs with the default seed")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cgschur", "__init__.py")):
        print(f"error: no cgschur package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # Every process of the run on one CPU: the reference loop then measures
    # the CPU that the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.self_test:
            import selftest
            return selftest.main()
        if args.record_golden:
            import golden
            return golden.record()
        units = dict(PER_LAYER if args.trace else END_TO_END)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        total, combined = Tally(), {}
        for workload in workloads:
            tally, metrics, report = run_workload(workload, args.seed, args.seconds,
                                                  bool(args.trace), args.corrupt)
            describe(workload, args.seed, tally, metrics, report, units)
            if args.trace:
                path = os.path.join(OUT, f"trace-{workload}-{args.seed}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"metrics": metrics, **report}, fh, indent=1, sort_keys=True)
            total.attempted += tally.attempted
            total.failed += tally.failed
            prefix = f"{workload}:" if len(workloads) > 1 else ""
            combined.update({prefix + k: v for k, v in metrics.items()})
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(result_line(total, combined, units))
    return 0 if total.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
