"""The benchmark's workloads: inputs made from a seed, timed jobs, checks.

Every input is drawn from ``random.Random(seed)``, so one seed always
gives the same inputs.  Library calls go through module attributes
(``sring.verify_sring``, not a local import of the function) so that a
traced pass, which swaps those attributes for wrappers, sees them.

A job's check returns failure messages; an empty list means the output
passed.  Checks that only hold by the theory (dual of the dual, equal
rank, axioms of every produced Schur ring, reassembly) run for any seed.
Outputs that do not depend on the seed are also pinned by a golden
digest for every seed, the others for the default seed only.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from cgschur import classify, construct, duality, sring
from cgschur.cgring import parse_ring_spec

# Produced Schur rings up to this size are re-verified by verify_sring;
# larger ones are seed-independent here and pinned by their golden digest.
VERIFY_CHECK_LIMIT = 225


def canonical(doc: Any) -> str:
    """The CLI's own output form: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc: Any) -> str:
    return hashlib.sha256(canonical(doc).encode()).hexdigest()


@dataclass
class Job:
    """One timed library call.

    ``run`` and ``check`` get the outputs of the jobs before it, by name.
    ``doc`` turns the output into the JSON document that is digested.
    ``seeded`` marks outputs that change with the seed.
    """

    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], list[str]]
    doc: Callable[[Any], Any]
    seeded: bool


def pick(rng: random.Random, ring, accept) -> int:
    """A uniform element of the ring that satisfies accept."""
    while True:
        x = rng.randrange(1, ring.size)
        if accept(x):
            return x


def pick_unit(rng: random.Random, ring) -> int:
    return pick(rng, ring, ring.is_unit)


def pure_subgroup(rng: random.Random, ring, order: int | None) -> frozenset[int]:
    """A pure subgroup generated by one random unit, of the given order if set."""
    while True:
        K = construct.subgroup_generated(ring, [pick_unit(rng, ring)])
        if (order is None or len(K) == order) and ring.is_pure_subgroup(K):
            return K


def _plus_minus(ring) -> frozenset[int]:
    return construct.subgroup_generated(ring, [ring.neg(ring.one)])


def _verified(A, label: str) -> list[str]:
    if A.ring.size > VERIFY_CHECK_LIMIT or A.rank == A.ring.size:
        return []  # too large to re-verify here, or discrete and so trivially valid
    report = sring.verify_sring(A.ring, A.classes)
    return [] if report.ok else [f"{label} fails the Schur ring axioms"]


def _sring_doc(A) -> dict:
    return A.to_doc()


def _rank_is(rank: int):
    """The verify job right after checks the axioms of this ring."""
    def check(A, _out) -> list[str]:
        return [] if A.rank == rank else [f"rank {A.rank}, expected {rank}"]
    return check


def _same_as(name: str, what: str):
    def check(B, out) -> list[str]:
        return [] if B == out[name] else [f"{what} differs from {name}"]
    return check


def _dual_check(source: str):
    def check(B, out) -> list[str]:
        A = out[source]
        fails = [] if B.rank == A.rank else [f"dual rank {B.rank} != rank {A.rank}"]
        return fails + _verified(B, "the dual")
    return check


def _report_ok(report, _out) -> list[str]:
    return [] if report.ok else ["the report is not ok"]


def _decomposition_check(source: str):
    """A pure decomposition must reassemble to its input, factor by factor valid."""
    def check(dec, out) -> list[str]:
        A = out[source]
        if dec.kind == classify.KIND_NOT_APPLICABLE:
            return [] if A.ring.char % 2 == 0 else [f"not applicable: {dec.reason}"]
        fails = []
        if dec.factors and classify.reassemble(A.ring, dec.factors) != A:
            fails.append("the factors do not reassemble to the input")
        for _primes, F, role in dec.factors:
            fails += _verified(F, f"the {role} factor")
        return fails
    return check


# -- ladder ---------------------------------------------------------------------

# Rings of growing size, each with the rank of its cyclotomic +-1 Schur ring.
LADDER_RUNGS = (("GR(4,2)xGR(9)", 74), ("GR(9)xGR(25)", 113), ("GR(9)xGR(49)", 221))


def ladder(seed: int) -> list[Job]:
    """sring and duality at |R| = 144, 225, 441 on the cyclotomic +-1 ring.

    On 144 also the Schur closure of one seeded unit (rank 144) and of
    one seeded element of the stratum 3R^x (rank 64).
    """
    rng = random.Random(seed)
    rings = [(parse_ring_spec(spec), rank) for spec, rank in LADDER_RUNGS]
    small = rings[0][0]
    closure_seeds = {
        "unit": pick_unit(rng, small),
        "stratum3": pick(rng, small, lambda x: small.upper_ideal(frozenset({x})) == 3),
    }

    jobs = []
    for ring, rank in rings:
        n = ring.size
        jobs += [
            Job(f"cyc[{n}]", lambda out, ring=ring: sring.cyclotomic(ring, _plus_minus(ring)),
                _rank_is(rank), _sring_doc, False),
            Job(f"dual[{n}]", lambda out, n=n: duality.dual_sring(out[f"cyc[{n}]"]),
                _dual_check(f"cyc[{n}]"), _sring_doc, False),
            Job(f"dual2[{n}]", lambda out, n=n: duality.dual_sring(out[f"dual[{n}]"]),
                _same_as(f"cyc[{n}]", "the dual of the dual"), _sring_doc, False),
            Job(f"verify[{n}]",
                lambda out, n=n: sring.verify_sring(out[f"cyc[{n}]"].ring, out[f"cyc[{n}]"].classes),
                _report_ok, lambda r: r.to_doc(), False),
            Job(f"decompose[{n}]", lambda out, n=n: classify.decompose_pure(out[f"cyc[{n}]"]),
                _decomposition_check(f"cyc[{n}]"), lambda d: d.to_doc(), False),
        ]
        if ring is small:
            for kind, x in closure_seeds.items():
                jobs.append(Job(
                    f"closure[{n},{kind}]",
                    lambda out, x=x: sring.schur_closure(small, [[x]]),
                    lambda C, out, x=x: ([] if C.is_aset({x}) else [f"{{{x}}} is not an A-set"])
                    + _verified(C, "the closure"),
                    _sring_doc, True))
    return jobs


# -- groups ---------------------------------------------------------------------

GROUPS_RING = "GR(4,2)xGR(9)"
GROUPS_SUBGROUP_COUNT = 96
# (3, 2, 2, 2), on 1296 elements, is left out: its 13-18 s would not fit
# the time the benchmark's runs are allowed in total.
CONSTRUCTIONS = ((2, 2, 3, 1), (3, 1, 2, 2))
# Odd rings for the classification jobs, with the order of the seeded pure
# subgroup (None: any pure cyclic subgroup).
CLASSIFY_RINGS = (("GR(9)xGR(25)", 4), ("GR(27)", None))


def _enumerate_rows(ring, groups) -> list[dict]:
    """What `cgschur enumerate cyc` computes for each subgroup."""
    rows = []
    for K in groups:
        A = sring.cyclotomic(ring, K)
        rows.append({"subgroup": sorted(K), "rank": A.rank, "pure": A.is_pure(),
                     "dense": A.is_dense(), "lower_ideal": A.lower_ideal()})
    return rows


def _build_doc(result) -> dict:
    instance, built, report = result
    return {"instance": instance.to_doc(), "sring": built.to_doc(), "report": report.to_doc()}


def _rational_check(source: str):
    def check(dec, out) -> list[str]:
        A = out[source]
        if dec.kind == classify.KIND_RATIONAL_TENSOR and dec.certificates:
            if classify.reassemble(A.ring, dec.factors) != A:
                return ["the factors do not reassemble to the input"]
        return []
    return check


def groups(seed: int) -> list[Job]:
    """construct and classify on the untabulated kernel."""
    rng = random.Random(seed)
    ring = parse_ring_spec(GROUPS_RING)
    classify_inputs = []
    for spec, order in CLASSIFY_RINGS:
        R = parse_ring_spec(spec)
        classify_inputs.append((R, pure_subgroup(rng, R, order)))

    jobs = [
        Job("all_subgroups[144]",
            lambda out: construct.all_subgroups(ring, ring.units()),
            lambda subs, out: [] if len(subs) == GROUPS_SUBGROUP_COUNT
            else [f"{len(subs)} subgroups, expected {GROUPS_SUBGROUP_COUNT}"],
            lambda subs: [sorted(K) for K in subs], False),
        Job("enumerate_cyc[144]",
            lambda out: _enumerate_rows(ring, out["all_subgroups[144]"]),
            lambda rows, out: [] if len(rows) == GROUPS_SUBGROUP_COUNT else ["row count"],
            lambda rows: rows, False),
    ]
    for args in CONSTRUCTIONS:
        tag = "".join(map(str, args))
        jobs.append(Job(
            f"build[{tag}]", lambda out, args=args: construct.build_nonpure_dense_sring(*args),
            lambda result, out: _report_ok(result[2], out), _build_doc, False))

    for R, K in classify_inputs:
        n = R.size
        cyc, full = f"cyc[{n}]", f"cyc_units[{n}]"
        jobs += [
            Job(cyc, lambda out, R=R, K=K: sring.cyclotomic(R, K),
                lambda A, out: _verified(A, "the cyclotomic ring"), _sring_doc, True),
            Job(f"decompose[{n}]", lambda out, cyc=cyc: classify.decompose_pure(out[cyc]),
                _decomposition_check(cyc), lambda d: d.to_doc(), True),
            Job(f"nondense[{n}]", lambda out, cyc=cyc: classify.check_nondense_structure(out[cyc]),
                _report_ok, lambda r: r.to_doc(), True),
            Job(full, lambda out, R=R: sring.cyclotomic(R, R.units()),
                lambda A, out: _verified(A, "the unit orbit ring"), _sring_doc, False),
            Job(f"rational[{n}]", lambda out, full=full: classify.classify_rational(out[full]),
                _rational_check(full), lambda d: d.to_doc(), False),
        ]
    return jobs


LIBRARY_WORKLOADS = {"ladder": ladder, "groups": groups}
