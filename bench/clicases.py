"""Cases for the ``cli`` workload: documents, arguments and expected output.

``cli_plan(seed)`` is deterministic, so the set-up process (which writes
the documents) and the checker (which recomputes what each invocation
must print) build the same plan independently.  Expected outputs come
from the library calls that the CLI handler makes; they are computed
only by the checker, after the timed loop, so set-up builds no tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from cgschur import classify, construct, duality, sring
from cgschur.cgring import parse_ring_spec

from workloads import canonical, digest, pick, pick_unit, pure_subgroup


@dataclass
class CliCase:
    """One invocation of `python -m cgschur`.

    ``expect`` returns the exact expected stdout, or a dict of fields the
    parsed stdout must contain, or None when only the exit code and the
    golden digest apply.  ``group`` is the verb the latency is filed under.
    """

    name: str
    group: str
    argv: list[str]
    exit: int
    seeded: bool
    expect: Callable[[], str | dict | None] = field(default=lambda: None, repr=False)


def _text(doc) -> str:
    return canonical(doc) + "\n"


def _broken(rng: random.Random, A) -> list[list[int]]:
    """A's classes with one element swapped between two classes; never a Schur ring."""
    while True:
        i, j = rng.sample(range(1, A.rank), 2)
        classes = [sorted(X) for X in A.classes]
        if len(classes[i]) == len(classes[j]) == 1:
            continue  # swapping two singletons changes nothing
        a, b = rng.choice(classes[i]), rng.choice(classes[j])
        classes[i][classes[i].index(a)] = b
        classes[j][classes[j].index(b)] = a
        if not sring.verify_sring(A.ring, classes).ok:
            return classes


def cli_plan(seed: int) -> tuple[dict[str, dict], list[CliCase]]:
    """Input documents by file name, and the cases of one cycle."""
    rng = random.Random(seed)
    r4, r9 = parse_ring_spec("GR(4)"), parse_ring_spec("GR(9)")
    r36, r45 = parse_ring_spec("GR(4)xGR(9)"), parse_ring_spec("GR(9)xGR(5)")
    r441, r1296 = parse_ring_spec("GR(9)xGR(49)"), parse_ring_spec("GR(9,2)xGR(4,2)")

    def cyc(ring, gens):
        return sring.cyclotomic(ring, construct.subgroup_generated(ring, gens))

    cyc_gen = pick_unit(rng, r36)
    closure_seed = rng.randrange(1, r36.size)
    # A generator other than 1, so that A36 has a class to break.
    A36 = cyc(r36, [pick(rng, r36, lambda x: r36.is_unit(x) and x != r36.one)])
    broken = _broken(rng, A36)
    quotient_m = rng.choice([m for m in r36.divisors() if m != 1])
    restrict_m = rng.choice([m for m in r36.divisors() if m != r36.char])
    A4, A9 = cyc(r4, [pick_unit(rng, r4)]), cyc(r9, [pick_unit(rng, r9)])
    A45 = sring.cyclotomic(r45, pure_subgroup(rng, r45, None))
    purity_m = rng.choice([15, 45])
    U45 = sring.cyclotomic(r45, r45.units())

    files = {
        "a36.json": A36.to_doc(),
        "broken36.json": {"ring": r36.spec(), "classes": broken},
        "a4.json": A4.to_doc(),
        "a9.json": A9.to_doc(),
        "a45.json": A45.to_doc(),
        "u45.json": U45.to_doc(),
    }

    def dual_doc():
        doc = duality.dual_sring(A36).to_doc()
        doc["dual_of"] = digest(A36.to_doc())
        return _text(doc)

    cases = [
        CliCase("ring_info_9", "ring", ["ring", "info", "GR(9)"], 0, False),
        CliCase("ring_info_36", "ring", ["ring", "info", r36.spec()], 0, False),
        CliCase("ring_info_441", "ring", ["ring", "info", r441.spec()], 0, False),
        CliCase("ring_info_1296", "ring", ["ring", "info", r1296.spec()], 0, False),
        CliCase("malformed_spec", "ring", ["ring", "info", "GR(6)"], 2, False, lambda: ""),
        CliCase("sring_cyc_36", "sring", ["sring", "cyc", r36.spec(), "--group", str(cyc_gen)],
                0, True, lambda: _text(cyc(r36, [cyc_gen]).to_doc())),
        CliCase("sring_cyc_441", "sring",
                ["sring", "cyc", r441.spec(), "--group", str(r441.neg(r441.one))], 0, False,
                lambda: _text(cyc(r441, [r441.neg(r441.one)]).to_doc())),
        CliCase("sring_cyc_1296", "sring",
                ["sring", "cyc", r1296.spec(), "--group", str(r1296.neg(r1296.one))], 0, False,
                lambda: _text(cyc(r1296, [r1296.neg(r1296.one)]).to_doc())),
        CliCase("sring_closure_36", "sring",
                ["sring", "closure", r36.spec(), "--seed", str(closure_seed)], 0, True,
                lambda: _text(sring.schur_closure(r36, [[closure_seed]]).to_doc())),
        CliCase("sring_verify", "sring", ["sring", "verify", "a36.json"], 0, True,
                lambda: _text({"failures": [], "ok": True})),
        CliCase("sring_verify_broken", "sring", ["sring", "verify", "broken36.json"], 1, True,
                lambda: _text(sring.verify_sring(r36, broken).to_doc())),
        CliCase("sring_pure", "sring", ["sring", "pure", "a36.json"], 0, True,
                lambda: {"pure": A36.is_pure(), "dense": A36.is_dense(),
                         "lower_ideal": A36.lower_ideal()}),
        CliCase("sring_wreath", "sring", ["sring", "wreath", "a36.json"], 0, True,
                lambda: {"nontrivial": sring.has_nontrivial_wreath(A36)}),
        CliCase("sring_rational", "sring", ["sring", "rational", "a36.json"], 0, True,
                lambda: {"rational": A36.is_rational()}),
        CliCase("sring_quotient", "sring",
                ["sring", "quotient", "a36.json", "--modulus", str(quotient_m)], 0, True,
                lambda: _text(sring.quotient_sring(A36, quotient_m).to_doc())),
        CliCase("sring_restrict", "sring",
                ["sring", "restrict", "a36.json", "--modulus", str(restrict_m)], 0, True,
                lambda: _text(sring.restrict(A36, restrict_m).to_doc())),
        CliCase("sring_tensor", "sring", ["sring", "tensor", "a4.json", "a9.json"], 0, True,
                lambda: _text(sring.tensor(A4, A9).to_doc())),
        CliCase("dual", "dual", ["dual", "a36.json"], 0, True, dual_doc),
        CliCase("dual_check", "dual", ["dual", "check", "a36.json"], 0, True,
                lambda: _text({"failures": [], "ok": True})),
        CliCase("classify_pure", "classify", ["classify", "pure", "a45.json"], 0, True,
                lambda: _text(classify.decompose_pure(A45).to_doc())),
        CliCase("classify_rational", "classify", ["classify", "rational", "u45.json"], 0, False,
                lambda: _text(classify.classify_rational(U45).to_doc())),
        CliCase("classify_nondense", "classify", ["classify", "nondense", "a45.json"], 0, True,
                lambda: _text(classify.check_nondense_structure(A45).to_doc())),
        CliCase("classify_quotient", "classify",
                ["classify", "quotient", "a45.json", "--modulus", str(purity_m)], 0, True,
                lambda: _text(classify.check_quotient_purity(A45, purity_m).to_doc())),
        CliCase("construct_2231", "construct",
                ["construct", "t210809a", "--p", "2", "--d", "2", "--q", "3", "--e", "1"], 0, False),
        CliCase("enumerate_subgroups_9", "enumerate", ["enumerate", "subgroups", "GR(9)"], 0, False),
        CliCase("enumerate_subgroups_36", "enumerate",
                ["enumerate", "subgroups", r36.spec()], 0, False),
        CliCase("enumerate_cyc_9", "enumerate", ["enumerate", "cyc", "GR(9)"], 0, False),
        CliCase("enumerate_cyc_36", "enumerate", ["enumerate", "cyc", r36.spec()], 0, False),
    ]
    return files, cases
