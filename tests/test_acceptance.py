"""Acceptance suite: one test per contract criterion.

Each test prints one PASS line with its headline numbers after all of
its assertions hold, so a -s run reads as a checklist and -v gives one
pass/fail line per criterion.  Frozen counts (subgroup totals, orbit
tallies, construction orders) come from hand calculations and from the
oracle scripts behind the sibling test modules.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

from conftest import enumerate_subgroups, random_invariant_seed, rank2

from cgschur.cgring import CGRing, ideal_ring, parse_ring_spec, quotient
from cgschur.classify import classify_rational, decompose_pure, reassemble
from cgschur.construct import build_nonpure_dense_sring
from cgschur.duality import (
    character_table,
    dual_sring,
    perp_of_ideal,
    separation_check,
)
from cgschur.sring import (
    SRing,
    cyclotomic,
    frobenius_set,
    has_nontrivial_wreath,
    power_map,
    schur_closure,
    tensor,
    verify_sring,
    wreath_pairs,
)

_RINGS: dict[str, CGRing] = {}
_SUBGROUPS: dict[str, list[frozenset[int]]] = {}


def ring_of(spec: str) -> CGRing:
    if spec not in _RINGS:
        _RINGS[spec] = parse_ring_spec(spec)
    return _RINGS[spec]


def subgroups_of(spec: str) -> list[frozenset[int]]:
    if spec not in _SUBGROUPS:
        _SUBGROUPS[spec] = enumerate_subgroups(ring_of(spec))
    return _SUBGROUPS[spec]


def _passed(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:02d}: PASS  {detail}")


# -- criteria 1 and 2: the two-sided orbit construction ------------------------


def _nonpure_dense_suite(p: int, d: int, q: int, e: int, spec: str,
                         lower_divisor: int, units_order: int,
                         nonunits_order: int) -> float:
    start = time.monotonic()
    instance, built, report = build_nonpure_dense_sring(p, d, q, e)
    elapsed = time.monotonic() - start
    ring = built.ring
    assert ring.spec() == spec and ring.size == 144

    assert verify_sring(ring, built.classes).ok
    assert built.is_dense() and len(ring.divisors()) == 9
    assert not built.is_pure()
    assert built.lower_ideal() == lower_divisor
    # the common lower ideal is the radical of the p-component alone
    assert ring.valuations(lower_divisor) == (1, 2)
    assert not has_nontrivial_wreath(built)

    assert len(instance.units_group) == p ** (d + 1) * q**e == units_order
    assert len(instance.nonunits_group) == p**d * q ** (e + 1) == nonunits_order
    assert report.ok
    names = {c.name for c in report.checks}
    assert {"group_product", "intersection_order", "deep_strata_orbits",
            "q_stratum_orbits", "p_stratum_orbits"} <= names
    assert elapsed < 60.0
    return elapsed


def test_criterion_01_construction_2231():
    elapsed = _nonpure_dense_suite(2, 2, 3, 1, "GR(4,2)xGR(9)", 18, 24, 36)
    _passed(1, f"(2,2,3,1): dense, not pure, no nontrivial wreath, {elapsed:.1f}s")


def test_criterion_02_construction_3122():
    elapsed = _nonpure_dense_suite(3, 1, 2, 2, "GR(9)xGR(4,2)", 12, 36, 24)
    _passed(2, f"(3,1,2,2): mirrored suite holds, {elapsed:.1f}s")


# -- criterion 3: duality involution on cyclotomic rings -----------------------

DUALITY_RINGS = ("GR(9)", "GR(4,2)", "GR(25)", "GR(4,2)xGR(9)")


def test_criterion_03_duality_involution():
    checked = 0
    for spec in DUALITY_RINGS:
        ring = ring_of(spec)
        for K in subgroups_of(spec):
            A = cyclotomic(ring, K)
            B = dual_sring(A)
            assert B.rank == A.rank
            # the dual is the orbit partition of the dual group, which the
            # self-dual labeling realizes as the K-orbits again
            assert B == SRing(ring, cyclotomic(ring, K).classes)
            assert dual_sring(B) == A
            checked += 1
    assert checked == 4 + 10 + 6 + 96
    _passed(3, f"{checked} cyclotomic duals involutive and rank-preserving")


# -- criterion 4: wreath certificates swap to the dual -------------------------

HARNESS_RINGS = ("GR(9)", "GR(4,2)", "GR(8)", "GR(4)xGR(9)")


def _closure_harness(rng: random.Random, specs: tuple[str, ...],
                     want: int) -> list[SRing]:
    """Distinct Schur closures of random unit-invariant seed families."""
    out: list[SRing] = []
    seen: set[SRing] = set()
    attempts = 0
    while len(out) < want and attempts < 400:
        attempts += 1
        spec = specs[attempts % len(specs)]
        ring = ring_of(spec)
        groups = subgroups_of(spec)
        n_seeds = rng.randrange(1, 3)
        seeds = [random_invariant_seed(ring, rng.choice(groups), rng)
                 for _ in range(n_seeds)]
        A = schur_closure(ring, seeds)
        if A not in seen:
            seen.add(A)
            out.append(A)
    return out


def test_criterion_04_wreath_duality():
    closures = _closure_harness(random.Random(88011), HARNESS_RINGS, 24)
    assert len(closures) >= 20
    nontrivial = 0
    for A in closures:
        c = A.ring.char
        assert c <= 36
        B = dual_sring(A)
        certs = {(w.outer, w.inner) for w in wreath_pairs(A)}
        swapped = {(c // inner, c // outer) for outer, inner in certs}
        assert swapped == {(w.outer, w.inner) for w in wreath_pairs(B)}
        assert has_nontrivial_wreath(A) == has_nontrivial_wreath(B)
        nontrivial += has_nontrivial_wreath(A)
    assert nontrivial > 0
    _passed(4, f"{len(closures)} closures swap wreath certificates "
               f"({nontrivial} with nontrivial pairs)")


# -- criterion 5: Schur-Wielandt maps -------------------------------------------


def test_criterion_05_schur_wielandt(corpus):
    classes_checked = 0
    rational_checked = 0
    for label, A in corpus:
        ring = A.ring
        c = ring.char
        coprime = [m for m in range(1, c) if gcd(m, c) == 1]
        for X in A.classes:
            for m in coprime:
                assert A.is_class(power_map(A, X, m)), (label, sorted(X), m)
            for ci, comp in enumerate(ring.components):
                image = frobenius_set(A, X, comp.p)
                assert A.is_aset(image), (label, sorted(X), comp.p)
                units_ci = ring.embed_component_units(ci)
                if any(frozenset(ring.mul(u, x) for x in X) != X
                       for u in units_ci):
                    continue
                # on p-rational classes: the lower ideal meets the p-component
                # exactly when the p-power image is empty
                radical_part = ring.valuations(ring.lower_ideal(X))[ci] < comp.n
                assert radical_part == (not image), (label, sorted(X), comp.p)
                rational_checked += 1
            classes_checked += 1
    assert classes_checked >= 100 and rational_checked >= 30
    _passed(5, f"{classes_checked} classes: coprime powers are classes, "
               f"p-power images are A-sets; {rational_checked} p-rational "
               f"emptiness equivalences")


# -- criterion 6: separation by unit characters ---------------------------------

SEPARATION_RINGS = ("GR(9)", "GR(4,2)", "GR(4)xGR(9)")


def _character_rows(ring: CGRing, table, orbit: list[int]) -> list[list[int]]:
    """Unit character values on the orbit, one rational row per coefficient."""
    return [
        [table.power_rows[table.exponent[ring.mul(u, x)]][i] for x in orbit]
        for u in ring.units()
        for i in range(table.phi)
    ]


def _column_rank(rows: list[list[int]]) -> int:
    mat = [[Fraction(v) for v in row] for row in rows if any(row)]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [v / lead for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _separated_exhaustively(ring: CGRing, table, orbit: list[int]) -> bool:
    """Check every signed difference vector directly; 3^n cases."""
    from itertools import product

    units = ring.units()
    for signs in product((-1, 0, 1), repeat=len(orbit)):
        if not any(signs):
            continue
        hit = False
        for u in units:
            total = [0] * table.phi
            for s, x in zip(signs, orbit):
                if s:
                    row = table.power_rows[table.exponent[ring.mul(u, x)]]
                    for i in range(table.phi):
                        total[i] += s * row[i]
            if any(total):
                hit = True
                break
        if not hit:
            return False
    return True


def test_criterion_06_separation():
    # A pair of subsets S != S2 of an orbit is separated exactly when the
    # signed difference vector has a nonzero character sum, and a unit u
    # with nonzero sum on S rewrites chi(rS) != 0 for every unit character
    # chi by unit transitivity.  Full column rank of the character matrix
    # over Q therefore certifies all pairs of one orbit at once.
    orbits_checked = 0
    for spec in SEPARATION_RINGS:
        ring = ring_of(spec)
        table = character_table(ring)
        pure_groups = [K for K in subgroups_of(spec) if ring.is_pure_set(K)]
        assert pure_groups
        seen: set[frozenset[int]] = set()
        for K in pure_groups:
            for O in cyclotomic(ring, K).classes:
                if len(O) > 12 or not ring.is_pure_set(O) or O in seen:
                    continue
                seen.add(O)
                orbit = sorted(O)
                rows = _character_rows(ring, table, orbit)
                certified = (_column_rank(rows) == len(orbit)
                             or _separated_exhaustively(ring, table, orbit))
                assert certified, (spec, orbit)
                orbits_checked += 1
    assert orbits_checked >= 100
    # the witness reporter agrees on a sample pair
    report = separation_check(ring_of("GR(9)"), {1, 8}, {1}, {8})
    assert report.pure and report.separated and report.nonzero is not None
    _passed(6, f"{orbits_checked} pure orbits certified at full character rank")


# -- criterion 7: pure decomposition --------------------------------------------

ODD_RINGS = ("GR(9)xGR(25)", "GR(27)")


def test_criterion_07_pure_decomposition():
    decomposed = 0
    dense_cyclotomic = 0
    for spec in ODD_RINGS:
        ring = ring_of(spec)
        for K in subgroups_of(spec):
            A = cyclotomic(ring, K)
            if not A.is_pure():
                continue
            dec = decompose_pure(A)
            assert dec.kind == "PureTensor"
            assert reassemble(ring, dec.factors) == A
            decomposed += 1
            if A.is_dense():
                assert [role for _, _, role in dec.factors] == ["cyclotomic"]
                assert A == cyclotomic(ring, A.class_containing(ring.one))
                dense_cyclotomic += 1
    # 8 pure subgroups over GR(9)xGR(25), 2 over GR(27); ideals are orbits
    # of any unit subgroup, so every cyclotomic instance is dense
    assert decomposed == 10 and dense_cyclotomic == 10

    g9, g25 = ring_of("GR(9)"), ring_of("GR(25)")
    sign9 = cyclotomic(g9, frozenset({g9.one, g9.neg(g9.one)}))
    sign25 = cyclotomic(g25, frozenset({g25.one, g25.neg(g25.one)}))
    for A in (tensor(rank2(g9), sign25), tensor(sign9, rank2(g25)),
              tensor(rank2(g9), rank2(g25))):
        dec = decompose_pure(A)
        assert dec.kind == "PureTensor"
        assert "rank2" in {role for _, _, role in dec.factors}
        assert reassemble(A.ring, dec.factors) == A

    rng = random.Random(50272)
    pure_subs = {
        spec: [K for K in subgroups_of(spec) if ring_of(spec).is_pure_set(K)]
        for spec in ODD_RINGS
    }
    harness = 0
    attempts = 0
    while harness < 20 and attempts < 200:
        attempts += 1
        spec = "GR(9)xGR(25)" if attempts % 5 == 0 else "GR(27)"
        ring = ring_of(spec)
        seeds = [random_invariant_seed(ring, rng.choice(pure_subs[spec]), rng)
                 for _ in range(rng.randrange(1, 3))]
        A = schur_closure(ring, seeds)
        if not A.is_pure():
            continue
        harness += 1
        dec = decompose_pure(A)
        assert dec.kind == "PureTensor"
        assert reassemble(ring, dec.factors) == A
        if A.is_dense():
            assert [role for _, _, role in dec.factors] == ["cyclotomic"]
            assert A == cyclotomic(ring, A.class_containing(ring.one))
    assert harness >= 20
    _passed(7, f"{decomposed} pure cyclotomic + 3 tensor + {harness} harness "
               f"instances decompose and reassemble exactly")


# -- criterion 8: rational classification ---------------------------------------


def test_criterion_08_rational_classification(corpus):
    rational = [(label, A) for label, A in corpus if A.is_rational()]
    assert len(rational) >= 8
    wreath_kind = 0
    tensor_kind = 0
    for label, A in rational:
        assert A.ring.char <= 36
        dec = classify_rational(A)
        if dec.kind == "RationalWreath":
            assert dec.certificates and all(w.nontrivial for w in dec.certificates)
            wreath_kind += 1
        else:
            assert dec.kind == "RationalTensorRank2"
            assert any(F.rank == 2 for _, F, _ in dec.factors)
            tensor_kind += 1
    assert wreath_kind + tensor_kind == len(rational)
    _passed(8, f"{len(rational)} rational members: {wreath_kind} wreath, "
               f"{tensor_kind} rank-2 tensor, zero unclassified")


# -- criterion 9: purity under quotients -----------------------------------------


def test_criterion_09_quotient_purity():
    big = ring_of("GR(9)xGR(25)")
    subgroups = subgroups_of("GR(9)xGR(25)")
    assert len(subgroups) == 32

    from cgschur.classify import check_quotient_purity

    applicable = 0
    for K in subgroups:
        A = cyclotomic(big, K)
        for m in big.divisors():
            report = check_quotient_purity(A, m)
            if report.applicable:
                assert report.ok
                applicable += 1
    # 8 pure subgroups, and m must keep a positive valuation at both primes
    assert applicable == 32

    set_level = 0
    for K in subgroups:
        if not big.is_pure_set(K):
            continue
        for m in big.divisors():
            if any(v == 0 for v in big.valuations(m)):
                continue
            q = quotient(big, m)
            assert q.ring.is_pure_set(frozenset(q.pi(k) for k in K))
            assert big.is_pure_set(big.scale_set(K, big.char // m))
            set_level += 1
    assert set_level == 32

    # even characteristic counterexample: purity dies under projection
    # and under doubling
    z8 = ring_of("GR(8)")
    X = frozenset({z8.one, z8.neg(z8.one)})
    assert z8.is_pure_set(X)
    q4 = quotient(z8, 4)
    assert not q4.ring.is_pure_set(frozenset(q4.pi(x) for x in X))
    assert not z8.is_pure_set(z8.scale_set(X, 2))
    _passed(9, f"{applicable} applicable quotient reports and {set_level} "
               f"set-level checks pure; Z8 counterexample reproduced")


# -- criterion 10: structural sanity ----------------------------------------------

STRUCTURAL_RINGS = (
    "GR(9)", "GR(4,2)", "GR(25)", "GR(27)", "GR(8)",
    "GR(4,2)xGR(9)", "GR(9)xGR(4,2)", "GR(4)xGR(9)", "GR(9)xGR(25)",
)


def test_criterion_10_structural_sanity():
    for spec in STRUCTURAL_RINGS:
        ring = ring_of(spec)
        for comp in ring.components:
            teich = comp.teichmuller_group()
            principal = [a for a in comp.elements()
                         if comp.valuation(comp.sub(a, comp.one)) >= 1]
            units = set(comp.unit_indices())
            assert len(teich) == comp.p**comp.d - 1
            assert len(principal) == comp.p ** ((comp.n - 1) * comp.d)
            assert {comp.mul(t, s) for t in teich for s in principal} == units
            assert len(teich) * len(principal) == len(units)

        divisors = ring.divisors()
        for m1 in divisors:
            ideal1 = ring.ideal(m1)
            assert len(ideal1) == ring.ideal_size(m1)
            for m2 in divisors:
                assert (ring.ideal(m2) <= ideal1) == (m2 % m1 == 0)

        for m in divisors:
            if m == ring.char:
                continue
            sub = ideal_ring(ring, m)
            embedded = frozenset(sub.embed(j) for j in sub.ring.units())
            assert embedded == ring.scale_set(ring.units(), m)

        for m in divisors:
            assert perp_of_ideal(ring, m) == ring.ideal(ring.char // m)
    _passed(10, f"unit factorization, ideal lattice, ideal-ring units, and "
                f"perp map hold on {len(STRUCTURAL_RINGS)} rings")
