"""Character table and dual Schur ring tests.

Oracles here are independent of the module: cyclotomic polynomials are
checked against the product formula for x^n - 1, power table rows
against a naive polynomial remainder, and small dual partitions against
hand computations over Z_9.
"""

from __future__ import annotations

import random

import pytest

from cgschur.cgring import make_cg_ring, parse_ring_spec
from cgschur.duality import (
    CharacterTable,
    character_table,
    check_duality,
    cyclotomic_polynomial,
    dual_classes,
    dual_sring,
    perp_of_ideal,
    separation_check,
)
from cgschur.construct import subgroup_generated
from cgschur.sring import SRing, cyclotomic, schur_closure, wreath_pairs
from conftest import (
    KERNEL_RINGS,
    char_sum,
    character_sum_coeffs,
    dual_classes_oracle,
    enumerate_subgroups,
    exponent_oracle,
    merge_multiples,
    merge_strata,
    random_coarsening,
    sum_key,
    swap_broken,
)


def oracle_poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def oracle_power_mod(k: int, modulus: tuple[int, ...]) -> tuple[int, ...]:
    """x^k reduced by a monic modulus, by long division."""
    deg = len(modulus) - 1
    rem = [0] * k + [1]
    for i in range(len(rem) - 1, deg - 1, -1):
        lead = rem[i]
        if lead:
            for j, m in enumerate(modulus):
                rem[i - deg + j] -= lead * m
    return tuple((rem + [0] * deg)[:deg])


def test_cyclotomic_polynomial_frozen_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(36) == (1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1)
    for p in (3, 5, 7):
        assert cyclotomic_polynomial(p) == (1,) * p
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_cyclotomic_polynomials_multiply_to_xn_minus_1():
    for n in range(1, 37):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = oracle_poly_mul(product, list(cyclotomic_polynomial(d)))
        assert product == [-1] + [0] * (n - 1) + [1]


def test_power_rows_match_naive_remainder():
    for spec in ("GR(9)", "GR(4)xGR(9)", "GR(4,2)", "GR(3)xGR(5)xGR(7)"):
        table = character_table(parse_ring_spec(spec))
        modulus = cyclotomic_polynomial(table.c)
        for k in range(table.c):
            assert table.power_rows[k] == oracle_power_mod(k, modulus)
            assert table.packed[k] == table.pack(table.power_rows[k])


def test_exponent_map_additive_and_surjective(z9, z36):
    f4z9 = parse_ring_spec("GR(4,2)xGR(9)")
    for ring in (z9, z36, f4z9):
        table = character_table(ring)
        assert set(table.exponent) == set(range(ring.char))
    table = character_table(z36)
    for x in z36.elements():
        for y in z36.elements():
            assert (table.exponent[z36.add(x, y)]
                    == (table.exponent[x] + table.exponent[y]) % 36)
    # identity element of GR(4,2) x GR(9): 9*Tr(1) + 4*Tr(1) = 9*2 + 4*1
    f4_table = character_table(f4z9)
    assert f4_table.exponent[f4z9.one] == 22


def test_char_sum_examples(z9, z36):
    table = character_table(z9)
    assert char_sum(table, 0, {1, 4, 7}).coeffs == (3, 0, 0, 0, 0, 0)
    # zeta + zeta^4 + zeta^7 = zeta * Phi_9(zeta^?) pattern: sums to zero
    assert char_sum(table, 1, {1, 4, 7}).is_zero()
    assert char_sum(table, 1, {0, 3, 6}).is_zero()
    assert char_sum(table, 1, {1}).coeffs == (0, 1, 0, 0, 0, 0)
    assert char_sum(table, 1, {0}).coeffs == (1, 0, 0, 0, 0, 0)
    big = character_table(z36)
    assert char_sum(big, z36.one, z36.elements()).is_zero()
    # both factor sums are Ramanujan sums at squarefull moduli, hence zero
    assert char_sum(big, z36.one, z36.units()).is_zero()
    assert char_sum(big, z36.one, z36.ideal(6)).is_zero()
    assert not char_sum(big, z36.one, {z36.one, z36.neg(z36.one)}).is_zero()


def unpack(table: CharacterTable, packed: int) -> tuple[int, ...]:
    """Signed base-2**width digits of a packed sum, low digit first."""
    digits = []
    half, full = 1 << (table.width - 1), 1 << table.width
    for _ in range(table.phi):
        digit = packed % full
        if digit >= half:
            digit -= full
        digits.append(digit)
        packed = (packed - digit) >> table.width
    assert packed == 0
    return tuple(digits)


def test_packing_width_c105():
    # Phi_105 has coefficient -2, so the power rows reach +-2 and the
    # digit width must leave room for |R| * 2 in absolute value.
    ring = parse_ring_spec("GR(3)xGR(5)xGR(7)")
    table = character_table(ring)
    assert table.c == 105 and table.phi == 48
    assert max(abs(a) for row in table.power_rows for a in row) == 2
    for r in ring.elements():
        total = table.packed_sum(r, ring.elements())
        assert total == table.pack(sum_key(table, r, ring.elements()))
        assert total == sum(table.packed_row(r))
    for row in table.power_rows:
        # the extreme sum: |R| copies of one row, digits up to 2 * |R|
        assert unpack(table, ring.size * table.pack(row)) == tuple(ring.size * a for a in row)
        assert unpack(table, -ring.size * table.pack(row)) == tuple(-ring.size * a for a in row)


def test_dual_classes_match_coefficient_oracle():
    rng = random.Random(105)
    for spec in ("GR(9)", "GR(4,2)", "GR(4)xGR(9)", "GR(3)xGR(5)xGR(7)"):
        ring = parse_ring_spec(spec)
        table = character_table(ring)
        for rank in (2, 5, 12):
            labels = [0] + [rng.randrange(1, rank) for _ in range(ring.size - 1)]
            classes = [[x for x in ring.elements() if labels[x] == k] for k in range(rank)]
            classes = [X for X in classes if X]
            assert dual_classes(table, classes) == dual_classes_oracle(table, classes)
        for K in ([ring.one], ring.units()):
            A = cyclotomic(ring, K)
            assert dual_sring(A) == SRing(ring, dual_classes_oracle(table, A.classes))
        assert character_sum_coeffs(table, 1, ring.units()) == char_sum(table, 1, ring.units()).coeffs


def test_hermitian_symmetry(z36):
    table = character_table(z36)
    rng = random.Random(11)
    for _ in range(40):
        r = rng.randrange(z36.size)
        S = {rng.randrange(z36.size) for _ in range(rng.randrange(1, 8))}
        neg_S = {z36.neg(x) for x in S}
        assert char_sum(table, z36.neg(r), S) == char_sum(table, r, neg_S)


def test_dual_of_cyclotomic_is_itself(z9, z36):
    f4 = parse_ring_spec("GR(4,2)")
    for ring in (z9, z36, f4):
        for K in enumerate_subgroups(ring):
            A = cyclotomic(ring, K)
            assert dual_sring(A) == A


def test_dual_of_singleton_split_example(z9):
    # splitting the ideal orbit must split the unit orbit in the dual
    A = SRing(z9, [[0], [3], [6], [1, 2, 4, 5, 7, 8]])
    B = dual_sring(A)
    assert B.classes == ({0}, {1, 4, 7}, {2, 5, 8}, {3, 6})
    assert dual_sring(B) == A
    assert set(B.a_ideal_divisors()) == {9 // m for m in A.a_ideal_divisors()}
    certs = {(w.outer, w.inner) for w in wreath_pairs(B) if w.nontrivial}
    assert certs == {(3, 3)}


def test_check_duality_over_corpus(corpus):
    for label, A in corpus:
        report = check_duality(A)
        assert report.ok, (label, report.failures)
        assert report.to_doc()["ok"] is True


def test_check_duality_reports_rank_change(z9):
    A = SRing(z9, [[0], [1, 2], [3, 4, 5, 6, 7, 8]])
    report = check_duality(A)
    assert not report.ok
    assert report.to_doc() == {"ok": False, "failures": ["rank not preserved"]}


def test_perp_of_ideal_is_complementary_ideal(z9, z36):
    for ring in (z9, z36):
        for m in ring.divisors():
            assert perp_of_ideal(ring, m) == ring.ideal(ring.char // m)


def test_separation_on_pure_orbit(z9):
    report = separation_check(z9, {1, 8}, {1}, {8})
    assert report.pure and report.separated
    assert report.separator == 1 and report.nonzero == 1
    assert report.orbit == {1, 8}
    # every nonempty subset pair of the orbit is separated
    subsets = [{1}, {8}, {1, 8}]
    for S in subsets:
        for S2 in subsets + [set()]:
            if S == S2:
                continue
            rep = separation_check(z9, {1, 8}, S, S2)
            assert rep.separated and rep.nonzero is not None
    # pure ideal orbit of the full unit group
    rep = separation_check(z9, {1, 2, 4, 5, 7, 8}, {3}, {6})
    assert rep.pure and rep.separated


def test_separation_refuted_on_nonpure_orbit(z9):
    report = separation_check(z9, {1, 4, 7}, {1, 4, 7}, set())
    assert not report.pure
    assert report.separator is None and report.nonzero is None
    assert report.to_doc()["orbit"] == [1, 4, 7]


def test_separation_validation(z9):
    with pytest.raises(ValueError):
        separation_check(z9, {1, 8}, set(), {1})
    with pytest.raises(ValueError):
        separation_check(z9, {1, 8}, {1}, {2})


# -- the unit-orbit kernel ------------------------------------------------------

def kernel_inputs(ring, rng: random.Random):
    """Partitions for the kernel: a cyclotomic ring and a closure, their
    unit-invariant coarsenings, and partitions that take the fallback."""
    yield [[0], [1], list(range(2, ring.size))]  # never unit-invariant
    A = cyclotomic(ring, subgroup_generated(ring, [rng.choice(ring.units())]))
    yield A.classes
    yield merge_strata(A, rng)
    yield merge_multiples(A, rng.choice(ring.divisors()[1:-1]), rng.choice(ring.units()))
    yield random_coarsening(A, rng)
    yield swap_broken(A, rng)
    C = schur_closure(ring, [[rng.randrange(1, ring.size)]])
    yield C.classes
    yield merge_strata(C, rng)


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_dual_classes_orbit_kernel_matches_oracle(spec):
    ring = parse_ring_spec(spec)
    table = character_table(ring)
    rng = random.Random(spec)
    seen = {True: 0, False: 0}
    for classes in kernel_inputs(ring, rng):
        seen[ring.class_permutations(classes) is not None] += 1
        assert dual_classes(table, classes) == dual_classes_oracle(table, classes)
    assert seen[True] and seen[False]  # both the orbit kernel and the fallback ran


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_class_permutations_follow_the_generators(spec):
    ring = parse_ring_spec(spec)
    A = cyclotomic(ring, subgroup_generated(ring, [ring.neg(ring.one)]))
    perms = ring.class_permutations(A.classes)
    assert len(perms) == len(ring.unit_generators())
    for g, perm in zip(ring.unit_generators(), perms):
        assert [A.classes.index(frozenset(ring.mul(g, x) for x in X)) for X in A.classes] == perm
    assert ring.class_permutations(swap_broken(A, random.Random(spec))) is None
    assert ring.class_permutations([[x] for x in ring.elements()][1:]) is None  # 0 uncovered
    assert ring.class_permutations([[x] for x in ring.elements()] + [[0]]) is None  # 0 twice


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_exponent_matches_trace_oracle(spec):
    ring = parse_ring_spec(spec)
    assert character_table(ring).exponent == exponent_oracle(ring)
