"""Character table and dual Schur ring tests.

Oracles here are independent of the module: cyclotomic polynomials are
checked against the product formula for x^n - 1, the table's equality
and zero decisions against remainders modulo Phi_c, dual partitions
against the power basis of Z[x]/(Phi_c), and small dual partitions
against hand computations over Z_9.
"""

from __future__ import annotations

import random

import pytest

from cgschur.cgring import CGRing, make_cg_ring, parse_ring_spec
from cgschur.duality import (
    CharacterTable,
    character_table,
    check_duality,
    dual_sring,
    perp_of_ideal,
    separation_check,
)
from cgschur.construct import subgroup_generated
from cgschur.sring import (
    PartitionError,
    SRing,
    StructureError,
    cyclotomic,
    labels,
    schur_closure,
    verify_sring,
    wreath_pairs,
)
from conftest import (
    KERNEL_RINGS,
    PowerBasisTable,
    char_sum,
    character_sum_coeffs,
    class_permutations_oracle,
    cyclotomic_polynomial,
    digit_sum,
    dual_classes,
    dual_classes_oracle,
    enumerate_subgroups,
    exponent_counts,
    exponent_oracle,
    merge_multiples,
    merge_strata,
    pack,
    phi_c_remainder,
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
    # Digit vectors of integer combinations of zeta powers are zero, or
    # equal, exactly when the remainders modulo Phi_c are.  Coset sums
    # over the subgroups (c/p)Z_c vanish, so both outcomes occur.
    rng = random.Random(86)
    seen = set()
    for spec in ("GR(9)", "GR(4)xGR(9)", "GR(4,2)", "GR(3)xGR(5)xGR(7)", "GR(8)xGR(9)xGR(5)"):
        table = character_table(parse_ring_spec(spec))
        c = table.c
        assert len(cyclotomic_polynomial(c)) - 1 == table.phi
        for k in range(c):
            assert set(table.power_rows[k]) <= {-1, 0, 1}
            assert table.packed[k] == pack(table, table.power_rows[k])
        primes = [comp.p for comp in table.ring.components]
        for _ in range(30):
            a = {k: rng.randrange(-2, 3) for k in rng.sample(range(c), rng.randrange(1, 4))}
            p = rng.choice(primes)
            start = rng.randrange(c)
            coset = {(start + i * (c // p)) % c: 1 for i in range(p)}
            b = dict(a)
            for k in (coset if rng.randrange(2) else {rng.randrange(c): 1}):
                b[k] = b.get(k, 0) + 1
            for counts in (a, coset):
                zero = not any(phi_c_remainder(c, counts))
                assert (not any(digit_sum(table, counts))) == zero
                seen.add(zero)
            equal = phi_c_remainder(c, a) == phi_c_remainder(c, b)
            assert (digit_sum(table, a) == digit_sum(table, b)) == equal
            seen.add(equal)
    assert seen == {True, False}


def prime_power_digits(c: int, p: int, t: int) -> list[int]:
    """zeta_c^t for c = p^a in the basis zeta^j, j < phi(c), by the rule
    zeta^(j+phi) = -sum over s < p-1 of zeta^(j+s*c/p)."""
    q = c // p
    phi = c - q
    row = [0] * phi
    if t < phi:
        row[t] = 1
    else:
        for s in range(p - 1):
            row[t - phi + s * q] = -1
    return row


@pytest.mark.parametrize("spec", ("GR(4)xGR(9)", "GR(4,2)xGR(9)", "GR(3)xGR(5)xGR(7)",
                                  "GR(8)xGR(9)xGR(5)"))
def test_character_values_are_tensor_products(spec):
    # chi(x) is the product of the component values zeta_(c_i)^tr_i(x_i),
    # component 0 varying fastest, as in the element index
    ring = parse_ring_spec(spec)
    table = character_table(ring)
    for x in ring.elements():
        row = [1]
        for comp, part in zip(ring.components, ring.parts(x)):
            digits = prime_power_digits(comp.char, comp.p, comp.trace(part))
            row = [a * b for a in digits for b in row]
        assert table.power_rows[table.exponent[x]] == tuple(row)


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
    # Every digit is -1, 0 or 1, so the width need only leave room for
    # |R| in absolute value: size.bit_length() + 1 bits.
    for spec, c, phi in (("GR(3)xGR(5)xGR(7)", 105, 48), ("GR(8)xGR(9)xGR(5)", 360, 96)):
        ring = parse_ring_spec(spec)
        table = character_table(ring)
        assert table.c == c and table.phi == phi
        assert table.width == ring.size.bit_length() + 1
        assert max(abs(a) for row in table.power_rows for a in row) == 1
        for r in ring.elements():
            total = table.packed_sum(r, ring.elements())
            assert total == pack(table, sum_key(table, r, ring.elements()))
            assert total == sum(table.packed_row(r))
        for row in table.power_rows:
            # the extreme sum: |R| copies of one row, digits up to |R|
            assert unpack(table, ring.size * pack(table, row)) == tuple(ring.size * a for a in row)
            assert unpack(table, -ring.size * pack(table, row)) == tuple(-ring.size * a for a in row)


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


def test_separation_rejects_non_subgroups(z9):
    # {1, 2} is not closed (2*2 = 4) and 3 is not a unit; both once
    # reported the orbit {1, 2} as pure and separated.
    for K in ({1, 2}, {1, 3}, {2}, {0, 1}):
        with pytest.raises(ValueError, match="subgroup of the units"):
            separation_check(z9, K, {1}, {2})


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
        seen[ring.class_permutations(SRing(ring, classes).class_of) is not None] += 1
        assert dual_classes(table, classes) == dual_classes_oracle(table, classes)
    assert seen[True] and seen[False]  # both the orbit kernel and the fallback ran


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_from_labels_rebuilds_the_partition(spec):
    # The canonical label vector alone gives back the checked partition,
    # and the key labels of its classes' lists give the same vector.
    ring = parse_ring_spec(spec)
    for classes in kernel_inputs(ring, random.Random(spec)):
        A = SRing(ring, classes)
        assert SRing.from_labels(ring, A.class_of) == A
        assert SRing.from_labels(ring, A.class_of).classes == A.classes
        keys = [tuple(sorted(A.class_containing(x))) for x in ring.elements()]
        assert labels(keys) == A.class_of


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_class_permutations_follow_the_generators(spec):
    ring = parse_ring_spec(spec)
    A = cyclotomic(ring, subgroup_generated(ring, [ring.neg(ring.one)]))
    perms = ring.class_permutations(A.class_of)
    assert len(perms) == len(ring.unit_generators())
    for g, perm in zip(ring.unit_generators(), perms):
        assert [A.classes.index(frozenset(ring.mul(g, x) for x in X)) for X in A.classes] == perm
    broken = SRing(ring, swap_broken(A, random.Random(spec)))
    assert ring.class_permutations(broken.class_of) is None
    # a label vector is always a partition: the checked constructor
    # rejects what is not one
    with pytest.raises(PartitionError, match="element 0 not covered"):
        SRing(ring, [[x] for x in ring.elements()][1:])
    with pytest.raises(PartitionError, match="element 0 covered twice"):
        SRing(ring, [[x] for x in ring.elements()] + [[0]])


def same_size_swap(A: SRing) -> list[list[int]]:
    """A's classes with {a, -a} and {b, -b}, the first two classes of size 2,
    regrouped as {a, b} and {-a, -b}: sizes kept, no longer unit-invariant
    on the rings of KERNEL_RINGS."""
    classes = [sorted(X) for X in A.classes]
    i, j = [k for k, X in enumerate(classes) if len(X) == 2][:2]
    (a, na), (b, nb) = classes[i], classes[j]
    classes[i], classes[j] = [a, b], [na, nb]
    return classes


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_class_permutations_match_set_oracle(spec):
    # The image-row check on label vectors against one image set per class
    # and generator, with a moved class that keeps its size among the inputs.
    ring = parse_ring_spec(spec)
    rng = random.Random(spec)
    A = cyclotomic(ring, subgroup_generated(ring, [ring.neg(ring.one)]))
    moved = same_size_swap(A)
    assert class_permutations_oracle(ring, moved) is None
    seen = {True: 0, False: 0}
    for classes in [*kernel_inputs(ring, rng), moved]:
        B = SRing(ring, classes)
        expected = class_permutations_oracle(ring, B.classes)
        seen[expected is not None] += 1
        assert ring.class_permutations(B.class_of) == expected
    assert seen[True] and seen[False]


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_one_class_partition_keeps_tuple_keys(spec):
    # Every unit fixes the one class, so its key spreads unchanged; a bare
    # sum in place of the 1-tuple would split the dual.
    ring = parse_ring_spec(spec)
    table = character_table(ring)
    whole = [list(ring.elements())]
    assert dual_classes(table, whole) == dual_classes_oracle(table, whole) == [[0], whole[0][1:]]
    assert check_duality(SRing(ring, whole)) == (False, ("rank not preserved",))


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_exponent_matches_trace_oracle(spec):
    ring = parse_ring_spec(spec)
    assert character_table(ring).exponent == exponent_oracle(ring)


# -- the tensor basis against the power basis of Z[x]/(Phi_c) -------------------

# c = 9, 36, 36, 105, 360, 36, 1225 and 3025
TENSOR_RINGS = ("GR(9)", "GR(4)xGR(9)", "GR(4,2)xGR(9)", "GR(3)xGR(5)xGR(7)",
                "GR(8)xGR(9)xGR(5)", "GR(9,2)xGR(4)", "GR(25)xGR(49)", "GR(121)xGR(25)")


def tensor_inputs(ring, rng: random.Random):
    """2 cyclotomic partitions, 3 random coarsenings of the first, and 3
    closures of two-element seeds: one anywhere, two inside a proper ideal."""
    A = cyclotomic(ring, subgroup_generated(ring, [ring.neg(ring.one)]))
    yield A.classes
    yield cyclotomic(ring, subgroup_generated(ring, [rng.choice(ring.units())])).classes
    yield merge_strata(A, rng)
    yield merge_multiples(A, rng.choice(ring.divisors()[1:-1]), rng.choice(ring.units()))
    # a coarsening that is not unit-invariant takes one row per element:
    # |R|^2 big-int additions, which the largest ring does not afford
    yield random_coarsening(A, rng) if ring.size <= 1225 else merge_strata(A, rng)
    yield schur_closure(ring, [rng.sample(range(1, ring.size), 2)]).classes
    proper = [m for m in ring.divisors()[1:-1] if ring.ideal_size(m) > 2]
    for _ in range(2):
        ideal = sorted(ring.ideal(rng.choice(proper)))
        yield schur_closure(ring, [rng.sample(ideal[1:], 2)]).classes


@pytest.mark.parametrize("spec", TENSOR_RINGS)
def test_dual_classes_match_power_basis(spec):
    ring = parse_ring_spec(spec)
    table = character_table(ring)
    oracle = PowerBasisTable(table)
    rng = random.Random(spec)
    ideals = [sorted(ring.ideal(m)) for m in ring.divisors()]
    zero, equal = set(), set()
    for classes in tensor_inputs(ring, rng):
        classes = [sorted(X) for X in classes]
        dual = dual_classes(table, classes)
        assert dual == dual_classes(oracle, classes)
        # sampled sums over a class or an ideal: zero and equality decisions
        # against the remainder modulo Phi_c; r2 shares the dual class of r
        # half of the time
        for _ in range(4):
            X = rng.choice(rng.choice((classes, ideals)))
            D = rng.choice(dual)
            r = rng.choice(D)
            r2 = rng.choice(D if rng.randrange(2) else rng.choice(dual))
            rem = phi_c_remainder(table.c, exponent_counts(table, r, X))
            rem2 = phi_c_remainder(table.c, exponent_counts(table, r2, X))
            total = table.packed_sum(r, X)
            zero.add(total == 0)
            equal.add(total == table.packed_sum(r2, X))
            assert (total == 0) == (not any(rem))
            assert (total == table.packed_sum(r2, X)) == (rem == rem2)
    assert zero == equal == {True, False}


@pytest.mark.parametrize("spec, ci, trace", [
    # 3*a is trivial at 3 and 6 of Z_9, so chi(s*.) is trivial at s = (0, 3)
    ("GR(4)xGR(9)", 1, lambda comp, a: 3 * a % 9),
    # 2*tr is trivial on 2R of GR(4,2)
    ("GR(4,2)xGR(9)", 0, lambda comp, a: 2 * type(comp).trace(comp, a) % 4),
    # the zero map on the field Z_5
    ("GR(3)xGR(5)xGR(7)", 1, lambda comp, a: 0),
], ids=["GR(4)xGR(9)", "GR(4,2)xGR(9)", "GR(3)xGR(5)xGR(7)"])
def test_unfaithful_character_is_rejected(monkeypatch, spec, ci, trace):
    ring = parse_ring_spec(spec)  # fresh components, so the patch stays here
    comp = ring.components[ci]
    monkeypatch.setattr(comp, "trace", lambda a: trace(comp, a))

    def exponent(x: int) -> int:
        return sum(ring.char // part_ring.char * part_ring.trace(part)
                   for part_ring, part in zip(ring.components, ring.parts(x))) % ring.char

    least = next(s for s in ring.elements()
                 if s and all(exponent(ring.mul(s, x)) == 0 for x in ring.elements()))
    with pytest.raises(StructureError, match=rf"generating character not faithful at {least}$"):
        CharacterTable(ring)


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_dual_reads_the_kept_unit_rows(spec, monkeypatch):
    # Each dual once built mul_row(g) for every unit generator g twice, in
    # class_permutations and in _dual_partition.  Now a dual builds only the
    # packed row of each orbit representative, one per divisor, and
    # verify_sring one more, the row of -1.
    ring = parse_ring_spec(spec)
    A = cyclotomic(ring, subgroup_generated(ring, [ring.neg(ring.one)]))
    table = character_table(ring)
    for known in (ring, table.ring):  # the table may hold an equal ring built earlier
        known.unit_generators()
    calls = []
    real = CGRing.mul_row
    monkeypatch.setattr(CGRing, "mul_row", lambda self, r: calls.append(r) or real(self, r))
    assert dual_sring(A, table).rank == A.rank
    assert len(calls) == len(ring.divisors())
    calls.clear()
    assert verify_sring(ring, A.classes).ok
    assert len(calls) == len(ring.divisors()) + 1
