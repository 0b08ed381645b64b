"""Character table and dual Schur ring tests.

Oracles here are independent of the module: cyclotomic polynomials are
checked against the product formula for x^n - 1, the table's equality
and zero decisions against remainders modulo Phi_c, dual partitions
against the power basis of Z[x]/(Phi_c), and small dual partitions
against hand computations over Z_9.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
import weakref

import pytest

from cgschur import duality
from cgschur.cgring import CGRing, label_classes, make_cg_ring, parse_ring_spec
from cgschur.duality import (
    _dual_partition,
    CharacterTable,
    character_table,
    check_duality,
    dual_sring,
    perp_of_ideal,
    separation_check,
)
from cgschur.construct import all_subgroups, build_nonpure_dense_sring, subgroup_generated
from cgschur.sring import (
    PartitionError,
    SRing,
    StructureError,
    cyclotomic,
    labels,
    quotient_sring,
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
    gr82_exceptions,
    merge_multiples,
    merge_strata,
    pack,
    phi_c_remainder,
    random_coarsening,
    rank2,
    spread_dual_oracle,
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
            total = sum(map(table.packed_row(r).__getitem__, ring.elements()))
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


def test_separation_matches_character_sums_on_a_product():
    # Each key is read at the members of S and S2 alone; on GR(9)xGR(25)
    # the witnesses are the first units whose exact sums differ or are nonzero.
    ring = parse_ring_spec("GR(9)xGR(25)")
    table = character_table(ring)
    for K in [K for K in all_subgroups(ring, ring.units()) if len(K) in (2, 4, 12)]:
        orbit = sorted(K)
        for S, S2 in ((orbit[:1], orbit[1:2]), (orbit[:2], orbit[-1:]), (orbit, [])):
            report = separation_check(ring, K, S, S2)
            sums = [(char_sum(table, r, S), char_sum(table, r, S2)) for r in ring.units()]
            assert report.orbit == K and report.pure == ring.is_pure_set(K)
            assert report.nonzero == next((r for r, (a, _) in zip(ring.units(), sums)
                                           if not a.is_zero()), None)
            assert report.separator == next((r for r, (a, b) in zip(ring.units(), sums)
                                             if a != b), None)


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


def test_separation_rejects_non_elements(z9):
    # {True} once merged into {1} and was reported as the subset {1}; a
    # float member raised TypeError from the character sum.
    for S, S2 in (({True}, {8}), ({1.0}, {8}), ({1}, {8.0}), ({1}, {-1}), ({10}, {1})):
        with pytest.raises(ValueError, match="not an element index"):
            separation_check(z9, {1, 8}, S, S2)


def test_separation_rejects_non_subgroups(z9):
    # {1, 2} is not closed (2*2 = 4) and 3 is not a unit; both once
    # reported the orbit {1, 2} as pure and separated.
    for K in ({1, 2}, {1, 3}, {2}, {0, 1}):
        with pytest.raises(ValueError, match="subgroup of the units"):
            separation_check(z9, K, {1}, {2})


# -- the unit-orbit kernel ------------------------------------------------------

def assert_matches_spread(table, classes) -> list[int]:
    """The kernel's dual label vector, checked against the rank-length
    key spreading of spread_dual_oracle on the same class permutations."""
    A = SRing(table.ring, classes)
    perms = table.ring.class_permutations(A.class_of)
    dual = _dual_partition(table, A.classes, perms)
    assert dual == spread_dual_oracle(table, A.classes, perms)
    return dual


def kernel_classes(table, classes) -> list[list[int]]:
    """assert_matches_spread's dual as sorted classes in label order, the
    form of dual_classes, so one kernel pass serves both comparisons."""
    return [sorted(X) for X in label_classes(assert_matches_spread(table, classes))]


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
        assert kernel_classes(table, classes) == dual_classes_oracle(table, classes)
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
    # Every unit fixes the one class, its one head, so the head keys, one
    # sum each, are the dual: {0} and the rest.
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
        dual = kernel_classes(table, classes)
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
            total = sum(map(table.packed_row(r).__getitem__, X))
            total2 = sum(map(table.packed_row(r2).__getitem__, X))
            zero.add(total == 0)
            equal.add(total == total2)
            assert (total == 0) == (not any(rem))
            assert (total == total2) == (rem == rem2)
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
    # The kernel reads the kept unit rows and the table's kept packed rows
    # of the orbit representatives.  A fresh table, installed on the ring
    # after its first one kept a row per divisor, builds them again, once;
    # later duals of other SRings build none, and so does verify_sring on
    # a Schur ring that is not an orbit ring, whose unit pass covers
    # negation on a unit-invariant partition.  dual_sring answers the
    # +-1 ring from its group, so the kernel is entered through kernel_dual.
    ring = parse_ring_spec(spec)
    A = cyclotomic(ring, subgroup_generated(ring, [ring.neg(ring.one)]))
    ring.unit_generators()
    assert len(character_table(ring).representative_rows) == len(ring.divisors())
    ring._character_table = CharacterTable(ring)
    calls = []
    real = CGRing.mul_row
    monkeypatch.setattr(CGRing, "mul_row", lambda self, r: calls.append(r) or real(self, r))
    assert A.kernel_dual.rank == A.rank
    assert sorted(calls) == sorted(ring.orbit_representatives())
    calls.clear()
    for B in (A.kernel_dual, SRing.from_labels(ring, A.class_of)):
        assert B.kernel_dual.rank == B.rank
    assert calls == []
    two = rank2(ring)  # R - {0} holds non-units, so it is no orbit ring
    assert verify_sring(ring, two.classes).ok
    assert calls == []
    # on the orbit path verify_sring builds only the rows of K's generators
    assert verify_sring(ring, A.classes).ok
    assert calls == [ring.neg(ring.one)]


def test_character_table_lives_on_its_ring():
    # Each ring keeps its own table, so equal rings do not share one, and
    # a ring with every reference dropped is freed with its table.
    first, second = parse_ring_spec("GR(4)xGR(9)"), parse_ring_spec("GR(4)xGR(9)")
    assert first == second and first is not second
    for ring in (first, second):
        assert character_table(ring).ring is ring
    assert character_table(first) is character_table(first)
    A = cyclotomic(first, subgroup_generated(first, [first.neg(first.one)]))
    assert dual_sring(A).rank == A.rank
    assert verify_sring(first, A.classes).ok
    alive = weakref.ref(first)
    del first, second, ring, A
    gc.collect()
    assert alive() is None


# -- head keys, refinement and the discrete stop ---------------------------------

def test_dual_kernel_matches_spread_oracle_on_large_rings(monkeypatch):
    # The +-1 and unit-orbit rings of a 1225-element ring, and every
    # partition the closures of {-1} and of a unit hand to the kernel.
    ring = parse_ring_spec("GR(25)xGR(49)")
    table = character_table(ring)
    for K in (subgroup_generated(ring, [ring.neg(ring.one)]), ring.units()):
        assert_matches_spread(table, cyclotomic(ring, K).classes)
    rounds = []
    real = duality._dual_partition
    monkeypatch.setattr(duality, "_dual_partition",
                        lambda table, P, perms: rounds.append(P) or real(table, P, perms))
    for seed in ([ring.neg(ring.one)], [ring.units()[5]]):
        schur_closure(ring, [seed])
    assert len(rounds) >= 6
    monkeypatch.undo()
    for P in rounds:
        assert_matches_spread(table, P)


@pytest.mark.parametrize("spec", ("GR(4,2)", "GR(8,2)", "GR(4,2)xGR(9)"))
def test_dual_kernel_matches_spread_oracle_on_every_cyclotomic_ring(spec):
    ring = parse_ring_spec(spec)
    table = character_table(ring)
    for K in all_subgroups(ring, ring.units()):
        A = cyclotomic(ring, K)
        assert assert_matches_spread(table, A.classes) == A.class_of


def test_dual_refines_the_head_keys():
    # The head keys of <3> over GR(4,2) have rank 3; only the refinement
    # to unit invariance reaches the dual's rank 10.
    ring = parse_ring_spec("GR(4,2)")
    table = character_table(ring)
    A = cyclotomic(ring, subgroup_generated(ring, [3]))
    assert A.rank == 10
    assert dual_sring(A).rank == 10
    assert dual_classes(table, A.classes) == dual_classes_oracle(table, A.classes)


def test_discrete_partition_has_the_discrete_dual(monkeypatch):
    # Characters are distinct, so the discrete dual is returned at once,
    # without a packed row.
    ring = parse_ring_spec("GR(4)xGR(9)")
    discrete = [[x] for x in ring.elements()]
    ring.unit_generators()
    table = CharacterTable(ring)
    calls = []
    real = CGRing.mul_row
    monkeypatch.setattr(CGRing, "mul_row", lambda self, r: calls.append(r) or real(self, r))
    assert dual_classes(table, discrete) == discrete
    assert calls == [] and "representative_rows" not in vars(table)
    monkeypatch.undo()
    assert dual_classes_oracle(table, discrete) == discrete


def test_dual_at_3025_elements_keeps_no_rank_length_keys():
    # One packed sum per class and representative and one small int per
    # element: a rank-length key per dual class peaked at 22.5 MiB here.
    # dual_sring answers the +-1 ring from its group, so the kernel is
    # entered through kernel_dual.
    ring = parse_ring_spec("GR(121)xGR(25)")
    A = cyclotomic(ring, subgroup_generated(ring, [ring.neg(ring.one)]))
    character_table(ring)
    tracemalloc.start()
    try:
        B = A.kernel_dual
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert B.rank == 1513 and B.kernel_dual == A
    assert peak < 12 * 2**20
    assert verify_sring(ring, A.classes).ok
    assert schur_closure(ring, [[ring.neg(ring.one)]]).rank == ring.size


# -- orbit rings: the dual and the convolution axiom from the group ---------------

def spy_kernel(monkeypatch) -> list:
    """Record each call of the character-sum kernel, which still runs."""
    calls = []
    real = duality._dual_partition
    monkeypatch.setattr(duality, "_dual_partition",
                        lambda table, P, perms: calls.append(len(P)) or real(table, P, perms))
    return calls


@pytest.mark.parametrize("spec", ("GR(4,2)", "GR(8,2)", "GR(4,2)xGR(9)"))
def test_orbit_rings_answer_dual_and_verify_from_their_group(spec, monkeypatch):
    # A document-loaded copy of every cyclotomic ring is recognised: it is
    # its own dual, as the ring from cyclotomic is, which equals the
    # kernel's; it verifies, and the kernel never runs.
    ring = parse_ring_spec(spec)
    cases = []
    for K in all_subgroups(ring, ring.units()):
        A = cyclotomic(ring, K)
        cases.append((K, A, SRing(ring, A.to_doc()["classes"]), A.kernel_dual))
    calls = spy_kernel(monkeypatch)
    for K, A, D, expected in cases:
        B = dual_sring(D)
        assert B is D and dual_sring(A) is A and B == expected
        assert D.orbit_subgroup() == K and B.orbit_subgroup() == K
        assert dual_sring(B) == D
        assert verify_sring(ring, D.classes).ok
    assert calls == []


def non_orbit_srings() -> list[tuple[str, SRing]]:
    """Schur rings whose classes are no unit subgroup's orbits."""
    out = [(f"GR(8,2) rank {A.rank} #{i}", A) for i, A in enumerate(gr82_exceptions())]
    for args in ((2, 2, 3, 1), (3, 1, 2, 2)):
        out.append((f"construction {args}", build_nonpure_dense_sring(*args)[1]))
    ring = parse_ring_spec("GR(4,2)xGR(9)")
    x = next(x for x in ring.elements() if ring.upper_ideal(frozenset({x})) == 3)
    out.append(("closure of an element of 3R^x", schur_closure(ring, [[x]])))
    return out


def test_non_orbit_srings_reach_the_kernel(monkeypatch):
    # The 8 pure GR(8,2) rings outside the odd theorem, both construction
    # rings, and the closure of one element of the stratum 3R^x are not
    # orbit rings: dual_sring and verify_sring run the kernel on them.
    cases = non_orbit_srings()
    assert len(cases) == 11
    calls = spy_kernel(monkeypatch)
    for label, A in cases:
        D = SRing(A.ring, A.to_doc()["classes"])
        assert D.orbit_subgroup() is None, label
        calls.clear()
        assert verify_sring(D.ring, D.classes).ok, label
        assert len(calls) == 1, label
        B = dual_sring(D)
        assert len(calls) == 2 and B.rank == D.rank, label
        assert B == SRing(D.ring, D.classes).kernel_dual, label


def test_verified_document_dualises_with_its_kept_kernel_dual(monkeypatch):
    # The kernel dual is kept on the SRing: verify then dual_sring on a
    # document-loaded construction ring run the kernel once between them,
    # not once each.  dual_sring records no back-link, so check_duality on
    # the document still dualises A, its dual, the tensor factors and the
    # quotients: 10 passes.
    doc = build_nonpure_dense_sring(2, 2, 3, 1)[1].to_doc()
    calls = spy_kernel(monkeypatch)
    D = SRing(parse_ring_spec(doc["ring"]), doc["classes"])
    assert D.orbit_subgroup() is None
    assert D.verify().ok and dual_sring(D).rank == D.rank
    assert len(calls) == 1
    calls.clear()
    assert check_duality(SRing(parse_ring_spec(doc["ring"]), doc["classes"])).ok
    assert len(calls) == 10


def test_closure_verifies_and_dualises_with_no_kernel_run(monkeypatch):
    # A closure keeps the dual its loop stopped on, so its verify and
    # dual_sring read it; the closure of one element of 3R^x is no orbit
    # ring, so neither answers from a group.
    ring = parse_ring_spec("GR(4,2)xGR(9)")
    x = next(x for x in ring.elements() if ring.upper_ideal(frozenset({x})) == 3)
    C = schur_closure(ring, [[x]])
    calls = spy_kernel(monkeypatch)
    assert C.verify().ok and C.orbit_subgroup() is None
    assert dual_sring(C).rank == C.rank
    assert calls == []


def test_check_duality_runs_the_kernel_on_orbit_rings(monkeypatch):
    # check_duality tests the kernel against the laws, so it dualises an
    # orbit ring, its dual and each quotient with the kernel.  The +-1
    # ring of GR(4)xGR(9) is dense and no tensor product, so every proper
    # ideal, the zero ideal too, gives a quotient, and no factor is
    # dualised.
    ring = parse_ring_spec("GR(4)xGR(9)")
    A = cyclotomic(ring, subgroup_generated(ring, [ring.neg(ring.one)]))
    quotients = [quotient_sring(A, m) for m in A.a_ideal_divisors()[1:]]
    calls = spy_kernel(monkeypatch)
    assert check_duality(A).ok
    assert calls == [A.rank, A.rank] + [Q.rank for Q in quotients]


def test_sign_document_at_3025_elements_skips_the_kernel(monkeypatch):
    # The +-1 document of GR(121)xGR(25) verifies with no character table
    # built, and its dual is itself, with none built either; the kernel
    # never runs.
    ring = parse_ring_spec("GR(121)xGR(25)")
    doc = cyclotomic(ring, subgroup_generated(ring, [ring.neg(ring.one)])).to_doc()
    calls = spy_kernel(monkeypatch)
    loaded = parse_ring_spec("GR(121)xGR(25)")
    D = SRing(loaded, doc["classes"])
    assert verify_sring(loaded, doc["classes"]).ok
    assert loaded._character_table is None
    B = dual_sring(D)
    assert B == D and B.rank == 1513
    assert loaded._character_table is None
    assert calls == []
