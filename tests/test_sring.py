"""Schur ring axioms, constructions, and the power/Frobenius map laws."""

from __future__ import annotations

import argparse
import math
import random
from collections import Counter
from itertools import combinations

import pytest
from conftest import (
    KERNEL_RINGS,
    SWAP_DOC,
    closure_start_oracle,
    coset_counts_oracle,
    enumerate_subgroups,
    frobenius_set_oracle,
    is_dense_oracle,
    is_rational_oracle,
    kernel_subgroups,
    merge_multiples,
    merge_strata,
    orbit_partition_oracle,
    project_oracle,
    random_invariant_seed,
    rank2,
    swap_broken,
    verify_sring_oracle,
)

from cgschur import cgring, cli, duality, sring
from cgschur.cgring import (CGRing, ideal_model, ideal_ring, label_classes, make_cg_ring,
                            parse_ring_spec)
from cgschur.classify import reassemble
from cgschur.construct import all_subgroups, build_nonpure_dense_sring, subgroup_generated
from cgschur.cgring import quotient as ring_quotient
from cgschur.sring import (
    SRing,
    PartitionError,
    StructureError,
    coset_count,
    cyclotomic,
    frobenius_set,
    has_nontrivial_wreath,
    is_tensor_over,
    labels,
    power_map,
    quotient_sring,
    restrict,
    schur_closure,
    sring_from_doc,
    tensor,
    verify_sring,
    wreath_pairs,
    WreathCert,
)


def test_partition_validation(z9):
    with pytest.raises(PartitionError):
        SRing(z9, [{0, 1}, {1, 2}, {3, 4, 5, 6, 7, 8}])
    with pytest.raises(PartitionError):
        SRing(z9, [{0}, {1, 2}])
    with pytest.raises(PartitionError):
        SRing(z9, [set(), {0, 1, 2, 3, 4, 5, 6, 7, 8}])
    for bad in (True, 1.0, "1"):
        with pytest.raises(PartitionError):
            SRing(z9, [[0], [bad, 2, 3, 4, 5, 6, 7, 8]])
    A = SRing(z9, [{3, 6}, {0}, {1, 2, 4, 5, 7, 8}])
    assert [min(X) for X in A.classes] == [0, 1, 3]


def test_verify_accepts_rank2_and_orbits(z9, z36):
    for ring in (z9, z36):
        A = rank2(ring)
        assert verify_sring(ring, A.classes).ok
        for K in enumerate_subgroups(ring):
            B = cyclotomic(ring, K)
            assert verify_sring(ring, B.classes).ok


def test_verify_rejects_split_orbit(z9):
    report = verify_sring(z9, [{0}, {3, 6}, {1, 2, 4}, {5, 7, 8}])
    assert not report.ok
    axioms = {f["axiom"] for f in report.failures}
    assert axioms <= {"unit-invariance", "convolution"}
    assert "unit-invariance" in axioms or "convolution" in axioms


def test_verify_matches_full_scan_oracle():
    # verify_sring scans only the classes that meet each convolution's
    # support; the oracle scans them all and must give the same report.
    rng = random.Random(404)
    failures = 0
    for spec in ([(3, 2, 1)], [(2, 2, 2)], [(2, 2, 1), (3, 2, 1)], [(2, 2, 2), (3, 2, 1)]):
        ring = make_cg_ring(spec)
        subgroups = enumerate_subgroups(ring)
        for _ in range(4):
            A = cyclotomic(ring, rng.choice(subgroups))
            for classes in (A.classes, swap_broken(A, rng)):
                doc = verify_sring(ring, classes).to_doc()
                assert doc == verify_sring_oracle(ring, classes)
                assert SRing(ring, classes).verify().to_doc() == doc
                failures += len(doc["failures"])
    assert failures > 100


@pytest.mark.parametrize("spec", ["GR(9)", "GR(4,2)", "GR(4)xGR(9)", "GR(4,2)xGR(9)",
                                  "GR(3)xGR(5)xGR(7)", "GR(27)xGR(4,2)"])
def test_verify_invariant_partitions_match_oracle(spec):
    # Unit-invariant partitions skip the convolution scan when their dual
    # has the same rank; the others must still report every witness.
    ring = parse_ring_spec(spec)
    rng = random.Random(spec)
    failing = 0
    for i in range(3):
        gens = [rng.choice(ring.units())] if i else []
        while cyclotomic(ring, subgroup_generated(ring, gens)).rank > 40:
            gens.append(rng.choice(ring.units()))
        A = cyclotomic(ring, subgroup_generated(ring, gens))
        m = rng.choice(ring.divisors()[1:-1])
        for classes in (merge_strata(A, rng), merge_multiples(A, m, rng.choice(ring.units()))):
            assert ring.class_permutations(SRing(ring, classes).class_of) is not None
            doc = verify_sring(ring, classes).to_doc()
            assert doc == verify_sring_oracle(ring, classes)
            assert {f["axiom"] for f in doc["failures"]} <= {"convolution"}
            failing += not doc["ok"]
    assert failing


def test_verify_computes_class_permutations_once(z36, monkeypatch):
    # The unit-invariance check and the dual share one
    # class_permutations per call, whether the partition passes or fails.
    calls = []
    inner = CGRing.class_permutations
    monkeypatch.setattr(CGRing, "class_permutations",
                        lambda ring, classes: calls.append(1) or inner(ring, classes))
    A = cyclotomic(z36, subgroup_generated(z36, [z36.neg(z36.one)]))
    rng = random.Random(36)
    for classes in (A.classes, merge_strata(A, rng), swap_broken(A, rng)):
        calls.clear()
        verify_sring(z36, classes)
        assert len(calls) == 1


@pytest.mark.parametrize("left, right", [("GR(9)", "GR(5)"), ("GR(4,2)", "GR(9)")])
def test_verify_late_mover_reads_only_kept_rows(left, right, monkeypatch):
    # Every unit of the first factor keeps the tensor of its unit-orbit ring
    # with {0}, {1}, rest, and the first unit moving a class comes after
    # them all.  The witness once cost one mul_row per unit up to it (8 and
    # 14 with the -1 row); it is the first unit generator that fails, read
    # from the kept generator rows, so only the -1 row is built.
    first, second = parse_ring_spec(left), parse_ring_spec(right)
    A = tensor(cyclotomic(first, first.units()),
               SRing(second, [[0], [1], range(2, second.size)]))
    ring = A.ring
    ring.unit_rows()
    calls = []
    original = CGRing.mul_row
    monkeypatch.setattr(CGRing, "mul_row", lambda self, r: calls.append(r) or original(self, r))
    doc = verify_sring(ring, A.classes).to_doc()
    assert calls == [ring.neg(ring.one)]
    monkeypatch.undo()
    assert doc == verify_sring_oracle(ring, A.classes)
    moved = [f for f in doc["failures"] if f["axiom"] == "unit-invariance"]
    witness = 1 + 2 * first.size  # the unit (1, 2), moving {0} x {1}
    assert moved == [{"axiom": "unit-invariance", "unit": witness, "class": A.class_of[first.size]}]
    assert ring.units().index(witness) == first.unit_count


def test_verify_keeps_its_verdict(monkeypatch):
    # The report is found once per SRing: a second verify of a broken ring
    # runs no convolution scan, while a fresh copy scans again.
    ring = parse_ring_spec("GR(3,2)")
    A = SRing(ring, [[0], [1, 2], range(3, 9)])
    first = A.verify()
    assert not first.ok
    adds = []
    original = CGRing.add
    monkeypatch.setattr(CGRing, "add", lambda self, x, y: adds.append((x, y)) or original(self, x, y))
    assert A.verify() is first and adds == []
    assert SRing(ring, A.classes).verify() == first and adds


def test_verify_of_a_cyclotomic_ring_runs_no_pass(monkeypatch):
    # A ring from cyclotomic keeps its K, an orbit partition: it passes with
    # no recognition, no class permutations and no character sums.
    ring = parse_ring_spec("GR(4,2)xGR(9)")
    A = cyclotomic(ring, subgroup_generated(ring, [ring.neg(ring.one)]))
    calls = []
    for owner, name in ((CGRing, "_subgroup_rows"), (CGRing, "class_permutations"),
                        (duality, "_dual_partition")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    assert A.verify().to_doc() == {"ok": True, "failures": []}
    assert calls == []


def test_verify_reports_zero_and_negation():
    ring = make_cg_ring([(5, 1, 1)])
    report = verify_sring(ring, [{0, 1, 2, 3, 4}])
    assert not report.ok
    assert any(f["axiom"] == "zero-class" for f in report.failures)
    report = verify_sring(ring, [{0}, {1, 2}, {3, 4}])
    assert not report.ok
    assert any(f["axiom"] in ("negation", "unit-invariance") for f in report.failures)
    report = verify_sring(ring, [{0}, {1}, {2, 3, 4}])
    assert any(f["axiom"] == "negation" for f in report.failures)


def test_cyclotomic_examples(z9, z36):
    assert cyclotomic(z9, [1]).rank == 9
    big = make_cg_ring([(2, 2, 2), (3, 2, 1)])
    assert cyclotomic(big, big.units()).rank == 9
    A = cyclotomic(z9, [1, 8])
    assert set(A.classes) == {
        frozenset({0}), frozenset({3, 6}), frozenset({1, 8}),
        frozenset({2, 7}), frozenset({4, 5}),
    }
    with pytest.raises(ValueError):
        cyclotomic(z9, [1, 3])
    with pytest.raises(ValueError):
        cyclotomic(z9, [1, 4])


def test_cyclotomic_rejects_non_elements(z9):
    # 17 would be read as 8 and True as 1 by the arithmetic
    with pytest.raises(ValueError, match="not an element index"):
        cyclotomic(z9, [1, 8, 17])
    with pytest.raises(ValueError, match="not an element index"):
        cyclotomic(make_cg_ring([(2, 2, 2)]), [1, True])


def test_schur_closure_examples(z9):
    A = schur_closure(z9, [set(z9.units())])
    assert A.rank == 3
    assert A == cyclotomic(z9, z9.units())
    assert schur_closure(z9) == cyclotomic(z9, z9.units())
    assert schur_closure(z9, [{x} for x in z9.elements()]).rank == 9


def test_schur_closure_is_the_dense_closure(z9):
    # {0}, R - {0} is a Schur ring with the seed as a class, but it is not
    # dense: 3R is no A-set.  The closure keeps 3R and so splits R - {0}.
    seed = set(range(1, 9))
    assert verify_sring(z9, [[0], sorted(seed)]).ok
    A = schur_closure(z9, [seed])
    assert A.is_dense()
    assert sorted(sorted(X) for X in A.classes) == [[0], [1, 2, 4, 5, 7, 8], [3, 6]]


def test_schur_closure_rejects_non_elements(z9):
    for bad in (-1, 9, 12, True, 1.0):
        with pytest.raises(ValueError):
            schur_closure(z9, [[1, bad]])


def test_schur_closure_outputs_are_sring(z36):
    rng = random.Random(7)
    for _ in range(6):
        seeds = [set(rng.sample(range(36), rng.randrange(1, 8)))]
        A = schur_closure(z36, seeds)
        assert verify_sring(z36, A.classes).ok
        for S in seeds:
            assert A.is_aset(S)


def test_schur_closure_is_smallest(z36):
    # Every Schur ring that keeps the seed as an A-set and refines the unit
    # strata must refine the closure, so the closure is the coarsest such.
    seed = frozenset({6, 30})
    A = schur_closure(z36, [seed])
    assert A.is_aset(seed)
    for K in enumerate_subgroups(z36):
        B = cyclotomic(z36, K)
        if B.is_aset(seed):
            for X in A.classes:
                assert B.is_aset(X)


def test_schur_closure_fixes_schur_rings(corpus):
    for label, A in corpus:
        if label.startswith(("cyc", "closure")):
            assert schur_closure(A.ring, A.classes) == A, label


def test_schur_closure_of_one_unit_is_discrete():
    ring = make_cg_ring([(2, 2, 2), (3, 2, 1)])
    A = schur_closure(ring, [{ring.one}])
    assert A.rank == 144
    assert verify_sring(ring, A.classes).ok


def closure_start(monkeypatch, ring, seeds) -> tuple[list, SRing]:
    """The partition schur_closure hands to its first dual, as sorted
    classes in element order, and its result."""
    real = duality._dual_partition
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(duality, "_dual_partition",
                      lambda table, P, perms: calls.append(P) or real(table, P, perms))
        A = schur_closure(ring, seeds)
    return [sorted(X) for X in calls[0]], A


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_closure_start_matches_stratum_oracle(spec, monkeypatch):
    # x and y share a start class iff every unit translate of a seed and
    # every ideal holds both or neither; the stratum key gives the same
    # partition, and adding the ideals as seeds changes nothing.
    ring = parse_ring_spec(spec)
    rng = random.Random(spec)
    orbits = rng.sample(cyclotomic(ring, rng.choice(kernel_subgroups(spec))).classes, 3)
    ideals = [ring.ideal(m) for m in ring.divisors()]
    for seeds in ([], [range(1, ring.size)], [orbits[0] | orbits[1], orbits[1] | orbits[2]]):
        start, A = closure_start(monkeypatch, ring, seeds)
        assert start == closure_start_oracle(ring, seeds)
        assert closure_start(monkeypatch, ring, [*seeds, *ideals]) == (start, A)


def test_closure_lists_no_ideal(monkeypatch):
    # The start partition keys each element by its unit-orbit key, the atoms
    # of every ideal, so no ideal is built as a set.
    ring = parse_ring_spec("GR(4,2)xGR(9)")
    expected = schur_closure(ring, [[5, 31]])
    monkeypatch.setattr(CGRing, "ideal", lambda *args: pytest.fail("an ideal was listed"))
    assert schur_closure(ring, [[5, 31]]) == expected


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_is_rational_matches_all_units_oracle(spec):
    ring = parse_ring_spec(spec)
    rng = random.Random(spec)
    subgroups = kernel_subgroups(spec)
    rings = [cyclotomic(ring, K) for K in rng.sample(subgroups, min(8, len(subgroups)))]
    rings += [schur_closure(ring, [random_invariant_seed(ring, rng.choice(subgroups), rng)])
              for _ in range(2)]
    verdicts = set()
    for A in rings:
        for size in range(len(ring.primes) + 1):
            for Q in combinations(ring.primes, size):
                verdicts.add(A.is_rational(Q))
                assert A.is_rational(Q) == is_rational_oracle(A, Q)
    assert verdicts == {True, False}


def test_is_rational_reads_rows_up_to_the_first_mover(monkeypatch):
    # The units fixing every class grow one row per generator: the rank-2
    # ring over GR(4,2)xGR(9) reads the 3 + 1 generator rows of its 12 + 6
    # component units.  A ring that is not rational stops at the first row
    # that moves a class, where one generate per component once built all
    # 3 rows of the first component before reading any.
    ring = make_cg_ring([(2, 2, 2), (3, 2, 1)])
    discrete = SRing(ring, [[x] for x in ring.elements()])
    calls = []
    original = CGRing.mul_row
    monkeypatch.setattr(CGRing, "mul_row", lambda self, r: calls.append(r) or original(self, r))
    expected = [(rank2(ring), None, True, [19, 20, 22, 33]),
                (discrete, None, False, [19]), (discrete, (3,), False, [33])]
    for A, primes, rational, rows in expected:
        calls.clear()
        assert A.is_rational(primes) is rational
        assert calls == rows


def test_a_ideals_and_density(z9, z36):
    full = cyclotomic(z36, [z36.one])
    assert full.a_ideal_divisors() == z36.divisors()
    assert full.is_dense()
    A = rank2(z9)
    assert A.a_ideal_divisors() == [1, 9]
    assert not A.is_dense()
    for K in enumerate_subgroups(z36):
        assert cyclotomic(z36, K).is_dense()


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_cyclotomic_matches_checked_orbit_partition(spec):
    ring = parse_ring_spec(spec)
    for K in kernel_subgroups(spec):
        A = cyclotomic(ring, K)
        B = SRing(ring, orbit_partition_oracle(ring, K, ring.elements()))
        assert A == B and A.classes == B.classes


@pytest.mark.parametrize("spec", ["GR(4,2)xGR(9)", "GR(9)xGR(25)", "GR(8,2)"])
def test_cyclotomic_answers_from_K_match_the_checked_partition(spec):
    # A ring from cyclotomic keeps K and reads its lower ideal, purity and
    # density from it; the checked constructor on the same orbits takes the
    # per-class path.  Rank, unit classes and those answers are read before
    # the classes, which the label-first ring builds only when asked.
    ring = parse_ring_spec(spec)
    for K in all_subgroups(ring, ring.units()):
        A, B = cyclotomic(ring, K), SRing(ring, cyclotomic(ring, K).classes)
        assert (A.rank, A.unit_class_indices()) == (B.rank, B.unit_class_indices())
        assert (A.lower_ideal(), A.is_pure(), A.is_dense()) == (
            B.lower_ideal(), B.is_pure(), B.is_dense())
        assert "classes" not in vars(A)
        assert A.unit_lower_ideals == B.unit_lower_ideals
        assert A.classes == B.classes and A.rank == len(A.classes)
        assert A.is_dense() and set(A.unit_lower_ideals.values()) == {ring.lower_ideal(K)}


@pytest.mark.parametrize("spec, count", [
    ("GR(4,2)xGR(9)", 96), ("GR(8,2)", 54), ("GR(9)xGR(25)", 32), ("GR(32)", 11),
    ("GR(2,3)xGR(9)", 8), ("GR(3)xGR(5)xGR(7)", 54)])
def test_burnside_rank_and_answers_from_K_match_the_labels(spec, count):
    # A fresh cyclotomic ring counts its orbits by Burnside's lemma and reads
    # its lower ideal, purity and density from K; a label-only ring of the
    # same orbits keeps no K and answers from its classes.  Every subgroup,
    # the trivial one and the whole unit group included.
    ring = parse_ring_spec(spec)
    groups = kernel_subgroups(spec)
    assert len(groups) == count and {frozenset({ring.one}), ring.unit_set()} <= set(groups)
    for K in groups:
        A, B = cyclotomic(ring, K), SRing.from_labels(ring, cyclotomic(ring, K).class_of)
        assert A.rank == len(label_classes(B.class_of)) and "class_of" not in vars(A)
        assert B._subgroup is None
        assert (A.lower_ideal(), A.is_pure(), A.is_dense()) == (
            B.lower_ideal(), B.is_pure(), B.is_dense())


def test_cyclotomic_builds_its_labels_on_first_read(monkeypatch):
    # cyclotomic checks K with one generate and walks no orbit; the labels
    # are walked from the kept rows only when the classes are first read.
    ring = parse_ring_spec("GR(4,2)xGR(9)")
    groups = all_subgroups(ring, ring.units())
    walks, checks = [], []
    walk, check = sring._orbit_labels, CGRing._subgroup_rows
    monkeypatch.setattr(sring, "_orbit_labels", lambda n, rows: walks.append(n) or walk(n, rows))
    monkeypatch.setattr(CGRing, "_subgroup_rows", lambda self, K: checks.append(K) or check(self, K))
    rings = [cyclotomic(ring, K) for K in groups]
    answers = [(A.rank, A.is_pure(), A.is_dense(), A.lower_ideal()) for A in rings]
    assert (len(answers), len(walks), len(checks)) == (96, 0, 96)
    A, K = rings[-1], groups[-1]
    classes = A.classes
    assert walks == [ring.size] and A._generator_rows is None
    expected = cgring._orbit_labels(ring.size, ring.generate(K)[1])  # not counted by the spy
    assert A.class_of == expected and classes == tuple(label_classes(expected))
    # {1, u} with u*u != 1 holds only units but is no group
    u = next(u for u in ring.units() if ring.mul(u, u) != ring.one)
    with pytest.raises(ValueError, match="K must be a subgroup of the units"):
        cyclotomic(ring, {ring.one, u})
    assert walks == [ring.size]


@pytest.mark.parametrize("spec", ["GR(4,2)xGR(9)", "GR(8,2)"])
def test_a_ideals_read_class_sizes_from_the_labels(spec):
    # is_aset reads the sizes of the classes X meets from one count of the
    # labels, so a fresh cyclotomic ring answers with no class built; the
    # answer is the ideal scan over the classes of the checked partition.
    ring = parse_ring_spec(spec)
    for K in all_subgroups(ring, ring.units()):
        A, B = cyclotomic(ring, K), SRing(ring, cyclotomic(ring, K).classes)
        found = A.a_ideal_divisors()
        assert "classes" not in vars(A)
        assert found == B.a_ideal_divisors() == [
            m for m in ring.divisors()
            if all(X <= ring.ideal(m) or not X & ring.ideal(m) for X in B.classes)]


def test_checked_constructor_stores_only_the_labels():
    # The checked constructor keeps the label vector alone, as from_labels
    # does; the classes are built from it on first read, in order of least
    # member, whatever order the input lists them in.
    sign = parse_ring_spec("GR(9)xGR(25)")
    pairs = {frozenset({x, sign.neg(x)}) for x in sign.elements()}
    for ring, given, rank in ((parse_ring_spec(SWAP_DOC["ring"]), SWAP_DOC["classes"], 10),
                              (sign, pairs, 113)):
        expected = sorted(map(sorted, given))
        A = SRing(ring, [reversed(X) for X in reversed(expected)])
        assert "classes" not in vars(A) and A.rank == rank
        assert A.classes == tuple(map(frozenset, expected)) and A.rank == len(A.classes)
        assert A.to_doc() == {"ring": ring.spec(), "classes": expected}
    assert A.to_doc()["classes"][:3] == [[0], [1, 8], [2, 7]]


def test_rank_counts_the_classes_of_unchecked_rings(z9):
    # Rings built from label vectors count their rank from the labels
    # before any class is built.
    ring = parse_ring_spec("GR(9)xGR(25)")
    A = cyclotomic(ring, subgroup_generated(ring, [ring.neg(ring.one)]))
    T = tensor(cyclotomic(z9, [1, 8]), rank2(parse_ring_spec("GR(25)")))
    split = is_tensor_over(T, {3})
    built = {
        "dual": lambda: duality.dual_sring(A),
        "closure": lambda: schur_closure(ring, [[3]]),
        "restrict": lambda: restrict(A, 3),
        "tensor": lambda: tensor(cyclotomic(z9, [1, 8]), rank2(parse_ring_spec("GR(25)"))),
        "reassemble": lambda: reassemble(ring, ((frozenset({3}), split.left, "left"),
                                                (frozenset({5}), split.right, "right"))),
    }
    for name, build in built.items():
        B = build()
        rank = B.rank
        assert rank == len(B.classes) == len(set(B.class_of)), name
    assert split.ok and built["reassemble"]() == T


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_is_dense_matches_ideal_scan(spec, z9):
    # 30 random partitions: 15 refine the sets where xR is constant, so are
    # dense, and 15 ignore them, which almost never leaves {0} a class.
    ring = parse_ring_spec(spec)
    rng = random.Random(spec)
    generated = [ring.upper_ideal(frozenset({x})) for x in ring.elements()]

    def random_partition(refine: bool) -> SRing:
        k = rng.randrange(1, 6)
        return SRing.from_labels(ring, labels(
            (generated[x] if refine else 0, rng.randrange(k)) for x in ring.elements()))

    dense = [cyclotomic(ring, K) for K in kernel_subgroups(spec)]
    dense += [random_partition(True) for _ in range(15)]
    loose = [random_partition(False) for _ in range(15)]
    broken = SRing(z9, [{0}, {1, 4, 7}, {2}, {3}, {5}, {6}, {8}])
    partitions = dense + loose + [rank2(ring), rank2(z9), broken]
    assert [A.is_dense() for A in partitions] == [is_dense_oracle(A) for A in partitions]
    assert all(A.is_dense() for A in dense) and not any(A.is_dense() for A in loose)
    assert not rank2(z9).is_dense() and broken.is_dense()


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_cyclotomic_and_density_count_guards(spec, monkeypatch):
    # cyclotomic checks K's members and nothing else, and builds only the
    # rows its one generate keeps; is_dense reads the kept unit-orbit
    # keys and builds no ideal and no row.
    ring = parse_ring_spec(spec)
    calls, kept = Counter(), []
    for name in ("is_element", "mul_row", "ideal"):
        real = getattr(CGRing, name)
        monkeypatch.setattr(CGRing, name, lambda self, arg, real=real, name=name:
                            calls.update([name]) or real(self, arg))
    real_generate = CGRing.generate
    monkeypatch.setattr(CGRing, "generate", lambda self, elements:
                        kept.append(real_generate(self, elements)) or kept[-1])
    for K in kernel_subgroups(spec):
        calls.clear()
        kept.clear()
        A = cyclotomic(ring, sorted(K))
        assert calls == Counter(is_element=len(K), mul_row=len(kept[0][0])) and len(kept) == 1
        calls.clear()
        assert A.is_dense() and not calls
    trivial = rank2(ring)
    calls.clear()
    assert not trivial.is_dense() and not calls


def test_lower_ideal_and_purity(z9):
    assert cyclotomic(z9, [1, 8]).is_pure()
    A = cyclotomic(z9, [1, 4, 7])
    assert A.lower_ideal() == 3
    assert not A.is_pure()
    assert rank2(z9).is_pure()
    B = SRing(z9, [{0}, {3, 6}, set(z9.units())])
    assert B.lower_ideal() == 3
    assert not B.is_pure()


def test_rationality(z9, z36):
    assert cyclotomic(z36, z36.units()).is_rational()
    assert not cyclotomic(z36, [z36.one]).is_rational()
    A = cyclotomic(z9, [1, 8])
    assert not A.is_rational()
    assert SRing(z9, [{0}, {3, 6}, set(z9.units())]).is_rational()
    with pytest.raises(ValueError, match="not primes"):
        A.is_rational([7])
    with pytest.raises(ValueError, match="not primes"):
        cyclotomic(z36, z36.units()).is_rational([2, 5])


def test_restrict_and_quotient(z9, z36):
    full = cyclotomic(z36, [z36.one])
    sub = restrict(full, 6)
    assert sub.ring.spec() == "GR(2)xGR(3)"
    assert sub.rank == sub.ring.size
    with pytest.raises(ValueError):
        restrict(rank2(z9), 3)

    A = cyclotomic(z9, z9.units())
    assert quotient_sring(A, 9) == A
    q = quotient_sring(A, 3)
    assert q.ring.spec() == "GR(3)"
    assert set(q.classes) == {frozenset({0}), frozenset({1, 2})}

    for K in enumerate_subgroups(z36):
        B = cyclotomic(z36, K)
        for m in (6, 12, 4, 9):
            qmap = ring_quotient(z36, m)
            piK = frozenset(qmap.pi(k) for k in K)
            assert quotient_sring(B, m) == cyclotomic(qmap.ring, piK)


def test_restriction_matches_ideal_model(z36):
    A = cyclotomic(z36, z36.units())
    sub = restrict(A, 6)
    assert sub.ring.char == 6
    assert verify_sring(sub.ring, sub.classes).ok
    assert sub == cyclotomic(sub.ring, sub.ring.units())


def test_restrict_matches_the_embed_reading(corpus):
    # restrict reads mR in index order.  The reading it replaced went through
    # ideal_ring's embed, which scales each coefficient by m instead of
    # p_i^v_i; the two differ by an integer unit, so on a Schur ring they
    # must give one partition.
    checked = 0
    for label, A in corpus:
        for m in A.a_ideal_divisors():
            if m == A.ring.char:
                continue
            sub = ideal_ring(A.ring, m)
            embedded = labels(A.class_of[sub.embed(y)] for y in sub.ring.elements())
            assert restrict(A, m) == SRing.from_labels(sub.ring, embedded), (label, m)
            checked += 1
    assert checked >= 100, checked


def test_restrict_builds_no_digit_row(monkeypatch):
    # restrict once took its model ring from ideal_ring, whose embed row (a
    # _recode row per component) it never read; with mR listed, it builds
    # no digit row at all, and the model is ideal_ring's.
    ring = parse_ring_spec("GR(121)xGR(81)")
    A = cyclotomic(ring, ring.units())
    for m in (3, 11, 81, 121, ring.char):
        ring.ideal(m)
    monkeypatch.setattr(cgring, "_recode", None)
    for m in (3, 11, 81, 121):
        sub = restrict(A, m)
        assert sub.ring == ideal_model(ring, m) and sub.ring.size == len(ring.ideal(m))
    with pytest.raises(ValueError, match="zero ideal"):
        restrict(A, ring.char)


def test_tensor_and_detection(z9):
    z4 = make_cg_ring([(2, 2, 1)])
    A1 = cyclotomic(z4, [1])
    A2 = cyclotomic(z9, [1, 8])
    T = tensor(A1, A2)
    assert T.ring.spec() == "GR(4)xGR(9)"
    assert T.rank == A1.rank * A2.rank
    assert verify_sring(T.ring, T.classes).ok
    split = is_tensor_over(T, {2})
    assert split.ok
    assert split.left == A1
    assert split.right == A2


def test_tensor_detection_negative(z36):
    K = frozenset({z36.from_parts((1, 1)), z36.from_parts((3, 8))})
    A = cyclotomic(z36, K)
    split = is_tensor_over(A, {2})
    assert not split.ok
    assert "not a product set" in split.reason
    assert not is_tensor_over(A, {2, 3}).ok
    assert not is_tensor_over(rank2(z36), {2}).ok
    assert "not an A-ideal" in is_tensor_over(rank2(z36), {2}).reason


def test_tensor_split_over_a_foreign_prime(z36):
    split = is_tensor_over(cyclotomic(z36, z36.units()), {5})
    assert not split.ok
    assert split.reason == "primes [5] not in the ring"


def test_derived_rings_need_an_a_ideal():
    # 2R = {0, 2, 4, 6} of Z_8 cuts the class {1, 2, 3, 5, 6, 7}
    A = SRing(make_cg_ring([(2, 3, 1)]), [[0], [1, 2, 3, 5, 6, 7], [4]])
    for derive in (quotient_sring, restrict):
        with pytest.raises(ValueError, match="^the ideal 2R is not an A-ideal$"):
            derive(A, 2)


def test_tensor_of_unit_orbits_splits(z36):
    A = cyclotomic(z36, z36.units())
    split = is_tensor_over(A, {2})
    assert split.ok
    assert split.left.ring.spec() == "GR(4)"
    assert split.right.ring.spec() == "GR(9)"


def test_wreath_certificates(z9):
    A = SRing(z9, [{0}, {3, 6}, set(z9.units())])
    certs = wreath_pairs(A)
    assert WreathCert(3, 3, True) in certs
    assert has_nontrivial_wreath(A)
    trivial = [c for c in certs if not c.nontrivial]
    assert {(c.outer, c.inner) for c in trivial} == {
        (1, 1), (1, 3), (1, 9), (3, 9), (9, 9)}
    assert not has_nontrivial_wreath(cyclotomic(z9, [1, 8]))
    assert not has_nontrivial_wreath(rank2(z9))


def test_wreath_in_unit_orbit_partition(z36):
    A = cyclotomic(z36, z36.units())
    certs = {(c.outer, c.inner) for c in wreath_pairs(A) if c.nontrivial}
    assert (2, 18) in certs


def test_power_and_frobenius_examples(z9):
    A = cyclotomic(z9, z9.units())
    X = frozenset(z9.units())
    assert power_map(A, X, 1) == X
    assert frobenius_set(A, X, 3) == frozenset()
    full = cyclotomic(z9, [1])
    assert frobenius_set(full, frozenset({1}), 3) == frozenset({3})
    with pytest.raises(ValueError):
        frobenius_set(full, X, 5)


def test_coset_count_example(z9):
    A = SRing(z9, [{0}, {3, 6}, set(z9.units())])
    assert coset_count(A, 3, frozenset(z9.units())) == 3
    assert coset_count(cyclotomic(z9, [1, 8]), 3, frozenset({1, 8})) == 1
    with pytest.raises(ValueError):
        coset_count(rank2(z9), 3, frozenset(range(1, 9)))


def test_coset_count_and_frobenius_set_reject_outside_domain():
    # Each of these used to answer: -1 wrapped to the last element, p = 8
    # and p = 1 counted over R and over nothing, and an empty X reported
    # unequal coset counts.  A float or bool p is no prime either.
    ring = parse_ring_spec("GR(8)")
    A = cyclotomic(ring, [1])
    for X in ({-1, 1}, {1, 8}, {True}, {1.0}):
        with pytest.raises(ValueError, match="not an element index"):
            coset_count(A, 2, X)
        with pytest.raises(ValueError, match="not an element index"):
            frobenius_set(A, X, 2)
    for p in (8, 1, 4, 3, 2.0, True):
        with pytest.raises(ValueError, match="not a prime"):
            frobenius_set(A, {1}, p)
    with pytest.raises(ValueError, match="nonempty"):
        coset_count(A, 2, set())
    with pytest.raises(ValueError, match="nonempty"):
        frobenius_set(A, set(), 2)


def test_power_map_rejects_outside_domain():
    # -1 once wrapped to the last element: power_map(A, {-1}, 2) was {7}.
    ring = parse_ring_spec("GR(9)")
    A = cyclotomic(ring, ring.units())
    for X in ({-1}, {9}, {True}, {1.0}):
        with pytest.raises(ValueError, match="not an element index"):
            power_map(A, X, 2)
    for m in (2.0, True, "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            power_map(A, {1}, m)
    assert power_map(A, {1, 2}, -1) == {8, 7}


def test_coset_count_and_frobenius_set_match_pair_oracles(corpus):
    # |X meet (x + mR)| is read from the images in R/mR, and m = 1 (a
    # field's p-torsion included) counts |X|; both against the per-pair
    # count, on classes and on random sets whose counts may vary.
    gr3 = parse_ring_spec("GR(3)")
    rings = corpus + [("over GR(3)", A) for A in (rank2(gr3), cyclotomic(gr3, [1]))]
    rng = random.Random(2026)
    for label, A in rings:
        ring = A.ring
        sizes = [rng.randrange(1, ring.size) for _ in range(3)]
        sets = list(A.classes) + [frozenset(rng.sample(ring.elements(), k)) for k in sizes]
        for X in sets:
            for p in ring.primes:
                assert frobenius_set(A, X, p) == frobenius_set_oracle(A, X, p), (label, p)
            for m in A.a_ideal_divisors():
                found = coset_counts_oracle(A, m, X)
                if len(found) == 1:
                    assert coset_count(A, m, X) == found.pop(), (label, m, sorted(X))
                else:
                    with pytest.raises(StructureError, match="not constant"):
                        coset_count(A, m, X)


def test_doc_round_trip(z36):
    A = cyclotomic(z36, [z36.one, 35])
    doc = A.to_doc()
    assert doc["ring"] == "GR(4)xGR(9)"
    assert sring_from_doc(doc) == A
    assert all(X == sorted(X) for X in doc["classes"])


# -- structural laws over the corpus -------------------------------------------


def test_corpus_members_verify(corpus):
    for label, A in corpus:
        assert verify_sring(A.ring, A.classes).ok, label


def test_power_map_is_class(corpus):
    for label, A in corpus:
        c = A.ring.char
        for m in range(1, c):
            if math.gcd(m, c) != 1:
                continue
            for X in A.classes:
                assert A.is_class(power_map(A, X, m)), (label, m, sorted(X))


def test_frobenius_set_is_aset(corpus):
    for label, A in corpus:
        for p in A.ring.primes:
            for X in A.classes:
                assert A.is_aset(frobenius_set(A, X, p)), (label, p, sorted(X))


def _p_rational_classes(A, ci):
    owned = A.ring.embed_component_units(ci)
    for X in A.classes:
        if all(frozenset(A.ring.mul(u, x) for x in X) == X for u in owned):
            yield X


def test_rational_frobenius_laws(corpus):
    # For p-rational classes: the p-part of X^[p] is zero, and X^[p] empties
    # exactly when the lower ideal has a nonzero p-part.
    for label, A in corpus:
        ring = A.ring
        for ci, comp in enumerate(ring.components):
            p = comp.p
            for X in _p_rational_classes(A, ci):
                if X == frozenset({0}):
                    continue
                fs = frobenius_set(A, X, p)
                assert all(project_oracle(ring, z, {p}) == 0 for z in fs), (label, p)
                il = ring.lower_ideal(X)
                p_part_nonzero = ring.valuations(il)[ci] < comp.n
                assert p_part_nonzero == (not fs), (label, p, sorted(X))


def test_rational_frobenius_third_law(corpus):
    for label, A in corpus:
        ring = A.ring
        c = ring.char
        for ci, comp in enumerate(ring.components):
            p, cp = comp.p, comp.char
            rest = c // cp
            m = 1 if rest == 1 else _crt(1, cp, pow(p, -1, rest), rest)
            for X in _p_rational_classes(A, ci):
                il = ring.lower_ideal(X)
                if ring.valuations(il)[ci] < comp.n:
                    continue
                X_p = {ring.parts(x)[ci] for x in X}
                if X_p == {0}:
                    continue
                Y = power_map(A, frobenius_set(A, X, p), m)
                il2 = ring.lower_ideal(X | Y)
                assert ring.valuations(il2)[ci] < comp.n, (label, p, sorted(X))


def _crt(a1, m1, a2, m2):
    x = a1 + m1 * ((a2 - a1) * pow(m1, -1, m2) % m2)
    return x % (m1 * m2)


def test_unit_classes_with_one_are_subgroups(corpus):
    for label, A in corpus:
        units = frozenset(A.ring.units())
        if not A.is_aset(units):
            continue
        X = A.class_containing(A.ring.one)
        if X <= units:
            assert A.ring._subgroup_rows(X) is not None, label


def test_upper_lower_ideals_are_a_ideals(corpus):
    for label, A in corpus:
        ideals = set(A.a_ideal_divisors())
        for X in A.classes:
            assert A.ring.lower_ideal(X) in ideals, label
            assert A.ring.upper_ideal(X) in ideals, label


def test_unit_strata_are_asets_when_dense(corpus):
    for label, A in corpus:
        if not A.is_dense():
            continue
        for m in A.ring.divisors():
            stratum = {x for x in A.ring.ideal(m) if A.ring.upper_ideal(frozenset({x})) == m}
            if stratum:
                assert A.is_aset(stratum), (label, m)


def test_coset_counts_constant(corpus):
    for label, A in corpus:
        for m in A.a_ideal_divisors():
            for X in A.classes:
                coset_count(A, m, X)


def test_projections_are_classes_when_split(corpus):
    # Tensor coherence: with both component ideals as A-ideals, projections
    # of classes are A-sets.
    for label, A in corpus:
        if len(A.ring.components) < 2:
            continue
        for comp in A.ring.components:
            Q = {comp.p}
            m = A.ring.component_divisor(Q)
            mc = A.ring.component_divisor(set(A.ring.primes) - Q)
            if A.is_aset(A.ring.ideal(m)) and A.is_aset(A.ring.ideal(mc)):
                for X in A.classes:
                    assert A.is_aset(project_oracle(A.ring, x, Q) for x in X), label


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_lower_ideal_rows_stay_bounded_and_private(spec):
    # The reduction rows are kept at most one per divisor, and no row
    # handed to a caller is one of them.
    ring = parse_ring_spec(spec)
    rings = [cyclotomic(ring, K) for K in kernel_subgroups(spec)]
    before = [[ring.lower_ideal(X) for X in A.classes] for A in rings]
    assert set(ring._reductions) <= set(ring.divisors())
    handed = [ring.mul_row(g) for m in ring.divisors() for g in ring.ideal_generators(m)]
    handed += ring.mul_table() if ring.size <= 200 else []
    for row in handed:
        row[:] = [0] * len(row)
    assert [[ring.lower_ideal(X) for X in A.classes] for A in rings] == before


def test_sring_lower_ideal_is_found_once(z9, monkeypatch):
    A = cyclotomic(z9, [1, 4, 7])
    calls = []
    real = z9.lower_ideal
    monkeypatch.setattr(z9, "lower_ideal", lambda X: calls.append(X) or real(X))
    # a cyclotomic ring reads the lower ideal of every unit class u*K from K
    assert [A.lower_ideal(), A.is_pure(), A.lower_ideal()] == [3, False, 3]
    assert calls == [frozenset({1, 4, 7})] and A.unit_class_indices() == [1, 2]
    # a document-loaded ring finds one per unit class, once
    D = SRing(z9, A.to_doc()["classes"])
    assert [D.lower_ideal(), D.is_pure(), D.lower_ideal()] == [3, False, 3]
    assert len(calls) - 1 == len(D.unit_class_indices()) == 2
    # the pure document reads the kept per-class values: no further call
    monkeypatch.setattr(cli, "_load_sring", lambda path, max_size: D)
    doc, ok = cli._cmd_sring(argparse.Namespace(action="pure", file=None), z9.size)
    assert ok and doc["unit_classes"] == [{"class": 1, "lower_ideal": 3},
                                          {"class": 2, "lower_ideal": 3}]
    assert len(calls) == 3
    # unit classes {1, 4, 7} (lower ideal 3) and {2} (9) disagree, on every call
    broken = SRing(z9, [{0}, {1, 4, 7}, {2}, {3}, {5}, {6}, {8}])
    for _ in range(2):
        with pytest.raises(StructureError, match="disagree"):
            broken.lower_ideal()


def test_orbit_subgroup_is_found_once(monkeypatch):
    # Recognition runs at most once per SRing and keeps what it finds, so
    # a recognised document answers its lower ideals and density from K.
    # A class size that does not divide |K| rejects with no row built.
    ring = parse_ring_spec("GR(4,2)xGR(9)")
    K = subgroup_generated(ring, [ring.neg(ring.one), ring.units()[3]])
    D = SRing(ring, cyclotomic(ring, K).to_doc()["classes"])
    _, built, _ = build_nonpure_dense_sring(2, 2, 3, 1)
    checks = []
    real = CGRing._subgroup_rows
    monkeypatch.setattr(CGRing, "_subgroup_rows", lambda self, X: checks.append(X) or real(self, X))
    assert [D.orbit_subgroup(), D.orbit_subgroup()] == [K, K]
    assert checks == [K]
    lowers = []
    real_lower = ring.lower_ideal
    monkeypatch.setattr(ring, "lower_ideal", lambda X: lowers.append(X) or real_lower(X))
    assert D.is_dense() and D.lower_ideal() == real_lower(K)
    assert lowers == [K]
    checks.clear()
    for _ in range(2):
        assert built.orbit_subgroup() is None
    assert checks == [] and built.is_dense()


def test_cyclotomic_keeps_its_rejections(z9):
    # In order: element index, bool, then the subgroup check (1, units, closure).
    for K, message in (([1, 9], "not an element index"),
                       ([3, True], "not an element index"),
                       ([8], "subgroup of the units"),
                       ([1, 3], "subgroup of the units"),
                       ([1, 2], "subgroup of the units")):
        with pytest.raises(ValueError, match=message):
            cyclotomic(z9, K)
