"""Decomposition and classification checks.

Expected certificates were derived by hand from the ideal lattice of
each ring: lower ideals of the classes fix the admissible wreath
layerings, and projections of the classes decide the tensor splits.
The derivations are spelled out next to the assertions.
"""

from __future__ import annotations

import re

import pytest

from conftest import gr82_exceptions, kernel_subgroups, rank2, rational_witness_oracle

from cgschur import classify
from cgschur.cgring import CGRing, ideal_ring, make_cg_ring, parse_ring_spec, quotient
from cgschur.classify import (
    KIND_NOT_APPLICABLE,
    KIND_RATIONAL_TENSOR,
    Decomposition,
    FalsificationError,
    _rank2_split,
    check_nondense_structure,
    check_quotient_purity,
    classify_rational,
    decompose_pure,
    reassemble,
)
from cgschur.duality import dual_sring
from cgschur.sring import (SRing, cyclotomic, is_tensor_over, proper_prime_splits,
                           quotient_sring, tensor, verify_sring, wreath_pairs)


def sign_pair(ring):
    return frozenset({ring.one, ring.neg(ring.one)})


# GR(3,2) split into {0}, {1, 2}, {3, ..., 8}: no Schur ring, as 3 moves {1, 2}
NON_SCHUR = [[0], [1, 2], [3, 4, 5, 6, 7, 8]]
NON_SCHUR_ERROR = ("the input is not a Schur ring; sring verify fails first with"
                   ' {"axiom":"unit-invariance","class":1,"unit":3}')


@pytest.mark.parametrize("classify", [
    decompose_pure, classify_rational, check_nondense_structure,
    lambda A: check_quotient_purity(A, 3), lambda A: check_quotient_purity(A, 2),
], ids=["pure", "rational", "nondense", "quotient", "quotient-non-divisor"])
def test_classifiers_refuse_input_that_is_no_schur_ring(classify):
    # The theorems speak of Schur rings only: each classifier verifies its
    # input first, before its own hypotheses and before reading a modulus
    # (2 divides no characteristic here), and refuses with the message the
    # command line prints.
    with pytest.raises(ValueError) as err:
        classify(SRing(parse_ring_spec("GR(3,2)"), NON_SCHUR))
    assert type(err.value) is ValueError and str(err.value) == NON_SCHUR_ERROR


def test_cyclotomic_input_answers_from_its_kept_group(monkeypatch):
    # A ring from cyclotomic keeps its K, so its verify and, with no split,
    # its cyclotomic remainder are answered with no orbit recognition.
    ring = make_cg_ring([(3, 2, 1), (5, 1, 1)])
    A = cyclotomic(ring, sign_pair(ring))
    calls = []
    real = CGRing._subgroup_rows
    monkeypatch.setattr(CGRing, "_subgroup_rows", lambda self, K: calls.append(K) or real(self, K))
    dec = decompose_pure(A)
    assert [role for _, _, role in dec.factors] == ["cyclotomic"] and calls == []


# -- decompose_pure -----------------------------------------------------------


def test_decompose_cyclotomic_two_primes():
    # cyc({1,-1}) over Z_45 is pure: a unit orbit {u,-u} is never a
    # union of cosets of a nonzero ideal.  Nothing splits off, so the
    # whole ring comes back as one cyclotomic factor.
    ring = make_cg_ring([(3, 2, 1), (5, 1, 1)])
    A = cyclotomic(ring, sign_pair(ring))
    d = decompose_pure(A)
    assert d.kind == "PureTensor"
    assert len(d.factors) == 1
    Q, F, role = d.factors[0]
    assert Q == frozenset({3, 5})
    assert role == "cyclotomic"
    assert F == A
    assert d.certificates == ()
    assert reassemble(ring, d.factors) == A


def test_decompose_rank2_and_cyclotomic_factors():
    z9 = make_cg_ring([(3, 2, 1)])
    z25 = make_cg_ring([(5, 2, 1)])
    A = tensor(rank2(z9), cyclotomic(z25, sign_pair(z25)))
    d = decompose_pure(A)
    assert d.kind == "PureTensor"
    assert [(sorted(Q), role) for Q, _, role in d.factors] == [
        ([3], "rank2"),
        ([5], "cyclotomic"),
    ]
    assert d.factors[0][1] == rank2(z9)
    assert d.factors[1][1] == cyclotomic(z25, sign_pair(z25))
    assert [sorted(c.primes) for c in d.certificates] == [[3]]
    assert reassemble(A.ring, d.factors) == A


def test_decompose_rank2_whole_ring():
    # Rank 2 over Z_45: not a tensor over either prime (the nonzero
    # class projects onto each whole component), so the ring itself is
    # the single rank-2 factor and there is no cyclotomic part.
    ring = make_cg_ring([(3, 2, 1), (5, 1, 1)])
    A = rank2(ring)
    d = decompose_pure(A)
    assert d.kind == "PureTensor"
    assert [(sorted(Q), role) for Q, _, role in d.factors] == [([3, 5], "rank2")]
    assert d.factors[0][1] == A
    assert d.certificates == ()


def test_decompose_rank2_factor_spanning_two_primes():
    # The rank-2 factor sits over the sub-product GR(9)xGR(5), so no
    # single prime splits off; the two-prime subset does.
    z45 = make_cg_ring([(3, 2, 1), (5, 1, 1)])
    z49 = make_cg_ring([(7, 2, 1)])
    A = tensor(rank2(z45), cyclotomic(z49, sign_pair(z49)))
    d = decompose_pure(A)
    assert [(sorted(Q), role) for Q, _, role in d.factors] == [
        ([3, 5], "rank2"),
        ([7], "cyclotomic"),
    ]
    assert d.factors[0][1] == rank2(z45)
    assert reassemble(A.ring, d.factors) == A


def test_decompose_two_rank2_factors():
    z9 = make_cg_ring([(3, 2, 1)])
    z25 = make_cg_ring([(5, 2, 1)])
    A = tensor(rank2(z9), rank2(z25))
    d = decompose_pure(A)
    assert [(sorted(Q), role) for Q, _, role in d.factors] == [
        ([3], "rank2"),
        ([5], "rank2"),
    ]
    assert reassemble(A.ring, d.factors) == A


def test_decompose_rank2_over_field_absorbed():
    # Rank 2 over Z_5 is cyc(units), so it belongs to the cyclotomic
    # part rather than being peeled off: the greedy step only takes
    # rank-2 factors over non-fields.
    z5 = make_cg_ring([(5, 1, 1)])
    z9 = make_cg_ring([(3, 2, 1)])
    A = tensor(rank2(z5), cyclotomic(z9, sign_pair(z9)))
    d = decompose_pure(A)
    assert len(d.factors) == 1
    Q, F, role = d.factors[0]
    assert role == "cyclotomic"
    assert Q == frozenset({3, 5})
    assert F == A


def test_decompose_gates():
    z9 = make_cg_ring([(3, 2, 1)])
    non_pure = cyclotomic(z9, frozenset({1, 4, 7}))
    d = decompose_pure(non_pure)
    assert d.kind == "NotApplicable"
    assert "pure" in d.reason
    assert d.factors == ()

    z4 = make_cg_ring([(2, 2, 1)])
    d = decompose_pure(rank2(z4))
    assert d.kind == "NotApplicable"
    assert "even" in d.reason


def test_decomposition_doc_shape():
    z9 = make_cg_ring([(3, 2, 1)])
    z25 = make_cg_ring([(5, 2, 1)])
    A = tensor(rank2(z9), cyclotomic(z25, sign_pair(z25)))
    doc = decompose_pure(A).to_doc()
    assert doc["kind"] == "PureTensor"
    assert [f["ring"] for f in doc["factors"]] == ["GR(9)", "GR(25)"]
    assert [f["primes"] for f in doc["factors"]] == [[3], [5]]
    assert [f["role"] for f in doc["factors"]] == ["rank2", "cyclotomic"]
    assert doc["factors"][0]["classes"] == [[0], sorted(range(1, 9))]
    assert doc["certificates"] == [{"type": "tensor", "primes": [3]}]
    assert "reason" not in doc


# -- reassemble ---------------------------------------------------------------


def test_reassemble_order_independent():
    z9 = make_cg_ring([(3, 2, 1)])
    z25 = make_cg_ring([(5, 2, 1)])
    A = tensor(rank2(z9), rank2(z25))
    swapped = (
        (frozenset({5}), rank2(z25), "rank2"),
        (frozenset({3}), rank2(z9), "rank2"),
    )
    assert reassemble(A.ring, swapped) == A


def test_reassemble_rejects_bad_factor_lists():
    z9 = make_cg_ring([(3, 2, 1)])
    z25 = make_cg_ring([(5, 2, 1)])
    A = tensor(rank2(z9), rank2(z25))
    left = (frozenset({3}), rank2(z9), "rank2")
    with pytest.raises(ValueError, match="no factors"):
        reassemble(A.ring, ())
    with pytest.raises(ValueError, match="two factors"):
        reassemble(A.ring, (left, left))
    with pytest.raises(ValueError, match="miss primes \\[5\\]"):
        reassemble(A.ring, (left,))
    with pytest.raises(ValueError, match="does not match"):
        reassemble(A.ring, ((frozenset({3}), rank2(z25), "rank2"),))


def test_tensor_split_of_a_product_partition_reassembles():
    # restrict once read R_Q through ideal_ring's embed, which scales by the
    # other characteristic 4.  On this product partition, which is not a
    # Schur ring, the left factor came out as {0}, {1..6, 8}, {7} and the
    # factors did not reassemble to A.
    A1 = SRing(make_cg_ring([(3, 2, 1)]), [{0}, {1}, set(range(2, 9))])
    A2 = cyclotomic(make_cg_ring([(2, 2, 1)]), [1])
    A = tensor(A1, A2)
    split = is_tensor_over(A, {3})
    assert split.ok
    assert sorted(map(sorted, split.left.classes)) == [[0], [1], list(range(2, 9))]
    assert (split.left, split.right) == (A1, A2)
    factors = ((frozenset({3}), split.left, "rest"), (frozenset({2}), split.right, "rest"))
    assert reassemble(A.ring, factors) == A


def test_reassemble_rejects_an_empty_prime_set():
    # A factor over no primes once reached ideal_ring with the whole
    # characteristic and raised that the zero ideal carries no ring structure.
    z9 = make_cg_ring([(3, 2, 1)])
    z25 = make_cg_ring([(5, 2, 1)])
    A = tensor(rank2(z9), rank2(z25))
    left = (frozenset({3}), rank2(z9), "rank2")
    right = (frozenset({5}), rank2(z25), "rank2")
    empty = (frozenset(), rank2(z9), "rank2")
    for factors in ((empty, left, right), (left, right, empty), (empty,)):
        with pytest.raises(ValueError, match="a factor has an empty prime set"):
            reassemble(A.ring, factors)


def test_tensor_split_and_reassemble_read_kept_rows(monkeypatch):
    # Both read the projections from the kept reduction rows: no mul_row,
    # and repeated calls keep at most one row per divisor, each built once.
    ring = parse_ring_spec("GR(4,2)xGR(9)")
    A = cyclotomic(ring, ring.units())
    calls = []
    real = CGRing.mul_row
    monkeypatch.setattr(CGRing, "mul_row", lambda r, x: calls.append(x) or real(r, x))
    kept = None
    for _ in range(3):
        for Q in proper_prime_splits(ring):
            split = is_tensor_over(A, Q)
            assert split.ok
            factors = ((Q, split.left, "rest"), (frozenset(ring.primes) - Q, split.right, "rest"))
            assert reassemble(ring, factors) == A
        rows = {m: row for m, (row, _) in ring._reductions.items()}
        assert set(rows) <= set(ring.divisors())
        if kept is not None:
            assert rows.keys() == kept.keys() and all(rows[m] is kept[m] for m in rows)
        kept = rows
    assert calls == []


@pytest.mark.parametrize("primes", [({3, 7}, {2}), ({3}, {2, 5})])
def test_reassemble_rejects_foreign_primes(primes):
    # A prime outside the ring once dropped out of the component divisor,
    # and the factors reassembled without complaint.
    z9, z4 = make_cg_ring([(3, 2, 1)]), make_cg_ring([(2, 2, 1)])
    A = tensor(rank2(z9), rank2(z4))
    factors = tuple((frozenset(Q), F, "rank2") for Q, F in zip(primes, (rank2(z9), rank2(z4))))
    foreign = sorted(set().union(*primes) - {2, 3})
    with pytest.raises(ValueError, match=re.escape(f"primes {foreign} are not primes of GR(9)xGR(4)")):
        reassemble(A.ring, factors)


# -- classify_rational --------------------------------------------------------


def test_classify_wreath_over_z9():
    # Classes {0}, {3,6}, units over Z_9: ideal(3) is an A-ideal and the
    # unit class has lower ideal 3R, so (outer, inner) = (3, 3) layers.
    z9 = make_cg_ring([(3, 2, 1)])
    A = SRing(z9, [{0}, {3, 6}, {1, 2, 4, 5, 7, 8}])
    d = classify_rational(A)
    assert d.kind == "RationalWreath"
    assert d.factors == ()
    (cert,) = d.certificates
    assert (cert.outer, cert.inner, cert.nontrivial) == (3, 3, True)


def test_classify_wreath_takes_precedence():
    # rank2(GR(9)) (x) cyc(units, GR(25)) splits as a tensor with a
    # rank-2 factor, but it also layers: the unit-meeting classes have
    # lower ideal 45R and ideal(5) is an A-ideal, giving the nontrivial
    # certificate (5, 45).  The wreath branch is checked first.
    z9 = make_cg_ring([(3, 2, 1)])
    z25 = make_cg_ring([(5, 2, 1)])
    A = tensor(rank2(z9), cyclotomic(z25, frozenset(z25.units())))
    d = classify_rational(A)
    assert d.kind == "RationalWreath"
    (cert,) = d.certificates
    assert (cert.outer, cert.inner) == (5, 45)
    # Not pure (lower ideal 45R is nonzero), so the pure decomposition
    # declines the same input.
    assert decompose_pure(A).kind == "NotApplicable"


def test_classify_tensor_rank2():
    # rank2 (x) rank2 admits no nontrivial layering: every inner ideal
    # candidate collapses to the zero ideal.  The split over {3} has a
    # rank-2 left factor.
    z9 = make_cg_ring([(3, 2, 1)])
    z25 = make_cg_ring([(5, 2, 1)])
    A = tensor(rank2(z9), rank2(z25))
    d = classify_rational(A)
    assert d.kind == "RationalTensorRank2"
    assert [(sorted(Q), role) for Q, _, role in d.factors] == [
        ([3], "rank2"),
        ([5], "rest"),
    ]
    assert d.factors[0][1] == rank2(z9)
    assert d.factors[1][1] == rank2(z25)
    (split,) = d.certificates
    assert sorted(split.primes) == [3]
    assert reassemble(A.ring, d.factors) == A


def test_classify_rank2_input_is_its_own_tensor_factor():
    z5 = make_cg_ring([(5, 1, 1)])
    d = classify_rational(rank2(z5))
    assert d.kind == "RationalTensorRank2"
    assert [(sorted(Q), role) for Q, _, role in d.factors] == [([5], "rank2")]
    assert d.certificates == ()


def test_classify_field_factor_allowed():
    # Over Z_15 = Z_3 x Z_5 the orbit classes of the full unit group
    # admit no nontrivial layering (all unit-stratum classes have zero
    # lower ideal), but the {3}-factor is rank 2 over the field Z_3.
    ring = make_cg_ring([(3, 1, 1), (5, 1, 1)])
    A = cyclotomic(ring, frozenset(ring.units()))
    d = classify_rational(A)
    assert d.kind == "RationalTensorRank2"
    Q, F, role = d.factors[0]
    assert sorted(Q) == [3]
    assert F.rank == 2
    assert role == "rank2"


def test_classify_cyc_units_mixed_ring():
    # cyc(units) over GR(4,2)xGR(9): the strata outside ideal(2) are
    # R^x, 3R^x, 9R^x with lower ideals 6R, 18R, 18R, so inner = 18
    # layers over outer = 2.
    ring = make_cg_ring([(2, 2, 2), (3, 2, 1)])
    A = cyclotomic(ring, frozenset(ring.units()))
    d = classify_rational(A)
    assert d.kind == "RationalWreath"
    (cert,) = d.certificates
    assert (cert.outer, cert.inner) == (2, 18)


def test_classify_rejects_non_rational():
    z9 = make_cg_ring([(3, 2, 1)])
    A = cyclotomic(z9, frozenset({1, 4, 7}))
    dec = classify_rational(A)
    assert dec.kind == KIND_NOT_APPLICABLE
    assert dec.factors == () and dec.certificates == ()
    assert "not rational" in dec.reason


def test_classify_rational_reads_one_row_per_fixer_generator(monkeypatch):
    # The rank-2 ring over GR(4,2)xGR(9) is rational: its 12 + 6 component
    # units fix the one unit class.  The group of fixers grows by the units
    # outside it, so 4 rows are built instead of one per unit.  The ring is
    # verified first, so only the rows of the rationality check are counted.
    ring = make_cg_ring([(2, 2, 2), (3, 2, 1)])
    A = rank2(ring)
    assert A.verify().ok
    calls = []
    original = CGRing.mul_row
    monkeypatch.setattr(CGRing, "mul_row", lambda self, r: calls.append(r) or original(self, r))
    assert classify_rational(A).kind == KIND_RATIONAL_TENSOR
    units = [u for ci in range(2) for u in ring.embed_component_units(ci)]
    assert len(units) == 18
    assert calls == [19, 20, 22, 33] == list(ring.generate(units)[0])


@pytest.mark.parametrize("spec", ["GR(4,2)xGR(9)", "GR(3)xGR(5)xGR(7)"])
def test_classify_rational_witness_matches_full_scan(corpus, spec):
    # Skipping the units inside the fixer group keeps the witness: the first
    # unit that moves a unit class in a scan over every component unit.
    ring = parse_ring_spec(spec)
    inputs = [A for _, A in corpus] + [cyclotomic(ring, K) for K in kernel_subgroups(spec)]
    moved = 0
    for A in inputs:
        dec = classify_rational(A)
        witness = rational_witness_oracle(A)
        if witness is None:
            assert dec.kind != KIND_NOT_APPLICABLE
        else:
            moved += 1
            u, X = witness
            assert dec.kind == KIND_NOT_APPLICABLE
            assert dec.reason == f"the unit {u} moves the class {X}; the input is not rational"
    assert 0 < moved < len(inputs)


# -- check_nondense_structure -------------------------------------------------


def test_structure_rank2_over_nonfield():
    z9 = make_cg_ring([(3, 2, 1)])
    report = check_nondense_structure(rank2(z9))
    assert report.applicable
    assert report.wreath is None
    assert report.self_rank2
    assert report.four_way == (False, False, False, False)
    assert report.ok
    assert report.to_doc()["certificate"] == {"type": "rank2"}


def test_structure_dense_cyclotomic():
    z9 = make_cg_ring([(3, 2, 1)])
    report = check_nondense_structure(cyclotomic(z9, frozenset({1, 8})))
    assert not report.applicable
    assert report.four_way == (True, True, True, True)
    assert report.ok


def test_structure_tensor_branch():
    z9 = make_cg_ring([(3, 2, 1)])
    z25 = make_cg_ring([(5, 2, 1)])
    report = check_nondense_structure(tensor(rank2(z9), rank2(z25)))
    assert report.applicable
    assert report.wreath is None
    assert not report.self_rank2
    assert report.split is not None and sorted(report.split.primes) == [3]
    assert report.four_way == (False, False, False, False)
    assert report.ok


def test_structure_non_pure_skips_four_way():
    z9 = make_cg_ring([(3, 2, 1)])
    report = check_nondense_structure(cyclotomic(z9, frozenset({1, 4, 7})))
    assert not report.applicable
    assert report.four_way is None
    assert report.ok


def test_structure_searches_each_rank2_split_once(monkeypatch):
    # The +-1 document of GR(9)xGR(25) is dense, so only the four-way test
    # searches; the document is recognised as an orbit ring, its own dual,
    # whose search is A's.  The rank-2 tensor has no wreath, so the
    # certificate searches; the four-way test reads that split, and the
    # dual, no orbit ring, finds its own at the first split.  Each makes
    # two split tests (4 and 3 before the search was shared).
    ring, z9, z25 = (parse_ring_spec(spec) for spec in ("GR(9)xGR(25)", "GR(9)", "GR(25)"))
    cases = [SRing(ring, cyclotomic(ring, sign_pair(ring)).classes),
             tensor(rank2(z9), cyclotomic(z25, sign_pair(z25)))]
    calls = []
    real = classify.is_tensor_over
    monkeypatch.setattr(classify, "is_tensor_over",
                        lambda A, Q: calls.append(sorted(Q)) or real(A, Q))
    for A in cases:
        calls.clear()
        report = check_nondense_structure(A)
        assert report.ok and report.four_way is not None
        assert len(calls) == 2, A


# -- check_quotient_purity ------------------------------------------------------


def test_quotient_purity_z9():
    z9 = make_cg_ring([(3, 2, 1)])
    A = cyclotomic(z9, frozenset({1, 8}))
    report = check_quotient_purity(A, 3)
    assert report.applicable and report.quotient_pure and report.ok
    # m equal to the characteristic quotients by the zero ideal.
    report = check_quotient_purity(A, 9)
    assert report.applicable and report.quotient_pure and report.ok


def test_quotient_purity_two_primes():
    ring = make_cg_ring([(3, 2, 1), (5, 1, 1)])
    A = cyclotomic(ring, sign_pair(ring))
    report = check_quotient_purity(A, 15)
    assert report.applicable and report.quotient_pure and report.ok
    # 9R contains the whole 5-component, so the hypothesis J_p != R_p fails.
    report = check_quotient_purity(A, 9)
    assert not report.applicable
    assert any("5-component" in r for r in report.reasons)


def test_quotient_purity_gates():
    z8 = make_cg_ring([(2, 3, 1)])
    report = check_quotient_purity(cyclotomic(z8, frozenset({1, 7})), 4)
    assert not report.applicable and not report.ok
    assert any("even" in r for r in report.reasons)

    z9 = make_cg_ring([(3, 2, 1)])
    report = check_quotient_purity(cyclotomic(z9, frozenset({1, 4, 7})), 3)
    assert not report.applicable
    assert any("not pure" in r for r in report.reasons)

    report = check_quotient_purity(rank2(z9), 3)
    assert not report.applicable
    assert any("maximal ideal 3R" in r for r in report.reasons)
    assert any("ideal 3R is not an A-ideal" in r for r in report.reasons)


def test_even_quotient_can_lose_purity():
    # Why the evenness gate exists: over Z_8 the set {1,-1} is pure,
    # yet its image in Z_8/4R and the translate 2X are not.
    z8 = make_cg_ring([(2, 3, 1)])
    X = frozenset({1, 7})
    assert z8.lower_ideal(X) == 8
    q = quotient(z8, 4)
    image = frozenset(q.pi(x) for x in X)
    assert image == frozenset({1, 3})
    assert q.ring.lower_ideal(image) == 2
    doubled = z8.scale_set(X, 2)
    assert doubled == frozenset({2, 6})
    assert z8.lower_ideal(doubled) == 4


@pytest.mark.parametrize("K", [{1, 7}, {1, 3}], ids=["K=1,7", "K=1,3"])
def test_even_quotient_of_a_pure_sring_can_be_impure(K):
    # The same at ring level: over Z_8 the orbits of K are pure and dense,
    # yet their image in Z_8/4R is not pure, so the theorem needs odd c.
    A = cyclotomic(make_cg_ring([(2, 3, 1)]), K)
    assert A.rank == 5 and A.is_pure() and A.is_dense()
    assert not quotient_sring(A, 4).is_pure()
    report = check_quotient_purity(A, 4)
    assert not report.applicable
    assert report.reasons == ("the characteristic is even",)


# -- pure Schur rings outside the odd-characteristic theorem ----------------------


def test_gr82_pure_srings_outside_the_odd_theorem():
    # A dense census of GR(8,2) finds exactly these 8 pure rings on which
    # the pure decomposition fails without its parity gate: no rank-2
    # non-field factor splits off, no wreath layering exists, and they are
    # not the orbits of the class K of 1.
    found = gr82_exceptions()
    assert len(set(found)) == len(found)
    assert sorted(A.rank for A in found) == [7] * 4 + [11] * 4
    for A in found:
        ring = A.ring
        assert verify_sring(ring, A.classes).ok
        assert A.is_pure() and A.is_dense()
        assert dual_sring(A) == A
        assert not any(w.nontrivial for w in wreath_pairs(A))
        assert _rank2_split(A) is None
        K = A.class_containing(ring.one)
        assert len(K) == {11: 8, 7: 24}[A.rank]
        assert cyclotomic(ring, K) != A
        dec = decompose_pure(A)
        assert (dec.kind, dec.reason) == (KIND_NOT_APPLICABLE, "the characteristic is even")


# -- corpus properties ----------------------------------------------------------


def test_corpus_class_of_one_is_pure_subgroup(corpus):
    checked = 0
    for label, A in corpus:
        ring = A.ring
        a_divisors = set(A.a_ideal_divisors())
        if not A.is_pure() or not all(p in a_divisors for p in sorted(ring.primes)):
            continue
        K = A.class_containing(ring.one)
        assert all(ring.is_unit(k) for k in K), label
        assert ring._subgroup_rows(K) is not None, label
        assert ring.lower_ideal(K) == ring.char, label
        checked += 1
    assert checked >= 10


def test_corpus_dense_pure_odd_is_cyclotomic(corpus):
    checked = 0
    for label, A in corpus:
        ring = A.ring
        if ring.char % 2 == 0 or not A.is_dense() or not A.is_pure():
            continue
        K = A.class_containing(ring.one)
        assert A == cyclotomic(ring, K), label
        checked += 1
    assert checked >= 2


def test_corpus_decompose_pure_roundtrip(corpus):
    checked = 0
    for label, A in corpus:
        if A.ring.char % 2 == 0 or not A.is_pure():
            continue
        d = decompose_pure(A)
        assert d.kind == "PureTensor", label
        assert reassemble(A.ring, d.factors) == A, label
        assert {role for _, _, role in d.factors} <= {"rank2", "cyclotomic"}, label
        checked += 1
    assert checked >= 3


def test_corpus_structure_reports_ok(corpus):
    for label, A in corpus:
        report = check_nondense_structure(A)
        assert report.ok, (label, report)
