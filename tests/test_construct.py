"""Construction and subgroup machinery tests.

Frozen instance values (rank, class sizes, group orders) were derived
by independent stratum-by-stratum orbit counting: the unit group splits
into three orbits of 24, and the eight non-unit strata contribute
orbits 18, 12+12, 12, 6, 6, 3, 2, 1 at (2,2,3,1).  Fiber products are
recomputed here from first-principles discrete logs, pair by pair.
"""

from __future__ import annotations

import pytest

from cgschur import construct
from cgschur.cgring import CGRing, parse_ring_spec
from cgschur.construct import (
    ALL_SUBGROUPS_LIMIT,
    _orbits_agree,
    _principal_decomposition,
    all_subgroups,
    build_nonpure_dense_sring,
    subgroup_generated,
)
from cgschur.galois import DEFAULT_MAX_RING_SIZE
from cgschur.sring import cyclotomic, has_nontrivial_wreath
from conftest import (
    all_subgroups_oracle,
    cyclic_log_oracle,
    enumerate_subgroups,
    fiber_product_oracle,
    orbit_partition_oracle,
    principal_decomposition_oracle,
)


def test_subgroup_generated_basics(z9, z36):
    assert subgroup_generated(z9, []) == {1}
    assert subgroup_generated(z9, [8]) == {1, 8}
    assert subgroup_generated(z9, [4, 8]) == {1, 2, 4, 5, 7, 8}
    assert subgroup_generated(z36, []) == {z36.one}
    with pytest.raises(ValueError):
        subgroup_generated(z9, [3])
    for bad in (-1, 9, True, 1.0, "1"):
        with pytest.raises(ValueError):
            subgroup_generated(z9, [bad])


def test_subgroup_generated_is_smallest_enclosing(z36):
    groups = enumerate_subgroups(z36)
    for gens in ([z36.one], [35], [z36.one, 35], sorted(z36.units())[:2]):
        generated = subgroup_generated(z36, gens)
        enclosing = [H for H in groups if set(gens) <= H]
        assert generated == min(enclosing, key=len)


def test_all_subgroups_counts(z9, z36):
    cases = [(z9, 4), (parse_ring_spec("GR(4,2)"), 10), (z36, 10)]
    cases += [(parse_ring_spec(spec), expected) for spec, expected in
              (("GR(8)xGR(9)", 32), ("GR(8,2)", 54), ("GR(4,2)xGR(9)", 96))]
    for ring, expected in cases:
        found = all_subgroups(ring, ring.units())
        assert len(found) == expected
        assert set(found) == set(enumerate_subgroups(ring))
        assert found == sorted(found, key=lambda H: (len(H), sorted(H)))


def test_all_subgroups_reads_each_row_once(monkeypatch):
    # all_subgroups once built mul_row(g) per subgroup and coset: 1,031
    # rows for the 72 units of GR(4,2)xGR(9); then one row per member of
    # G, 76 there and 244 on GR(4,4).  By Sylow parts it reads one row
    # per member of each G_p, 8 + 9 and 16 + 3 + 5, and the generators'.
    # The brute-force oracle takes about 50 s on GR(4,4), the closure oracle 0.2 s.
    for spec, bound, count, oracle in (
            ("GR(4,2)xGR(9)", 30, 96,
             lambda ring: sorted(enumerate_subgroups(ring), key=lambda H: (len(H), sorted(H)))),
            ("GR(4,4)", 40, 268, lambda ring: all_subgroups_oracle(ring, ring.units()))):
        ring = parse_ring_spec(spec)
        calls = []
        real = ring.mul_row
        monkeypatch.setattr(ring, "mul_row", lambda r: calls.append(r) or real(r))
        found = all_subgroups(ring, ring.units())
        assert len(calls) <= bound, spec
        assert found == oracle(ring)
        assert len(found) == count


@pytest.mark.parametrize("spec", ["GR(4,4)", "GR(16,2)", "GR(2,8)", "GR(121)",
                                  "GR(9)xGR(25)", "GR(8)xGR(9)xGR(5)"])
def test_all_subgroups_match_the_oracle(spec):
    # The products of Sylow subgroups are the closure's subgroups, in its
    # order, for the unit group and for proper subgroups given as group.
    ring = parse_ring_spec(spec)
    found = all_subgroups(ring, ring.units())
    assert found == all_subgroups_oracle(ring, ring.units())
    for K in (found[len(found) // 3], found[2 * len(found) // 3], found[-2]):
        assert all_subgroups(ring, K) == all_subgroups_oracle(ring, K)


def test_all_subgroups_closed_form_counts():
    # GR(4,4): Z15 x Z2^4 has 4 * 67 subgroups (tau(15) times the 67
    # subspaces of F2^4); the cyclic unit groups of GR(2,8) and GR(121)
    # have tau(255) = tau(110) = 8; GR(9)xGR(25) has Z2xZ4 x Z3 x Z5,
    # 8 * 2 * 2 = 32.
    for spec, count in (("GR(4,4)", 268), ("GR(2,8)", 8), ("GR(121)", 8), ("GR(9)xGR(25)", 32)):
        ring = parse_ring_spec(spec)
        assert len(all_subgroups(ring, ring.units())) == count, spec


@pytest.mark.parametrize("group, member", [([True], "True"), ([1.0], "1.0"),
                                           ([1, 8, 8.0], "8.0")])
def test_all_subgroups_checks_each_member(z9, group, member):
    # True once passed as 1, 1.0 raised TypeError, and 8.0 hid behind 8.
    with pytest.raises(ValueError, match=rf"group member {member} is not an element index"):
        all_subgroups(z9, group)


def test_all_subgroups_rejections(z9):
    big = parse_ring_spec("GR(3^6)")
    assert len(big.units()) == 486 > ALL_SUBGROUPS_LIMIT
    with pytest.raises(ValueError, match="exceeds the limit"):
        all_subgroups(big, big.units())
    with pytest.raises(ValueError):
        all_subgroups(z9, {1, 2, 5})


@pytest.mark.parametrize("args", [(2, 2, 3, 1), (3, 1, 2, 2), (2, 3, 7, 1)],
                         ids=["2231", "3122", "2371"])
def test_links_are_the_fiber_products(args):
    # Each link couples an order-r torsion group on one side with the cyclic
    # principal factor on the other, both sent onto Z/r with generator 1.
    instance, _built, report = build_nonpure_dense_sring(*args)
    ring, one = instance.ring, instance.ring.one
    left_gen, right_gen = (principal_decomposition_oracle(ring, ci)[2] for ci in (0, 1))
    for link, modulus, (left, g), (right, h) in (
            (instance.units_link, instance.q,
             (instance.left_torsion, min(instance.left_torsion - {one})),
             (instance.right_cyclic, right_gen)),
            (instance.nonunits_link, instance.p,
             (instance.left_cyclic, left_gen),
             (instance.right_torsion, min(instance.right_torsion - {one})))):
        map_left = cyclic_log_oracle(ring, g, modulus)
        map_right = cyclic_log_oracle(ring, h, modulus)
        assert set(map_left) == left and set(map_right) == right
        assert link == fiber_product_oracle(ring, map_left, map_right, modulus)
        assert len(link) == modulus
    # (2,3,7,1) is GR(4,3)xGR(49), the first instance with d = 3
    assert report.ok, report.to_doc()


@pytest.mark.parametrize("args", [(2, 2, 3, 1), (3, 2, 2, 2)], ids=["2231", "3222"])
def test_build_reads_few_rows(args, monkeypatch):
    # The fiber products once read a mul_row per member of a link factor,
    # and the group product one per member of the units group: 89 and 177
    # rows on these two instances in a fresh process.
    calls = []
    real = CGRing.mul_row
    monkeypatch.setattr(CGRing, "mul_row", lambda ring, r: calls.append(r) or real(ring, r))
    _instance, _built, report = build_nonpure_dense_sring(*args)
    assert report.ok
    assert len(calls) <= 60


@pytest.mark.parametrize("args, expected", [
    ((2, 2, 3, 1), [{4, 6, 9, 12, 18, 36}, {3}, {2}]),
    ((3, 1, 2, 2), [{4, 6, 9, 12, 18, 36}, {2}, {3}]),
], ids=["2231", "3122"])
def test_build_checks_the_pinned_strata(args, expected, monkeypatch):
    # The unit-orbit key is the divisor m with xR = mR.  The deep strata
    # are the divisors of 36 other than 1, p and q; then the stratum of q
    # times units and of p times units.  On correct inputs every check
    # holds for other cells too, so only the cells passed can pin them.
    cells = []
    real = construct._orbits_agree
    monkeypatch.setattr(construct, "_orbits_agree",
                        lambda vectors, keys, c: cells.append(set(c)) or real(vectors, keys, c))
    _instance, _built, report = build_nonpure_dense_sring(*args)
    assert report.ok
    assert cells == expected


CHECK_NAMES = [
    "partition_axioms", "dense", "not_pure", "lower_ideal",
    "no_nontrivial_wreath", "units_group_order", "nonunits_group_order",
    "units_group_lower_ideal", "nonunits_group_lower_ideal",
    "group_product", "intersection_order", "deep_strata_orbits",
    "q_stratum_orbits", "p_stratum_orbits",
]


def test_build_2231():
    instance, built, report = build_nonpure_dense_sring(2, 2, 3, 1)
    assert built.ring.spec() == "GR(4,2)xGR(9)"
    assert built.rank == 12
    assert sorted(len(X) for X in built.classes) == [
        1, 2, 3, 6, 6, 12, 12, 12, 18, 24, 24, 24]
    assert len(instance.units_group) == 24
    assert len(instance.nonunits_group) == 36
    assert len(instance.full_group) == 72
    assert len(instance.units_link) == 3
    assert len(instance.nonunits_link) == 2
    assert built.lower_ideal() == 18
    assert built.is_dense() and not built.is_pure()
    assert report.ok
    assert [c.name for c in report.checks] == CHECK_NAMES
    doc = report.to_doc()
    assert doc["ok"] and len(doc["checks"]) == len(CHECK_NAMES)


def test_build_2231_deterministic():
    first = build_nonpure_dense_sring(2, 2, 3, 1)
    second = build_nonpure_dense_sring(2, 2, 3, 1)
    assert first[1] == second[1]
    assert first[0].to_doc() == second[0].to_doc()


def test_build_3122_mirrored():
    instance, built, report = build_nonpure_dense_sring(3, 1, 2, 2)
    assert built.ring.spec() == "GR(9)xGR(4,2)"
    assert built.rank == 12
    assert sorted(len(X) for X in built.classes) == [
        1, 2, 3, 6, 6, 6, 6, 6, 12, 24, 36, 36]
    assert len(instance.units_group) == 36
    assert len(instance.nonunits_group) == 24
    assert len(instance.full_group) == 72
    assert built.lower_ideal() == 12
    assert report.ok


def test_build_3222_third_instance():
    # the paper's third instance, over GR(9,2) x GR(4,2): 1296 elements
    _instance, built, report = build_nonpure_dense_sring(3, 2, 2, 2)
    assert report.ok, report.to_doc()
    assert built.ring.size == 1296
    assert built.is_dense()
    assert not built.is_pure()
    assert not has_nontrivial_wreath(built)


def test_build_rejections():
    with pytest.raises(ValueError):
        build_nonpure_dense_sring(2, 1, 3, 1)  # 3 does not divide 2^1 - 1
    with pytest.raises(ValueError):
        build_nonpure_dense_sring(2, 2, 2, 1)
    with pytest.raises(ValueError):
        build_nonpure_dense_sring(4, 1, 3, 1)
    with pytest.raises(ValueError):
        build_nonpure_dense_sring(2, 0, 3, 1)
    with pytest.raises(ValueError):
        build_nonpure_dense_sring(2, 5, 31, 1)  # hypotheses hold, size gated
    with pytest.raises(ValueError):
        build_nonpure_dense_sring(2, 2, 3, 1, max_size=100)


def test_build_rejects_p_not_dividing_the_right_teichmuller_order():
    # q = 2 divides 3^2 - 1, but p = 3 does not divide 2^1 - 1
    with pytest.raises(ValueError, match=r"^3 does not divide 2\^1 - 1 = 1$"):
        build_nonpure_dense_sring(3, 2, 2, 1)


def test_build_passes_its_size_limit_to_the_ring(monkeypatch):
    # GR(4,8)xGR(25) has 1,638,400 elements: within a raised limit of
    # 2,000,000, but the ring was once built under the default 2^20.
    seen = []

    def spy(components, max_size=DEFAULT_MAX_RING_SIZE):
        seen.append(max_size)
        raise ValueError("no ring built")

    monkeypatch.setattr(construct, "make_cg_ring", spy)
    with pytest.raises(ValueError, match="no ring built"):
        build_nonpure_dense_sring(2, 8, 5, 1, max_size=2_000_000)
    assert seen == [2_000_000]


def test_units_link_recomputed_from_discrete_logs():
    instance, _, _ = build_nonpure_dense_sring(2, 2, 3, 1)
    ring = instance.ring
    # order-3 torsion supported on the left component
    torsion = frozenset(
        x for x in ring.units()
        if ring.parts(x)[1] == 1 and ring.mul(ring.mul(x, x), x) == ring.one)
    assert torsion == instance.left_torsion and len(torsion) == 3
    principal = frozenset(
        x for x in ring.units()
        if ring.parts(x)[0] == 1 and (ring.parts(x)[1] - 1) % 3 == 0)
    assert principal == instance.right_cyclic and len(principal) == 3
    t, u = min(torsion - {ring.one}), min(principal - {ring.one})
    log_t, log_u, x, y = {}, {}, ring.one, ring.one
    for k in range(3):
        log_t[x], log_u[y] = k, k
        x, y = ring.mul(x, t), ring.mul(y, u)
    link = frozenset(ring.mul(a, b) for a in torsion for b in principal
                     if log_t[a] == log_u[b])
    assert link == instance.units_link


def test_principal_decomposition_is_direct():
    instance, _, _ = build_nonpure_dense_sring(2, 2, 3, 1)
    ring = instance.ring
    assert len(instance.left_principal) == 4
    assert len(instance.left_cyclic) == len(instance.left_complement) == 2
    assert instance.left_cyclic & instance.left_complement == {ring.one}
    product = {ring.mul(a, b) for a in instance.left_cyclic
               for b in instance.left_complement}
    assert product == instance.left_principal
    assert instance.right_cyclic == instance.right_principal
    assert instance.right_complement == {ring.one}
    doc = instance.to_doc()
    assert doc["p"] == 2 and doc["ring"] == "GR(4,2)xGR(9)"
    assert doc["units_group"] == sorted(instance.units_group)


@pytest.mark.parametrize("spec", ["GR(4,2)xGR(9)", "GR(9,2)xGR(4,2)", "GR(4,3)xGR(25)",
                                  "GR(49)xGR(4,4)", "GR(4,5)"])
def test_principal_decomposition_matches_linear_algebra(spec):
    # For n = 2, 1 + p*a -> a mod p is an isomorphism onto F_p^d, so a unit
    # outside the group generated so far is a log outside the span so far.
    ring = parse_ring_spec(spec)
    components = [ci for ci, comp in enumerate(ring.components) if comp.n == 2]
    assert components
    for ci in components:
        *parts, picks = principal_decomposition_oracle(ring, ci)
        assert _principal_decomposition(ring, ci) == tuple(parts)
        gen = parts[2]
        assert list(ring.generate([gen, *ring.embed_principal_units(ci)])[0]) == [gen, *picks]


def test_build_grows_each_group_once(monkeypatch):
    # The three groups were grown by subgroup_generated, again for their
    # orbit vectors, and the units group a third time for its generator
    # rows in the group_product check.
    def refuse(*args):
        raise AssertionError("a group was grown again")

    monkeypatch.setattr(construct, "subgroup_generated", refuse)
    grown, real = [], CGRing.generate

    def generate(ring, elements):
        out = real(ring, elements)
        if elements is not ring.units():  # not the ring's own unit_generators
            grown.append(out[2])
        return out

    monkeypatch.setattr(CGRing, "generate", generate)
    instance, built, report = build_nonpure_dense_sring(2, 2, 3, 1)
    assert report.ok, report.to_doc()
    assert built.rank == 12
    assert len(grown) == len(set(grown))
    for G in (instance.units_group, instance.nonunits_group, instance.full_group,
              instance.units_link, instance.nonunits_link):
        assert grown.count(G) == 1


def test_orbits_agree_matches_per_stratum_orbits():
    # The stratum checks cut one orbit label vector of R per group; the
    # oracle takes the orbits of each stratum separately, as the checks
    # once did.
    instance, _, _ = build_nonpure_dense_sring(2, 2, 3, 1)
    ring = instance.ring
    left, right = ring.components
    keys = ring.unit_orbit_keys()
    groups = (instance.full_group, instance.units_group, instance.nonunits_group)
    vectors = [cyclotomic(ring, G).class_of for G in groups]
    verdicts = set()
    for x in ring.elements():
        a, b = ring.parts(x)
        assert keys[x] == 2**left.valuation(a) * 3**right.valuation(b)
    for cell in sorted(set(keys)):
        carrier = [x for x in ring.elements() if keys[x] == cell]
        orbits = [orbit_partition_oracle(ring, G, carrier) for G in groups]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            oracle = orbits[i] == orbits[j]
            assert _orbits_agree([vectors[i], vectors[j]], keys, {cell}) == oracle
            verdicts.add(oracle)
        assert _orbits_agree(vectors, keys, {cell}) == (orbits[0] == orbits[1] == orbits[2])
    assert verdicts == {True, False}
