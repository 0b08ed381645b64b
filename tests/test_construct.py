"""Construction and subgroup machinery tests.

Frozen instance values (rank, class sizes, group orders) were derived
by independent stratum-by-stratum orbit counting: the unit group splits
into three orbits of 24, and the eight non-unit strata contribute
orbits 18, 12+12, 12, 6, 6, 3, 2, 1 at (2,2,3,1).  Fiber products are
recomputed here from first-principles discrete logs.
"""

from __future__ import annotations

import pytest

from cgschur.cgring import parse_ring_spec
from cgschur.construct import (
    ALL_SUBGROUPS_LIMIT,
    ConstructionError,
    SubdirectSpec,
    _orbits_agree,
    _principal_decomposition,
    all_subgroups,
    build_nonpure_dense_sring,
    subdirect,
    subgroup_generated,
)
from cgschur.sring import has_nontrivial_wreath
from conftest import enumerate_subgroups, orbit_partition_oracle, principal_decomposition_oracle


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
    # rows for the 72 units of GR(4,2)xGR(9).
    ring = parse_ring_spec("GR(4,2)xGR(9)")
    units = frozenset(ring.units())
    generator_rows = len(ring.generate(units)[0])  # is_subgroup's one generate
    calls = []
    real = ring.mul_row
    monkeypatch.setattr(ring, "mul_row", lambda r: calls.append(r) or real(r))
    found = all_subgroups(ring, ring.units())
    assert len(calls) <= len(units) + generator_rows
    assert found == sorted(enumerate_subgroups(ring), key=lambda H: (len(H), sorted(H)))
    assert len(found) == 96


def test_all_subgroups_rejections(z9):
    big = parse_ring_spec("GR(3^6)")
    assert len(big.units()) == 486 > ALL_SUBGROUPS_LIMIT
    with pytest.raises(ValueError, match="exceeds the limit"):
        all_subgroups(big, big.units())
    with pytest.raises(ValueError):
        all_subgroups(z9, {1, 2, 5})


def test_subdirect_trivial_target_is_direct_product(z9):
    spec = SubdirectSpec(frozenset({1, 8}), frozenset({1, 4, 7}), 1,
                         {1: 0, 8: 0}, {1: 0, 4: 0, 7: 0})
    assert subdirect(z9, spec) == frozenset(z9.units())


def test_subdirect_diagonal(z9):
    group = frozenset({1, 4, 7})
    logs = {1: 0, 4: 1, 7: 2}
    fiber = subdirect(z9, SubdirectSpec(group, group, 3, logs, logs))
    # the diagonal {t*t : t in the group} is the group itself
    assert fiber == group


def test_subdirect_rejections(z9):
    group = frozenset({1, 4, 7})
    logs = {1: 0, 4: 1, 7: 2}
    with pytest.raises(ValueError):
        subdirect(z9, SubdirectSpec(group, frozenset({1}), 3, logs, {1: 0}))
    with pytest.raises(ValueError):
        subdirect(z9, SubdirectSpec(group, group, 3, {1: 0, 4: 1, 7: 1}, logs))
    with pytest.raises(ValueError):
        subdirect(z9, SubdirectSpec(group, group, 3, {1: 0, 4: 1}, logs))


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


def test_orbits_agree_matches_per_stratum_orbits():
    # The stratum checks cut one orbit partition of R per group; the oracle
    # takes the orbits of each stratum separately, as the checks once did.
    instance, _, _ = build_nonpure_dense_sring(2, 2, 3, 1)
    ring = instance.ring
    left, right = ring.components
    stratum = [(left.valuation(a), right.valuation(b))
               for a, b in map(ring.parts, ring.elements())]
    groups = (instance.full_group, instance.units_group, instance.nonunits_group)
    partitions = [ring.orbit_partition(G) for G in groups]
    verdicts = set()
    for cell in sorted(set(stratum)):
        carrier = [x for x in ring.elements() if stratum[x] == cell]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            oracle = (orbit_partition_oracle(ring, groups[i], carrier)
                      == orbit_partition_oracle(ring, groups[j], carrier))
            assert _orbits_agree([partitions[i], partitions[j]], stratum, {cell}) == oracle
            verdicts.add(oracle)
    assert verdicts == {True, False}
