"""Product rings checked against integers mod 36 and brute-force oracles."""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from conftest import (
    KERNEL_RINGS,
    enumerate_subgroups,
    ideal_generators_oracle,
    ideal_oracle,
    is_pure_set_oracle,
    is_subgroup_oracle,
    kernel_subgroups,
    lower_ideal_oracle,
    orbit_oracle,
    orbit_partition_oracle,
    principal_units_oracle,
    project_oracle,
    run_child,
    subgroup_generated_oracle,
    truncate_oracle,
    upper_ideal_oracle,
)

from cgschur import cgring
from cgschur.cgring import (
    CGRing,
    EmptySetError,
    _orbit_labels,
    ideal_ring,
    make_cg_ring,
    parse_ring_spec,
    quotient,
)
from cgschur.construct import all_subgroups, subgroup_generated
from cgschur.galois import TABLE_LIMIT, make_galois_ring
from cgschur.sring import cyclotomic, labels


def z36_iso(ring: CGRing):
    """CRT bijection Z/36 -> GR(4) x GR(9) as index maps."""
    phi = {z: ring.from_parts((z % 4, z % 9)) for z in range(36)}
    assert len(set(phi.values())) == 36
    return phi


@pytest.fixture(scope="module")
def z36():
    return make_cg_ring([(2, 2, 1), (3, 2, 1)])


@pytest.fixture(scope="module")
def big():
    return make_cg_ring([(2, 2, 2), (3, 2, 1)])


def test_crt_oracle_arithmetic(z36):
    phi = z36_iso(z36)
    for a in range(36):
        for b in range(36):
            assert phi[(a + b) % 36] == z36.add(phi[a], phi[b])
            assert phi[(a * b) % 36] == z36.mul(phi[a], phi[b])
        assert z36.is_unit(phi[a]) == (math.gcd(a, 36) == 1)
        assert phi[(-a) % 36] == z36.neg(phi[a])


def test_crt_oracle_ideals(z36):
    phi = z36_iso(z36)
    assert z36.divisors() == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    for m in z36.divisors():
        expected = frozenset(phi[z] for z in range(36) if z % m == 0)
        assert z36.ideal(m) == expected
        assert z36.ideal_size(m) == 36 // m


def test_frozen_counts_gr42_gr9(big):
    assert big.size == 144
    assert big.char == 36
    assert big.unit_count == 72
    assert len(big.units()) == 72
    assert len(big.divisors()) == 9
    assert sorted(big.primes) == [2, 3]
    assert big.spec() == "GR(4,2)xGR(9)"
    for m in big.divisors():
        assert len(big.ideal(m)) == big.ideal_size(m)


def test_ideal_generators_generate(z36, big):
    for ring in (z36, big):
        for m in ring.divisors():
            closure = {0}
            frontier = [0]
            gens = ring.ideal_generators(m)
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = ring.add(x, g)
                    if y not in closure:
                        closure.add(y)
                        frontier.append(y)
            assert frozenset(closure) == ring.ideal(m)


def oracle_lower_ideal_z36(X: set[int]) -> int:
    qualifying = [
        m
        for m in (1, 2, 3, 4, 6, 9, 12, 18, 36)
        if all((x + m) % 36 in X for x in X)
    ]
    return math.gcd(*qualifying) if len(qualifying) > 1 else qualifying[0]


def test_lower_ideal_against_z36_oracle(z36):
    phi = z36_iso(z36)
    rng = random.Random(11)
    pool = list(range(36))
    for _ in range(200):
        X = set(rng.sample(pool, rng.randrange(1, 36)))
        mapped = frozenset(phi[x] for x in X)
        assert z36.lower_ideal(mapped) == oracle_lower_ideal_z36(X)
        g = math.gcd(*X, 36)
        assert z36.upper_ideal(mapped) == g


@pytest.mark.parametrize("spec", ["GR(4,2)xGR(9)", "GR(27)xGR(4)", "GR(2)xGR(3)xGR(5)",
                                  "GR(4)xGR(9)xGR(5)"])
def test_lower_ideal_against_oracle(spec):
    # Classes and class unions of cyclotomic rings, cosets and unions of
    # 2-3 cosets of every ideal, subsets of every ideal and random sets:
    # each lower and upper ideal equals the one found by trying every
    # ideal, and so does each unit class's kept lower ideal.  lower_ideal
    # tries a component's ideals from the minimal one upward, so the sets
    # closed under p^v R_i but not under p^(v-1) R_i, one per level of
    # every component, make the search go past the minimal ideal.
    ring = parse_ring_spec(spec)
    rng = random.Random(spec)
    units = ring.units()
    sets = []
    for gens in ([ring.one], [ring.neg(ring.one)], [rng.choice(units)], units):
        A = cyclotomic(ring, subgroup_generated(ring, gens))
        assert A.unit_lower_ideals == {k: lower_ideal_oracle(ring, A.classes[k])
                                       for k in A.unit_class_indices()}
        classes = A.classes
        sets += classes[:6]
        sets += [frozenset().union(*rng.sample(classes, rng.randint(1, len(classes))))
                 for _ in range(3)]
    for m in ring.divisors():
        for count in (1, 2, 3):
            sets.append(frozenset(ring.add(x, i) for x in rng.sample(range(ring.size), count)
                                  for i in ring.ideal(m)))
    for comp in ring.components:
        others = ring.char // comp.char
        for v in range(1, comp.n):  # p^v R_i closes the set, p^(v-1) R_i does not
            x = rng.randrange(ring.size)
            outer = {ring.add(x, i) for i in ring.ideal(others * comp.p**(v - 1))}
            X = frozenset(outer - {ring.add(x, i) for i in ring.ideal(others * comp.p**v)})
            assert ring.coset_closed(X, others * comp.p**v)
            assert not ring.coset_closed(X, others * comp.p**(v - 1))
            sets.append(X)
    sets += [frozenset(rng.sample(range(ring.size), rng.randint(1, ring.size)))
             for _ in range(10)]
    for m in ring.divisors():
        members = sorted(ring.ideal(m))
        sets.append(frozenset(rng.sample(members, rng.randint(1, min(4, len(members))))))
    for X in sets:
        assert ring.lower_ideal(X) == lower_ideal_oracle(ring, X)
        assert ring.upper_ideal(X) == upper_ideal_oracle(ring, X)


def test_empty_set_operations(z36):
    with pytest.raises(EmptySetError):
        z36.lower_ideal(frozenset())
    with pytest.raises(EmptySetError):
        z36.upper_ideal(frozenset())


def test_zero_and_full_sets():
    R = make_cg_ring([(3, 2, 1)])
    assert R.lower_ideal(frozenset({0})) == 9
    assert R.lower_ideal(frozenset(R.elements())) == 1
    assert R.lower_ideal(frozenset({3, 6})) == 9
    assert R.upper_ideal(frozenset({3, 6})) == 3
    assert R.is_pure_set(frozenset({3, 6}))
    assert not R.is_pure_set(frozenset({0, 3, 6}))


def test_quotient_z36_by_6(z36):
    q = quotient(z36, 6)
    assert q.ring.spec() == "GR(2)xGR(3)"
    assert q.ring.size == 6
    for a in range(36):
        for b in range(36):
            assert q.pi(z36.add(a, b)) == q.ring.add(q.pi(a), q.pi(b))
            assert q.pi(z36.mul(a, b)) == q.ring.mul(q.pi(a), q.pi(b))
    assert {a for a in range(36) if q.pi(a) == 0} == set(z36.ideal(6))
    assert {q.pi(a) for a in range(36)} == set(q.ring.elements())
    with pytest.raises(ValueError):
        quotient(z36, 1)


def test_quotient_drops_components(big):
    q = quotient(big, 2)
    assert q.ring.spec() == "GR(2,2)"
    assert q.ring.size == 4
    rng = random.Random(5)
    for _ in range(300):
        a, b = rng.randrange(144), rng.randrange(144)
        assert q.pi(big.add(a, b)) == q.ring.add(q.pi(a), q.pi(b))
        assert q.pi(big.mul(a, b)) == q.ring.mul(q.pi(a), q.pi(b))
    assert {q.pi(a) for a in big.elements()} == set(q.ring.elements())


def test_ideal_ring_z9():
    R = make_cg_ring([(3, 2, 1)])
    sub = ideal_ring(R, 3)
    assert sub.ring.spec() == "GR(3)"
    assert [sub.embed(y) for y in sub.ring.elements()] == [0, 3, 6]
    units = [sub.embed(y) for y in sub.ring.elements() if sub.ring.is_unit(y)]
    assert units == [3, 6]
    iota = {sub.embed(y): y for y in sub.ring.elements()}  # the inverse of embed
    for a in R.elements():
        for b in R.elements():
            # x -> 3x read in the model is a ring epimorphism
            assert iota[R.scale(R.mul(a, b), 3)] == sub.ring.mul(iota[R.scale(a, 3)],
                                                                  iota[R.scale(b, 3)])
            assert iota[R.scale(R.add(a, b), 3)] == sub.ring.add(iota[R.scale(a, 3)],
                                                                  iota[R.scale(b, 3)])
    with pytest.raises(ValueError):
        ideal_ring(R, 9)


def test_ideal_ring_mixed(big):
    sub = ideal_ring(big, 6)
    assert sub.ring.spec() == "GR(2,2)xGR(3)"
    image = {sub.embed(y) for y in sub.ring.elements()}
    assert image == set(big.ideal(6))
    iota = {sub.embed(y): y for y in sub.ring.elements()}  # the inverse of embed
    rng = random.Random(17)
    for _ in range(300):
        a, b = rng.randrange(144), rng.randrange(144)
        assert iota[big.scale(big.mul(a, b), 6)] == sub.ring.mul(iota[big.scale(a, 6)],
                                                                  iota[big.scale(b, 6)])
    for y in sub.ring.elements():
        for z in sub.ring.elements():
            assert sub.embed(sub.ring.add(y, z)) == big.add(sub.embed(y), sub.embed(z))


def test_orbit_partitions_z9():
    R = make_cg_ring([(3, 2, 1)])
    principal = frozenset({1, 4, 7})
    parts = list(cyclotomic(R, principal).classes)
    assert parts == [frozenset({0}), frozenset({1, 4, 7}), frozenset({2, 5, 8}),
                     frozenset({3}), frozenset({6})]
    units = frozenset(R.units())
    parts = list(cyclotomic(R, units).classes)
    assert parts == [frozenset({0}), frozenset({1, 2, 4, 5, 7, 8}), frozenset({3, 6})]


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_orbit_partition_matches_orbit_oracle(spec):
    ring = parse_ring_spec(spec)
    p = sorted(ring.primes)[0]
    strata = (ring.units(),  # the elements x with upper ideal 1, then p
              [x for x in ring.elements() if x and ring.upper_ideal(frozenset({x})) == p])

    for K in kernel_subgroups(spec):
        orbits = list(cyclotomic(ring, K).classes)
        assert orbits == orbit_partition_oracle(ring, K, ring.elements())
        # unit orbits stay inside a stratum: cut to it, they are its orbits
        for stratum in map(set, strata):
            assert [O for O in orbits if min(O) in stratum] == orbit_partition_oracle(
                ring, K, stratum)


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_orbit_labels_match_orbit_oracle(spec):
    # The label vector numbers the oracle's orbits in order of their least
    # member, whatever order the generators are read in.
    ring = parse_ring_spec(spec)
    for K in kernel_subgroups(spec):
        expected = [0] * ring.size
        for k, orbit in enumerate(orbit_partition_oracle(ring, K, ring.elements())):
            for x in orbit:
                expected[x] = k
        assert cyclotomic(ring, K).class_of == expected
        rows = [ring.mul_row(g) for g in reversed(ring.generate(K)[0])]
        assert _orbit_labels(ring.size, rows) == expected
    by_ideal = labels(ring.upper_ideal(frozenset({x})) for x in ring.elements())
    assert labels(ring.unit_orbit_keys()) == cyclotomic(ring, ring.units()).class_of == by_ideal


def test_unit_orbits_are_ideal_differences(big):
    units = frozenset(big.units())
    orbits = cyclotomic(big, units).classes
    by_divisor = set()
    for m in big.divisors():
        members = big.ideal(m)
        proper = frozenset().union(*(big.ideal(k) for k in big.divisors()
                                     if big.ideal_size(k) < big.ideal_size(m)))
        stratum = members - proper
        if stratum:
            by_divisor.add(stratum)
    assert set(orbits) == by_divisor


def test_subgroup_enumeration_counts(z36, big):
    R9 = make_cg_ring([(3, 2, 1)])
    assert len(enumerate_subgroups(R9)) == 4
    F4 = make_cg_ring([(2, 2, 2)])
    assert len(enumerate_subgroups(F4)) == 10
    assert len(enumerate_subgroups(z36)) == 10


def test_purity_definitions_agree(z36, big):
    for ring in (make_cg_ring([(3, 2, 1)]), make_cg_ring([(2, 2, 2)]), z36, big):
        for K in enumerate_subgroups(ring):
            assert ring._subgroup_rows(K) is not None
            assert ring.is_pure_subgroup(K) == is_pure_set_oracle(ring, K)


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_purity_matches_the_minimal_ideal_oracle(spec):
    # is_pure_set reads the lower ideal; the oracle tests the minimal
    # ideals (c/p)R alone.  Every subgroup of the units, random sets, the
    # same sets closed under one minimal ideal, and the empty set.
    ring = parse_ring_spec(spec)
    rng = random.Random(spec)
    sets = list(kernel_subgroups(spec))
    for _ in range(20):
        X = frozenset(rng.sample(range(ring.size), rng.randint(1, ring.size)))
        I = ring.ideal(ring.char // rng.choice(ring.primes))
        sets += [X, frozenset(ring.add(x, i) for x in X for i in I)]
    verdicts = [ring.is_pure_set(X) for X in sets]
    assert verdicts == [is_pure_set_oracle(ring, X) for X in sets]
    assert set(verdicts) == {False, True}
    assert not ring.is_pure_set(frozenset()) and not is_pure_set_oracle(ring, frozenset())


def test_purity_z9_cases():
    R = make_cg_ring([(3, 2, 1)])
    assert R.is_pure_subgroup(frozenset({1}))
    assert R.is_pure_subgroup(frozenset({1, 8}))
    assert not R.is_pure_subgroup(frozenset({1, 4, 7}))
    assert not R.is_pure_subgroup(frozenset(R.units()))


def test_purity_z8_cases():
    R = make_cg_ring([(2, 3, 1)])
    assert R.is_pure_subgroup(frozenset({1, 7}))
    assert not R.is_pure_subgroup(frozenset({1, 5}))
    assert R.lower_ideal(frozenset({1, 5})) == 4


def test_embedded_unit_groups(big):
    comp0 = big.embed_component_units(0)
    assert len(comp0) == 12
    assert all(big.is_unit(u) for u in comp0)
    assert all(big.parts(u)[1] == 1 for u in comp0)
    assert len(big.embed_principal_units(0)) == 4
    assert len(big.embed_principal_units(1)) == 3
    for u in big.embed_principal_units(1):
        i = big.parts(u)[1]
        assert i % 3 == 1


@pytest.mark.parametrize("spec", ["GR(4,2)xGR(9)", "GR(8,2)xGR(9)", "GR(27)xGR(4,2)"])
def test_embed_matches_unit_definitions(spec):
    ring = parse_ring_spec(spec)
    for ci, comp in enumerate(ring.components):
        units = ring.embed(ci, comp.unit_indices())
        assert units == ring.embed_component_units(ci)
        assert all(ring.is_unit(u) for u in units)
        principal = {u for u, i in zip(units, comp.unit_indices())
                     if comp.valuation(comp.sub(i, comp.one)) >= 1}
        assert set(ring.embed_principal_units(ci)) == principal
        for u, i in zip(units, comp.unit_indices()):
            parts = [1] * len(ring.components)
            parts[ci] = i
            assert u == ring.from_parts(parts)


def test_projections(z36):
    # the projection onto the 2-part is the quotient by 4R, the 3-part
    phi = z36_iso(z36)
    assert quotient(z36, 4).ring.spec() == "GR(4)"
    row, _ = z36.reduction(4)
    for z in range(36):
        assert row[phi[z]] == z % 4
    assert z36.component_divisor({2}) == 9
    assert z36.component_divisor({3}) == 4
    assert z36.component_divisor({2, 3}) == 1


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_projection_rows_match_oracle(spec):
    # The projection x -> x_Q is the kept reduction row mod the sub-product
    # outside Q, read in the model ring over Q: the parts over Q in
    # component order (the zero ring, index 0, when Q is empty).
    ring = parse_ring_spec(spec)
    for size in range(len(ring.primes) + 1):
        for Q in combinations(ring.primes, size):
            m = ring.component_divisor(set(ring.primes) - set(Q))
            kept = [ci for ci, comp in enumerate(ring.components) if comp.p in Q]
            expected = [0] * ring.size
            if kept:
                model = CGRing([ring.components[ci] for ci in kept])
                assert quotient(ring, m).ring == model
                expected = [model.from_parts([ring.parts(project_oracle(ring, x, Q))[ci]
                                              for ci in kept]) for x in ring.elements()]
            assert list(ring.reduction(m)[0]) == expected


# d > 1 with n > 2, a dropped middle component and a prime power base
MAP_RINGS = KERNEL_RINGS + ("GR(8,3)", "GR(27,2)xGR(4)", "GR(2,3)xGR(25)xGR(7)",
                            "GR(2^4,2)xGR(3)")


@pytest.mark.parametrize("spec", MAP_RINGS)
def test_map_rows_match_per_element_oracles(spec):
    # Every digit row against the per-element closures and coefficient
    # filters it replaced, for every divisor, order included.
    ring = parse_ring_spec(spec)
    elements = ring.elements()
    for m in ring.divisors():
        assert ring.ideal(m) == ideal_oracle(ring, m)
        assert ring.ideal_generators(m) == ideal_generators_oracle(ring, m)
        if m != 1:
            q = quotient(ring, m)
            target, reduce, _ = truncate_oracle(ring, ring.valuations(m))
            assert q.ring == target
            assert list(map(q.pi, elements)) == list(map(reduce, elements))
        if m != ring.char:
            sub = ideal_ring(ring, m)
            target, _, lift = truncate_oracle(
                ring, [comp.n - v for comp, v in zip(ring.components, ring.valuations(m))])
            assert sub.ring == target
            embedded = [ring.scale(lift(j), m) for j in target.elements()]
            assert list(map(sub.embed, target.elements())) == embedded
            assert set(embedded) == ring.ideal(m)
    for ci in range(len(ring.components)):
        assert ring.embed_principal_units(ci) == principal_units_oracle(ring, ci)


@pytest.mark.parametrize("spec", MAP_RINGS)
def test_unit_orbit_keys_are_divisors(spec):
    # The key of x is the divisor k with xR = kR, so x lies in mR exactly
    # when m divides it.
    ring = parse_ring_spec(spec)
    keys = ring.unit_orbit_keys()
    for m in ring.divisors():
        assert ideal_oracle(ring, m) == frozenset(x for x in ring.elements() if keys[x] % m == 0)


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_units_by_component_lists(spec):
    ring = parse_ring_spec(spec)
    assert ring.units() == tuple(a for a in ring.elements() if ring.is_unit(a))
    assert ring.unit_set() == frozenset(ring.units())


def test_parse_ring_spec_round_trip():
    for text, canon in [
        ("GR(4,2)xGR(9)", "GR(4,2)xGR(9)"),
        ("GR(2^2,2)xGR(3^2)", "GR(4,2)xGR(9)"),
        ("GR(2^2, 2) x GR(9,1)", "GR(4,2)xGR(9)"),
        ("GR(5)", "GR(5)"),
        ("GR(25)", "GR(25)"),
    ]:
        ring = parse_ring_spec(text)
        assert ring.spec() == canon
        assert parse_ring_spec(ring.spec()).components == ring.components
    for bad in ["GR(6)", "GR(4,2)y", "", "GR(2)xGR(4)", "GR(1)", "GR(4^2)"]:
        with pytest.raises(ValueError):
            parse_ring_spec(bad)
    with pytest.raises(ValueError):
        parse_ring_spec("GR(4,2)xGR(9)", max_size=100)
    for not_text in [5, None, ["GR(9)"], b"GR(9)"]:
        with pytest.raises(ValueError):
            parse_ring_spec(not_text)


def test_mul_table_matches_direct(z36):
    table = z36.mul_table()
    fresh = make_cg_ring([(2, 2, 1), (3, 2, 1)])
    for a in range(36):
        for b in range(36):
            assert table[a][b] == fresh.mul(a, b)
    huge = make_galois_ring(2, 1, 10)
    with pytest.raises(ValueError):
        CGRing([huge]).mul_table()


@pytest.mark.parametrize("spec", KERNEL_RINGS + ("GR(8)xGR(125)",))
def test_mul_row_matches_mul(spec):
    ring = parse_ring_spec(spec)
    rng = random.Random(spec)
    rows = ring.elements() if ring.size <= TABLE_LIMIT else rng.sample(ring.elements(), 40)
    for r in rows:
        assert ring.mul_row(r) == [ring.mul(r, x) for x in ring.elements()]


def test_mul_row_is_owned_by_the_caller():
    # After size**2 products, mul_row once handed out the shared table row.
    ring = parse_ring_spec("GR(4)xGR(9)")
    for a in ring.elements():
        for b in ring.elements():
            ring.mul(a, b)
    ring.mul_row(5)[7] = -1
    assert ring.mul(5, 7) == 7
    assert ring.mul_row(5)[7] == 7


def test_row_built_table_matches_mul():
    ring = parse_ring_spec("GR(27)xGR(4,2)")  # the d > 1 component is the high digit
    table = ring.mul_table()
    for a in ring.elements():
        assert table[a] == [ring.mul(a, b) for b in ring.elements()]


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_ideal_generators_are_cached(spec):
    ring = parse_ring_spec(spec)
    for m in ring.divisors():
        gens = ring.ideal_generators(m)
        assert isinstance(gens, tuple)
        assert gens == parse_ring_spec(spec).ideal_generators(m)


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_unit_generators_generate_the_units(spec):
    ring = parse_ring_spec(spec)
    gens = ring.unit_generators()
    assert gens is ring.unit_generators()  # cached
    assert subgroup_generated(ring, gens) == frozenset(ring.units())
    # greedy: no generator lies in the group generated by the earlier ones
    for k, g in enumerate(gens):
        assert g not in subgroup_generated(ring, gens[:k])


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_unit_rows_are_kept_tuples(spec):
    # The unit generator rows come from the one generate of the units; the
    # rows generate hands out are fresh lists, the kept ones tuples.
    ring = parse_ring_spec(spec)
    rows = ring.unit_rows()
    assert rows is ring.unit_rows()
    assert all(type(row) is tuple for row in rows)
    assert list(map(list, rows)) == [ring.mul_row(g) for g in ring.unit_generators()]
    handed = ring.generate(ring.units())[1]
    for row in handed:
        row[:] = [0] * len(row)
    assert ring.unit_rows() is rows
    assert ring.generate(ring.units())[1] == [ring.mul_row(g) for g in ring.unit_generators()]


def test_is_subgroup_rejects_non_units():
    # Checked first: all_subgroups used to accept {0, 1} and then never return.
    assert parse_ring_spec("GR(9)")._subgroup_rows(frozenset({0, 1})) is None
    assert parse_ring_spec("GR(3)xGR(5)")._subgroup_rows(frozenset(range(5))) is None
    with pytest.raises(ValueError, match="not a unit subgroup"):
        all_subgroups(parse_ring_spec("GR(9)"), {0, 1})


@pytest.mark.parametrize("call, element", [
    ("parse_ring_spec('GR(4)').generate([2])", 2),
    ("parse_ring_spec('GR(4)xGR(9)').generate([35, 5, 3, 0])", 3),
    ("subgroup_generated(parse_ring_spec('GR(4)'), [0])", 0),
    ("subgroup_generated(parse_ring_spec('GR(4)xGR(9)'), [35, 6])", 6),
])
def test_growth_refuses_a_non_unit(call, element):
    # generate([2]) on GR(4) never returned: the coset walk of a non-unit
    # never comes back to the group.  grow refuses the first new element
    # that is not a unit.  The calls run in a child process with a
    # timeout, so that a regression fails here instead of hanging.
    script = ("from cgschur.cgring import parse_ring_spec\n"
              "from cgschur.construct import subgroup_generated\n"
              f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)\n")
    child = run_child("-c", script, timeout=60)
    assert child.stdout == f"element {element} is not a unit\n", child.stderr


def test_extend_subgroup_refuses_a_non_unit_row():
    # The coset walk of a non-unit never returns to the group; it stops
    # after |R|/|H| steps, more than the order of any unit modulo H.
    script = ("from cgschur.cgring import parse_ring_spec\n"
              "ring = parse_ring_spec('GR(4)')\n"
              "try:\n    ring.extend_subgroup(frozenset({1}), ring.mul_row(2))\n"
              "except ValueError as exc:\n    print(exc)\n")
    child = run_child("-c", script, timeout=60)
    assert "not that of a unit" in child.stdout, child.stderr
    ring = parse_ring_spec("GR(4)xGR(9)")
    for g in ring.units():
        H = ring.extend_subgroup(frozenset({ring.one}), ring.mul_row(g))
        assert H == subgroup_generated_oracle(ring, [g])


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_generate_matches_oracles(spec):
    ring = parse_ring_spec(spec)
    rng = random.Random(spec)
    units = ring.units()
    gens, rows, group = ring.generate(units)
    assert group == frozenset(units)
    assert rows == [ring.mul_row(g) for g in gens]
    for _ in range(20):
        gens = rng.sample(units, rng.randrange(4))
        assert subgroup_generated(ring, gens) == subgroup_generated_oracle(ring, gens)
    subgroups = kernel_subgroups(spec)
    assert all(ring._subgroup_rows(K) is not None and is_subgroup_oracle(ring, K)
               for K in subgroups)
    verdicts = set()
    for _ in range(20):
        K = rng.choice(subgroups)
        for S in (frozenset(rng.sample(units, rng.randrange(1, len(units) + 1))),
                  K | {rng.choice(units)},  # K, or K and one more unit
                  K - {rng.choice(units)}):  # K, or K less one unit
            verdicts.add(ring._subgroup_rows(S) is not None)
            assert (ring._subgroup_rows(S) is not None) == is_subgroup_oracle(ring, S)
    assert verdicts == {True, False}


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_orbit_representatives_partition_the_ring(spec):
    ring = parse_ring_spec(spec)
    reps = ring.orbit_representatives()
    assert len(reps) == len(ring.divisors())
    orbits = [orbit_oracle(ring, ring.units(), r) for r in reps]
    assert sum(map(len, orbits)) == ring.size
    assert frozenset().union(*orbits) == frozenset(ring.elements())
    for m, orbit in zip(ring.divisors(), orbits):
        assert all(ring.upper_ideal(frozenset({x})) == m for x in orbit if x)


def test_scale_is_repeated_addition(big):
    rng = random.Random(3)
    for _ in range(100):
        a = rng.randrange(big.size)
        k = rng.randrange(8)
        total = 0
        for _ in range(k):
            total = big.add(total, a)
        assert big.scale(a, k) == total


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_coset_closed_matches_add_oracle(spec):
    # coset_closed reads kept reduction rows; the oracle adds every ideal
    # member with CGRing.add.  Every divisor, on random sets, unions of
    # ideal cosets and the unit classes of every cyclotomic ring.
    ring = parse_ring_spec(spec)
    rng = random.Random(spec)
    elements = list(ring.elements())
    sets = {frozenset(rng.sample(elements, rng.randint(1, ring.size))) for _ in range(10)}
    for m in ring.divisors():
        cosets = sorted({frozenset(ring.add(x, i) for i in ring.ideal(m)) for x in elements},
                        key=min)
        sets |= {frozenset().union(*rng.sample(cosets, rng.randint(1, len(cosets))))
                 for _ in range(3)}
    units = set(ring.units())
    for K in kernel_subgroups(spec):
        sets |= {X for X in cyclotomic(ring, K).classes if X & units}
    for X in sorted(sets, key=sorted):
        closed = [m for m in ring.divisors()
                  if all(ring.add(x, i) in X for x in X for i in ring.ideal(m))]
        assert [m for m in ring.divisors() if ring.coset_closed(X, m)] == closed
        assert ring.lower_ideal(X) == max(closed, key=lambda m: len(ring.ideal(m)))
        assert ring.is_pure_set(X) == is_pure_set_oracle(ring, X)
    # at most one kept reduction per divisor
    assert set(ring._reductions) <= set(ring.divisors())


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_reductions_match_truncate_oracle(spec):
    # The one coset map: x -> x mod mR as an index of R/mR, and |mR|, for
    # every divisor; m = 1 reads all zero and m = c the identity.
    ring = parse_ring_spec(spec)
    elements = ring.elements()
    for m in ring.divisors():
        row, size = ring.reduction(m)
        assert type(row) is tuple and size == ring.ideal_size(m)
        assert ring.reduction(m) is ring.reduction(m)
        if m == 1:
            assert row == (0,) * ring.size
        else:
            reduce = truncate_oracle(ring, ring.valuations(m))[1]
            assert list(row) == list(map(reduce, elements))
    assert ring.reduction(ring.char)[0] == tuple(elements)


@pytest.mark.parametrize("spec", KERNEL_RINGS)
def test_quotient_reads_the_kept_reduction(spec, monkeypatch):
    # Once the reduction row by m is kept, quotient(ring, m) builds no row:
    # pi is that row read, and the target ring is all else it makes.
    ring = parse_ring_spec(spec)
    calls = []
    counted = cgring.mixed_radix_sum
    monkeypatch.setattr(cgring, "mixed_radix_sum", lambda rows: calls.append(1) or counted(rows))
    for m in ring.divisors()[1:]:
        row = ring.reduction(m)[0]
        before = len(calls)
        q = quotient(ring, m)
        assert len(calls) == before, m
        assert list(map(q.pi, ring.elements())) == list(row)


def test_orbit_partition_rejects_non_subgroups():
    # A non-unit such as 3 in GR(9) once sent the coset walk round forever.
    ring = parse_ring_spec("GR(9)")
    for K in ({1, 3}, {8}, {1, 2}, {0, 1}):
        with pytest.raises(ValueError, match="subgroup of the units"):
            cyclotomic(ring, K)
