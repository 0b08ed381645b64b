"""Unit subgroup machinery and the two-sided orbit construction.

Over GR(p^2,d) x GR(q^2,e) with interlocking primes (q divides p^d - 1
and p divides q^e - 1), classes are assembled from the orbits of two
unit subgroups: one acting on the units, the other on the non-units.
Each group couples a torsion part on one side with a principal-unit
part on the other through a fiber product, which is what makes the
result dense but not pure while admitting no nontrivial wreath
decomposition.  Every identity the design relies on is re-verified
exactly on each build, and the returned report records every check.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

from .cgring import CGRing, make_cg_ring
from .galois import is_prime
from .sring import SRing, has_nontrivial_wreath, verify_sring

DEFAULT_MAX_CONSTRUCT_SIZE = 100_000
ALL_SUBGROUPS_LIMIT = 256  # the largest group all_subgroups enumerates


class ConstructionError(RuntimeError):
    """A verified identity failed, contradicting the construction's design."""


# -- subgroup plumbing ---------------------------------------------------------


def subgroup_generated(ring: CGRing, gens: Iterable[int]) -> frozenset[int]:
    """The unit group the generators generate, grown by CGRing.generate."""
    gens = list(gens)
    for g in gens:
        if not ring.is_element(g):
            raise ValueError(f"generator {g!r} is not an element index of {ring.spec()}")
        if not ring.is_unit(g):
            raise ValueError(f"element {g} is not a unit")
    return ring.generate(gens)[2]


def all_subgroups(ring: CGRing, group: Iterable[int]) -> list[frozenset[int]]:
    """Every subgroup of an abelian unit group, by closure over extensions.

    The closure runs on positions in the group's own product table, one
    mul_row per member cut to the group: |G|**2 entries, never |G| rows
    of |R|.  Every g' in H*g gives the same <H, g'>, so H is extended once
    per coset outside it, by CGRing.extend_subgroup along the row of g.
    """
    members = frozenset(group)
    if len(members) > ALL_SUBGROUPS_LIMIT:
        raise ValueError(f"group of order {len(members)} exceeds the limit {ALL_SUBGROUPS_LIMIT}")
    if not ring.is_subgroup(members):
        raise ValueError("not a unit subgroup")
    elements = sorted(members)
    position = {g: i for i, g in enumerate(elements)}
    table = [[position[row[h]] for h in elements] for row in map(ring.mul_row, elements)]
    trivial = frozenset({position[ring.one]})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        H = frontier.pop()
        done = set(H)
        for g, row in enumerate(table):
            if g in done:
                continue
            done.update(row[x] for x in H)
            bigger = ring.extend_subgroup(H, row)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    subgroups = sorted(found, key=lambda H: (len(H), sorted(H)))
    found.clear()
    for k, H in enumerate(subgroups):  # positions keep the order of elements
        subgroups[k] = frozenset(map(elements.__getitem__, H))
    return subgroups


class SubdirectSpec(NamedTuple):
    left: frozenset[int]
    right: frozenset[int]
    modulus: int
    map_left: dict[int, int]
    map_right: dict[int, int]


def _check_epimorphism(ring: CGRing, group: frozenset[int],
                       mapping: dict[int, int], modulus: int, side: str) -> None:
    if set(mapping) != set(group):
        raise ValueError(f"{side} map is not defined on exactly its group")
    for x in group:
        row = ring.mul_row(x)
        for y in group:
            if mapping[row[y]] != (mapping[x] + mapping[y]) % modulus:
                raise ValueError(f"{side} map is not a homomorphism")
    if set(mapping.values()) != set(range(modulus)):
        raise ValueError(f"{side} map is not onto the cyclic group of order {modulus}")


def subdirect(ring: CGRing, spec: SubdirectSpec) -> frozenset[int]:
    """Fiber product of two unit subgroups over a common cyclic quotient."""
    _check_epimorphism(ring, spec.left, spec.map_left, spec.modulus, "left")
    _check_epimorphism(ring, spec.right, spec.map_right, spec.modulus, "right")
    fiber = frozenset(
        row[v]
        for u, row in zip(spec.left, map(ring.mul_row, spec.left)) for v in spec.right
        if spec.map_left[u] == spec.map_right[v]
    )
    if len(fiber) * spec.modulus != len(spec.left) * len(spec.right):
        raise ConstructionError("fiber product collapsed; the factors overlap")
    return fiber


def _cyclic_epimorphism(ring: CGRing, gen: int, order: int,
                        modulus: int) -> dict[int, int]:
    if order % modulus:
        raise ValueError("target order must divide the group order")
    out: dict[int, int] = {}
    row = ring.mul_row(gen)
    x = ring.one
    for k in range(order):
        out[x] = k % modulus
        x = row[x]
    if x != ring.one:
        raise ValueError(f"generator order is not {order}")
    return out


# -- component subgroups, embedded globally ------------------------------------


def _torsion_subgroup(ring: CGRing, ci: int, order: int) -> frozenset[int]:
    """The unique order-`order` subgroup of a component's Teichmuller group."""
    comp = ring.components[ci]
    members = [t for t in comp.teichmuller_group() if comp.pow(t, order) == comp.one]
    if len(members) != order:
        raise ConstructionError(f"no unique torsion subgroup of order {order}")
    return frozenset(ring.embed(ci, members))


def _principal_decomposition(
    ring: CGRing, ci: int
) -> tuple[frozenset[int], frozenset[int], int]:
    """Split 1 + pR of one component into a distinguished cyclic direct
    factor and a complement.

    For squared characteristic the principal units form an elementary
    abelian group, so every cyclic factor has order p; the generator is
    the least nontrivial element, and the complement is completed
    greedily in the same order by generate, which makes the output
    deterministic.
    """
    principal = ring.embed_principal_units(ci)
    gen = next(x for x in principal if x != ring.one)
    complement_gens = ring.generate([gen, *principal])[0][1:]
    cyclic = subgroup_generated(ring, [gen])
    complement = subgroup_generated(ring, complement_gens)
    if len(cyclic) * len(complement) != len(principal) or (cyclic & complement) != {ring.one}:
        raise ConstructionError("principal unit decomposition is not direct")
    return cyclic, complement, gen


# -- the construction ----------------------------------------------------------


class ConstructionInstance(NamedTuple):
    p: int
    d: int
    q: int
    e: int
    ring: CGRing
    left_torsion: frozenset[int]
    right_torsion: frozenset[int]
    left_principal: frozenset[int]
    right_principal: frozenset[int]
    left_cyclic: frozenset[int]
    left_complement: frozenset[int]
    right_cyclic: frozenset[int]
    right_complement: frozenset[int]
    units_link: frozenset[int]
    nonunits_link: frozenset[int]
    units_group: frozenset[int]
    nonunits_group: frozenset[int]
    full_group: frozenset[int]

    def to_doc(self) -> dict:
        doc = {"p": self.p, "d": self.d, "q": self.q, "e": self.e,
               "ring": self.ring.spec()}
        for name in self._fields[5:]:
            doc[name] = sorted(getattr(self, name))
        return doc


class CheckResult(NamedTuple):
    name: str
    ok: bool
    witness: str


class ConstructionReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_doc(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [{"name": c.name, "ok": c.ok, "witness": c.witness}
                       for c in self.checks],
        }


def _orbits_agree(partitions: list[list[frozenset[int]]],
                  stratum: list[tuple[int, int]], cells: set[tuple[int, int]]) -> bool:
    """Whether the orbit partitions agree on the elements whose stratum
    (valuation pair) lies in cells.  Unit orbits stay inside a stratum, so
    each partition is cut to cells by the stratum of its orbits' minima."""
    cut = [{O for O in part if stratum[min(O)] in cells} for part in partitions]
    return all(c == cut[0] for c in cut[1:])


def build_nonpure_dense_sring(
    p: int, d: int, q: int, e: int,
    max_size: int = DEFAULT_MAX_CONSTRUCT_SIZE,
) -> tuple[ConstructionInstance, SRing, ConstructionReport]:
    """Build and fully verify the two-sided orbit Schur ring.

    Returns the instance (all intermediate subgroups), the Schur ring,
    and a report of every checked identity, failed or not.  Hypothesis
    violations raise ValueError; ConstructionError means an intermediate
    subgroup broke its invariant before the checks ran.
    """
    for name, value in (("p", p), ("d", d), ("q", q), ("e", e)):
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"{name} must be a positive integer")
    if not is_prime(p) or not is_prime(q):
        raise ValueError("p and q must be prime")
    if p == q:
        raise ValueError("p and q must be distinct")
    if (p**d - 1) % q:
        raise ValueError(f"{q} does not divide {p}^{d} - 1 = {p**d - 1}")
    if (q**e - 1) % p:
        raise ValueError(f"{p} does not divide {q}^{e} - 1 = {q**e - 1}")
    size = p ** (2 * d) * q ** (2 * e)
    if size > max_size:
        raise ValueError(f"ring size {size} exceeds the limit {max_size}")

    ring = make_cg_ring([(p, 2, d), (q, 2, e)])
    left_torsion = _torsion_subgroup(ring, 0, q)
    right_torsion = _torsion_subgroup(ring, 1, p)
    left_principal = frozenset(ring.embed_principal_units(0))
    right_principal = frozenset(ring.embed_principal_units(1))
    left_cyclic, left_complement, left_gen = _principal_decomposition(ring, 0)
    right_cyclic, right_complement, right_gen = _principal_decomposition(ring, 1)

    # couple the order-q torsion on the left to the right principal factor,
    # and the order-p torsion on the right to the left principal factor
    units_link = subdirect(ring, SubdirectSpec(
        left_torsion, right_cyclic, q,
        _cyclic_epimorphism(ring, min(left_torsion - {ring.one}), q, q),
        _cyclic_epimorphism(ring, right_gen, q, q)))
    nonunits_link = subdirect(ring, SubdirectSpec(
        left_cyclic, right_torsion, p,
        _cyclic_epimorphism(ring, left_gen, p, p),
        _cyclic_epimorphism(ring, min(right_torsion - {ring.one}), p, p)))

    units_group = subgroup_generated(
        ring, set(left_principal) | set(right_torsion)
        | set(right_complement) | set(units_link))
    nonunits_group = subgroup_generated(
        ring, set(left_torsion) | set(left_complement)
        | set(right_principal) | set(nonunits_link))
    full_group = subgroup_generated(
        ring, set(left_torsion) | set(left_principal)
        | set(right_torsion) | set(right_principal))

    # one orbit partition of R per group; each check reads the strata it needs
    left, right = ring.components
    stratum = [(left.valuation(a), right.valuation(b))
               for a, b in map(ring.parts, ring.elements())]
    full_orbits, units_orbits, nonunits_orbits = (
        ring.orbit_partition(G) for G in (full_group, units_group, nonunits_group))
    classes = ([O for O in units_orbits if stratum[min(O)] == (0, 0)]
               + [O for O in nonunits_orbits if stratum[min(O)] != (0, 0)])
    built = SRing(ring, classes)

    checks: list[CheckResult] = []

    def check(name: str, ok: bool, witness: str) -> None:
        checks.append(CheckResult(name, bool(ok), witness))

    report = verify_sring(ring, classes)
    check("partition_axioms", report.ok,
          "; ".join(json.dumps(f, sort_keys=True) for f in report.failures)
          or "all axioms hold")
    check("dense", built.is_dense(), "every ideal is a union of classes")
    lower = built.lower_ideal()
    check("not_pure", not built.is_pure(), f"lower ideal divisor {lower}")
    check("lower_ideal", lower == p * q * q, f"got {lower}, expected {p * q * q}")
    check("no_nontrivial_wreath", not has_nontrivial_wreath(built),
          "no ideal pair admits a wreath decomposition")
    check("units_group_order", len(units_group) == p ** (d + 1) * q ** e,
          f"got {len(units_group)}, expected {p ** (d + 1) * q ** e}")
    check("nonunits_group_order", len(nonunits_group) == p ** d * q ** (e + 1),
          f"got {len(nonunits_group)}, expected {p ** d * q ** (e + 1)}")
    units_lower, nonunits_lower = ring.lower_ideal(units_group), ring.lower_ideal(nonunits_group)
    check("units_group_lower_ideal", units_lower == p * q * q,
          f"got {units_lower}, expected {p * q * q}")
    check("nonunits_group_lower_ideal", nonunits_lower == p * p * q,
          f"got {nonunits_lower}, expected {p * p * q}")
    product = frozenset(b for a in units_group
                        for b in map(ring.mul_row(a).__getitem__, nonunits_group))
    check("group_product", product == full_group,
          f"product of orders {len(units_group)} and {len(nonunits_group)} "
          f"covers {len(product)} of {len(full_group)}")
    expected_meet = (len(left_complement) * len(right_complement)
                     * len(units_link) * len(nonunits_link))
    meet = units_group & nonunits_group
    check("intersection_order", len(meet) == expected_meet,
          f"got {len(meet)}, expected {expected_meet}")
    deep = _orbits_agree([full_orbits, units_orbits, nonunits_orbits], stratum,
                         {(i, j) for i in (0, 1, 2) for j in (0, 1, 2) if i + j >= 2})
    check("deep_strata_orbits", deep,
          "the three groups induce one orbit partition below the top strata")
    check("q_stratum_orbits",
          _orbits_agree([full_orbits, units_orbits], stratum, {(0, 1)}),
          "full group and units group agree on the stratum of q times units")
    check("p_stratum_orbits",
          _orbits_agree([full_orbits, nonunits_orbits], stratum, {(1, 0)}),
          "full group and nonunits group agree on the stratum of p times units")

    instance = ConstructionInstance(
        p, d, q, e, ring, left_torsion, right_torsion, left_principal,
        right_principal, left_cyclic, left_complement, right_cyclic,
        right_complement, units_link, nonunits_link, units_group,
        nonunits_group, full_group)
    return instance, built, ConstructionReport(tuple(checks))
