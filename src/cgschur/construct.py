"""Unit subgroup machinery and the two-sided orbit construction.

Over GR(p^2,d) x GR(q^2,e) with interlocking primes (q divides p^d - 1
and p divides q^e - 1), classes are assembled from the orbits of two
unit subgroups: one acting on the units, the other on the non-units.
Each group couples a torsion part on one side with a principal-unit
part on the other through a fiber product, which is what makes the
result dense but not pure while admitting no nontrivial wreath
decomposition.  Both factors of each fiber product are cyclic of one
prime order, and each maps its generator to 1 in that cyclic quotient,
so the fiber product is the graph of an isomorphism: the cyclic group
of the product of the two generators, grown by one generate.  Every
identity the design relies on is re-verified exactly on each build,
and the returned report records every check.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, NamedTuple, Sequence

from .cgring import CGRing, CheckFailedError, _orbit_labels, make_cg_ring
from .galois import is_prime, power_exceeds
from .sring import SRing, _element_set, has_nontrivial_wreath, labels

DEFAULT_MAX_CONSTRUCT_SIZE = 100_000
ALL_SUBGROUPS_LIMIT = 256  # the largest order of G in all_subgroups, not a subgroup count


class ConstructionError(CheckFailedError):
    """A verified identity failed, contradicting the construction's design."""


# -- subgroup plumbing ---------------------------------------------------------


def subgroup_generated(ring: CGRing, gens: Iterable[int]) -> frozenset[int]:
    """The unit group the generators generate, grown by CGRing.generate,
    which raises ValueError at the first generator that is not a unit."""
    gens = list(gens)
    _element_set(ring, gens, "generator")
    return ring.generate(gens)[2]


def all_subgroups(ring: CGRing, group: Iterable[int]) -> list[frozenset[int]]:
    """Every subgroup of an abelian unit group G, one Sylow part at a time.

    G is the direct product of its Sylow parts G_p, and each subgroup is
    the product of its own Sylow parts, one subgroup of each G_p.  The
    p-part of a generator g of order o is g^(o/p^v), for p^v the largest
    power of p dividing o, read off the walk of g's row from 1; those
    parts generate G_p (all of G when G is a p-group).  Inside G_p, each
    subgroup H is extended once per coset H*g outside it, by
    CGRing.extend_subgroup along the row of g: one mul_row per member of
    G_p, kept only at the members of G and keyed by element (sum |G_p|*|G|
    entries in all), so subgroups are sets of elements throughout.  The
    products H*K are read from the rows of K's members.
    """
    members = _element_set(ring, group, "group member")
    if len(members) > ALL_SUBGROUPS_LIMIT:
        raise ValueError(f"group of order {len(members)} exceeds the limit {ALL_SUBGROUPS_LIMIT}")
    rows = ring._subgroup_rows(members)
    if rows is None:
        raise ValueError("not a unit subgroup")
    walks = []  # g^0, g^1, ..., g^(o-1) for each generator g
    for row in rows:
        walk = [ring.one]
        while (x := row[walk[-1]]) != ring.one:
            walk.append(x)
        walks.append(walk)
    order = len(members)
    trivial = frozenset({ring.one})
    subgroups = [trivial]
    for p in (p for p in range(2, order + 1) if order % p == 0 and is_prime(p)):
        # the p-parts g^(o/p^v) generate G_p, p^v = gcd(o, p^o), and
        # g^o = g^0 when p does not divide o
        sylow = ring.generate(
            walk[len(walk) // math.gcd(len(walk), p ** len(walk)) % len(walk)] for walk in walks)[2]
        table = {g: dict(zip(members, map(ring.mul_row(g).__getitem__, members))) for g in sylow}
        found = {trivial}
        frontier = [trivial]
        while frontier:
            H = frontier.pop()
            done = set(H)
            for g, row in table.items():
                if g in done:
                    continue
                done.update(row[x] for x in H)
                bigger = ring.extend_subgroup(H, row)
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
        subgroups = [frozenset(table[k][h] for k in K for h in H) if len(H) > 1 else K
                     for H in subgroups for K in found]
    subgroups.sort(key=lambda H: (len(H), sorted(H)))
    return subgroups


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
    the least nontrivial element, and the complement is generated by the
    units grow keeps after it, in the same order, which makes the output
    deterministic; it is {1} extended by the rows grow yielded for them.
    """
    principal = ring.embed_principal_units(ci)
    (gen, _, cyclic), *rest = ring.grow(principal)
    complement = frozenset({ring.one})
    for _, row, _ in rest:
        complement = ring.extend_subgroup(complement, row)
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


def _orbits_agree(vectors: list[list[int]], keys: Sequence[int], cells: set[int]) -> bool:
    """Whether the orbit label vectors give one partition of the elements
    whose unit-orbit key lies in cells: cut to those elements, they do
    exactly when the joint label tuples are as many as each vector's own
    labels."""
    inside = [x for x, key in enumerate(keys) if key in cells]
    cut = [[v[x] for x in inside] for v in vectors]
    joint = len(set(zip(*cut)))
    return all(len(set(c)) == joint for c in cut)


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
    # the size gate first, before any primality test or big power
    if (power_exceeds(p, 2 * d, max_size) or power_exceeds(q, 2 * e, max_size)
            or p ** (2 * d) * q ** (2 * e) > max_size):
        raise ValueError(f"GR({p}^2,{d})xGR({q}^2,{e}) exceeds the limit {max_size}")
    if not is_prime(p) or not is_prime(q):
        raise ValueError("p and q must be prime")
    if p == q:
        raise ValueError("p and q must be distinct")
    if (p**d - 1) % q:
        raise ValueError(f"{q} does not divide {p}^{d} - 1 = {p**d - 1}")
    if (q**e - 1) % p:
        raise ValueError(f"{p} does not divide {q}^{e} - 1 = {q**e - 1}")

    ring = make_cg_ring([(p, 2, d), (q, 2, e)], max_size=max_size)
    left_torsion = _torsion_subgroup(ring, 0, q)
    right_torsion = _torsion_subgroup(ring, 1, p)
    left_principal = frozenset(ring.embed_principal_units(0))
    right_principal = frozenset(ring.embed_principal_units(1))
    left_cyclic, left_complement, left_gen = _principal_decomposition(ring, 0)
    right_cyclic, right_complement, right_gen = _principal_decomposition(ring, 1)

    # couple the order-q torsion on the left to the right principal factor,
    # and the order-p torsion on the right to the left principal factor
    units_link = ring.generate([ring.mul(min(left_torsion - {ring.one}), right_gen)])[2]
    nonunits_link = ring.generate([ring.mul(left_gen, min(right_torsion - {ring.one}))])[2]
    if len(units_link) != q or len(nonunits_link) != p:
        raise ConstructionError("a link is not cyclic of its prime order")

    # each group grown once, its rows giving its orbit label vector of R;
    # the stratum m*units holds the elements whose unit-orbit key is m
    ((_, units_rows, units_group), (_, nonunits_rows, nonunits_group),
     (_, full_rows, full_group)) = (ring.generate(set().union(*parts)) for parts in (
            (left_principal, right_torsion, right_complement, units_link),
            (left_torsion, left_complement, right_principal, nonunits_link),
            (left_torsion, left_principal, right_torsion, right_principal)))
    keys = ring.unit_orbit_keys()
    vectors = [_orbit_labels(ring.size, rows) for rows in (full_rows, units_rows, nonunits_rows)]
    built = SRing.from_labels(ring, labels(
        (key == 1, u if key == 1 else n) for key, _, u, n in zip(keys, *vectors)))

    checks: list[CheckResult] = []

    def check(name: str, ok: bool, witness: str) -> None:
        checks.append(CheckResult(name, bool(ok), witness))

    report = built.verify()
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
    # units commute, so the product set of the two groups is the group they
    # generate: nonunits_group grown by the generator rows of units_group
    product = nonunits_group
    for row in units_rows:
        product = ring.extend_subgroup(product, row)
    check("group_product", product == full_group,
          f"product of orders {len(units_group)} and {len(nonunits_group)} "
          f"covers {len(product)} of {len(full_group)}")
    expected_meet = (len(left_complement) * len(right_complement)
                     * len(units_link) * len(nonunits_link))
    meet = units_group & nonunits_group
    check("intersection_order", len(meet) == expected_meet,
          f"got {len(meet)}, expected {expected_meet}")
    deep = set(ring.divisors()) - {1, p, q}
    check("deep_strata_orbits", _orbits_agree(vectors, keys, deep),
          "the three groups induce one orbit partition below the top strata")
    check("q_stratum_orbits", _orbits_agree(vectors[:2], keys, {q}),
          "full group and units group agree on the stratum of q times units")
    check("p_stratum_orbits", _orbits_agree(vectors[::2], keys, {p}),
          "full group and nonunits group agree on the stratum of p times units")

    instance = ConstructionInstance(
        p, d, q, e, ring, left_torsion, right_torsion, left_principal,
        right_principal, left_cyclic, left_complement, right_cyclic,
        right_complement, units_link, nonunits_link, units_group,
        nonunits_group, full_group)
    return instance, built, ConstructionReport(tuple(checks))
