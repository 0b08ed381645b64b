"""Products of Galois rings with pairwise coprime characteristics.

A product ring R = R_1 x ... x R_k is encoded on the index range
0 .. |R|-1 in mixed radix: the element with component indices
(i_1, ..., i_k) has global index sum(i_k * prod of earlier sizes),
component 1 least significant.  Every ideal of such a ring is mR for a
divisor m of the characteristic c, so ideals are referred to by their
divisor throughout; m = 1 is R itself and m = c is the zero ideal.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, NamedTuple, Sequence

from .galois import (DEFAULT_MAX_RING_SIZE, GaloisRing, is_prime, make_galois_ring,
                     mixed_radix_sum)


class EmptySetError(ValueError):
    """Raised for set operations that are undefined on the empty set."""


def _translates(S: list[int], row: list[int]) -> list[int]:
    """The union of the translates g^k*S, k >= 0, where row = mul_row(g).

    Precondition: S is an orbit of a unit group H and g a unit.  Units
    commute, so every g^k*S is an H-orbit too, and two of them are equal
    or disjoint: the first translate that meets S is S, and the loop
    stops there, at |S| lookups per translate.
    """
    base, union, coset = set(S), list(S), S
    while True:
        coset = [row[x] for x in coset]
        if coset[0] in base:
            return union
        union += coset


class CGRing:
    """Ordered product of Galois rings with distinct underlying primes."""

    def __init__(self, components: Iterable[GaloisRing]):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("a product ring needs at least one component")
        primes = [c.p for c in self.components]
        if len(set(primes)) != len(primes):
            raise ValueError(f"component characteristics must be coprime, got primes {primes}")
        self.primes = tuple(primes)
        self.char = math.prod(c.char for c in self.components)
        self.size = math.prod(c.size for c in self.components)
        # the place value of each part: the product of the sizes before it
        self.shifts = tuple(math.prod(c.size for c in self.components[:i])
                            for i in range(len(self.components)))
        self.unit_count = math.prod(c.unit_count for c in self.components)
        self.one = self.from_parts([1] * len(self.components))
        self._units: tuple[int, ...] | None = None
        self._unit_set: frozenset[int] = frozenset()
        self._ideals: dict[int, frozenset[int]] = {}
        self._ideal_generators: dict[int, tuple[int, ...]] = {}
        self._translation_rows: dict[int, list[int]] = {}
        self._divisors: list[int] | None = None
        self._unit_generators: tuple[int, ...] | None = None
        self._unit_rows: tuple[tuple[int, ...], ...] = ()

    def __repr__(self) -> str:
        return f"CGRing({self.spec()})"

    def spec(self) -> str:
        return "x".join(c.spec() for c in self.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CGRing):
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    # -- encoding ---------------------------------------------------------

    def parts(self, a: int) -> tuple[int, ...]:
        out = []
        for comp in self.components:
            a, r = divmod(a, comp.size)
            out.append(r)
        return tuple(out)

    def from_parts(self, parts) -> int:
        return sum(i * shift for i, shift in zip(parts, self.shifts))

    def elements(self) -> range:
        return range(self.size)

    def is_element(self, x: object) -> bool:
        """Whether x is an element index: an int (not a bool) in 0 .. |R|-1."""
        return type(x) is int and 0 <= x < self.size

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        out = 0
        for comp, shift in zip(self.components, self.shifts):
            a, ra = divmod(a, comp.size)
            b, rb = divmod(b, comp.size)
            out += comp.add(ra, rb) * shift
        return out

    def neg(self, a: int) -> int:
        return self.from_parts(
            comp.neg(i) for comp, i in zip(self.components, self.parts(a))
        )

    def mul(self, a: int, b: int) -> int:
        out = 0
        for comp, shift in zip(self.components, self.shifts):
            a, ra = divmod(a, comp.size)
            b, rb = divmod(b, comp.size)
            out += comp.mul(ra, rb) * shift
        return out

    def _combine(self, comp_rows: Iterable[list[int]]) -> list[int]:
        """The row whose entry at x is the element with parts comp_rows[i][x_i],
        by mixed_radix_sum.  Row i may be shorter than component i; x_i then
        runs over its length."""
        return mixed_radix_sum([b * shift for b in comp_row]
                               for shift, comp_row in zip(self.shifts, comp_rows))

    def mul_row(self, r: int) -> list[int]:
        """The products r*x over all elements x, in element order, as a
        fresh list the caller owns: the component rows r_i*R_i, combined
        at |R| additions instead of |R| calls to mul."""
        return self._combine(comp.mul_row(ri) for comp, ri in zip(self.components, self.parts(r)))

    TABLE_LIMIT = 700  # the largest ring mul_table tabulates

    def mul_table(self) -> list[list[int]]:
        """Dense multiplication table, one mul_row per element and not kept;
        only for rings up to TABLE_LIMIT."""
        if self.size > self.TABLE_LIMIT:
            raise ValueError(f"ring of size {self.size} is too large to tabulate")
        return [self.mul_row(a) for a in self.elements()]

    def scale(self, a: int, k: int) -> int:
        return self.from_parts(
            comp.scale(i, k) for comp, i in zip(self.components, self.parts(a))
        )

    def is_unit(self, a: int) -> bool:
        return all(comp.is_unit(i) for comp, i in zip(self.components, self.parts(a)))

    def units(self) -> tuple[int, ...]:
        if self._units is None:
            # x is a unit when every part is: combine the component unit lists
            self._units = tuple(self._combine(comp.unit_indices() for comp in self.components))
            self._unit_set = frozenset(self._units)
        return self._units

    def unit_set(self) -> frozenset[int]:
        """The units as a frozenset, kept next to the units() tuple."""
        self.units()
        return self._unit_set

    def extend_subgroup(self, H: frozenset[int], row: list[int]) -> frozenset[int]:
        """The unit group <H, g>, where row = mul_row(g), as the union of
        the cosets H*g^k.

        Precondition: H is a unit subgroup and g a unit; otherwise no g^k
        need lie in H and _translates never returns.  Units commute, so
        H*g^j * H*g^k = H*g^(j+k), and the union is closed under products.
        The cosets are read from the row, at |<H, g>| lookups.
        """
        return frozenset(_translates(list(H), row))

    def generate(self, elements: Iterable[int]) -> tuple[tuple[int, ...], list[list[int]], frozenset[int]]:
        """The unit group the given units generate, the generators kept and
        their mul_rows, as fresh lists the caller owns.

        In the given order, a unit joins the generators when it lies outside
        the group built so far, which then grows by its cosets: extend_subgroup
        is the one way a unit group grows, at one mul_row per generator.
        """
        gens, rows, group = [], [], frozenset({self.one})
        for g in elements:
            if g not in group:
                gens.append(g)
                rows.append(self.mul_row(g))
                group = self.extend_subgroup(group, rows[-1])
        return tuple(gens), rows, group

    def unit_generators(self) -> tuple[int, ...]:
        """generate(units())[0], cached with its rows (unit_rows): the units
        that grow the unit group by cosets, in index order."""
        if self._unit_generators is None:
            gens, rows, _ = self.generate(self.units())
            self._unit_generators, self._unit_rows = gens, tuple(map(tuple, rows))
        return self._unit_generators

    def unit_rows(self) -> tuple[tuple[int, ...], ...]:
        """The mul_row of each unit generator, kept from their one generate
        as tuples, so no caller can change them."""
        self.unit_generators()
        return self._unit_rows

    def orbit_representatives(self) -> list[int]:
        """One element m*1 per unit orbit, in divisor order.

        Each element is a unit times m*1 for the divisor m generating its
        ideal, so these orbits cover R, one per divisor.
        """
        return [self.scale(self.one, m) for m in self.divisors()]

    def class_permutations(self, labels: Sequence[int]) -> list[list[int]] | None:
        """For each unit generator g, the permutation k -> label of g*X_k.

        labels is a canonical label vector: X_k holds the x with
        labels[x] = k, classes numbered by first appearance.  None when
        some g*X_k is not a class, that is when the partition is not
        unit-invariant.  Per generator, the labels of g*x are read off
        its kept unit row for every x at once, and perm from one member of each
        class; g maps each X_k into X_perm[k] when that image row equals
        perm read through labels, and then, g being a bijection of R,
        every class is hit and g*X_k is all of X_perm[k].
        """
        members = dict(zip(labels, self.elements())).values()  # label order
        perms = []
        for row in self.unit_rows():
            image = list(map(labels.__getitem__, row))
            perm = list(map(image.__getitem__, members))
            if image != list(map(perm.__getitem__, labels)):
                return None
            perms.append(perm)
        return perms

    # -- ideals -------------------------------------------------------------

    def divisors(self) -> list[int]:
        if self._divisors is None:
            c = self.char
            small = [m for m in range(1, math.isqrt(c) + 1) if c % m == 0]
            self._divisors = sorted(set(small + [c // m for m in small]))
        return self._divisors

    def valuations(self, m: int) -> tuple[int, ...]:
        """Per-component p-adic valuation vector of a divisor of c."""
        if m < 1:
            raise ValueError(f"the divisor must be a positive integer, got {m}")
        if self.char % m:
            raise ValueError(f"{m} does not divide the characteristic {self.char}")
        out = []
        for comp in self.components:
            v = 0
            while m % comp.p == 0:
                m //= comp.p
                v += 1
            out.append(v)
        return tuple(out)

    def divisor_from_valuations(self, vals) -> int:
        return math.prod(c.p**v for c, v in zip(self.components, vals))

    def ideal(self, m: int) -> frozenset[int]:
        """The ideal mR as a set of element indices."""
        if m not in self._ideals:
            self._ideals[m] = frozenset(self._combine(
                [a for a in comp.elements() if all(x % comp.p**v == 0 for x in comp.coeffs(a))]
                for comp, v in zip(self.components, self.valuations(m))))
        return self._ideals[m]

    def ideal_size(self, m: int) -> int:
        vals = self.valuations(m)
        return math.prod(
            c.p ** ((c.n - v) * c.d) for c, v in zip(self.components, vals)
        )

    def maximal_divisors(self) -> list[int]:
        return sorted(self.primes)

    def ideal_generators(self, m: int) -> tuple[int, ...]:
        """Additive generators of mR, one per coefficient slot per component."""
        if m not in self._ideal_generators:
            gens = []
            k = len(self.components)
            for ci, (comp, v) in enumerate(zip(self.components, self.valuations(m))):
                if v == comp.n:
                    continue
                for j in range(comp.d):
                    parts = [0] * k
                    parts[ci] = comp.index(
                        tuple(comp.p**v if jj == j else 0 for jj in range(comp.d))
                    )
                    gens.append(self.from_parts(parts))
            self._ideal_generators[m] = tuple(gens)
        return self._ideal_generators[m]

    def _translation_row(self, g: int) -> list[int]:
        """The row x -> x + g of an ideal generator g, kept and never handed out.

        Built like mul_row, from the component rows g_i + R_i.  Each
        generator is p_i^v times a basis element of one component, v < n_i,
        so at most sum of n_i*d_i rows of |R| are ever kept.
        """
        row = self._translation_rows.get(g)
        if row is None:
            row = self._translation_rows[g] = self._combine(
                comp.add_row(gi) for comp, gi in zip(self.components, self.parts(g)))
        return row

    def coset_closed(self, X: frozenset[int], m: int) -> bool:
        """Whether X is a union of cosets of the ideal mR: X + g = X for
        each additive generator g of mR, read from the translation row
        of g at |X| lookups per generator."""
        for g in self.ideal_generators(m):
            if not X.issuperset(map(self._translation_row(g).__getitem__, X)):
                return False
        return True

    def lower_ideal(self, X: frozenset[int]) -> int:
        """Divisor of the largest ideal I with X + I = X.

        Such ideals are closed under sums, so the largest is the sum of
        the largest one inside each component, found by coset_closed on
        the ideals p_i^v R_i in turn, v = 0 first.
        """
        if not X:
            raise EmptySetError("the lower ideal of the empty set is undefined")
        vals = []
        for comp in self.components:
            others = self.char // comp.char  # others*R is this component
            vals.append(next(v for v in range(comp.n + 1)
                             if self.coset_closed(X, others * comp.p**v)))
        return self.divisor_from_valuations(vals)

    def upper_ideal(self, X: frozenset[int]) -> int:
        """Divisor of the smallest ideal containing X."""
        if not X:
            raise EmptySetError("the upper ideal of the empty set is undefined")
        g = 0
        for x in X:
            content = self.divisor_from_valuations(
                comp.valuation(i) for comp, i in zip(self.components, self.parts(x))
            )
            g = math.gcd(g, content)
            if g == 1:
                break
        return g

    # -- projections and subrings -------------------------------------------

    def projection_row(self, primes: Iterable[int]) -> list[int]:
        """The projection of every element x onto the components over the
        given primes (the other parts set to 0), in element order, as a
        fresh list: _combine of the component rows i (kept) or 0."""
        keep = set(primes)
        return self._combine(comp.elements() if comp.p in keep else [0] * comp.size
                             for comp in self.components)

    def scale_set(self, X: Iterable[int], k: int) -> frozenset[int]:
        return frozenset(self.scale(a, k) for a in X)

    def component_divisor(self, primes: Iterable[int]) -> int:
        """Divisor m with mR = the sub-product over the given primes."""
        keep = set(primes)
        return math.prod(c.char for c in self.components if c.p not in keep)

    def embed(self, ci: int, members: Iterable[int]) -> list[int]:
        """Elements of component ci as global elements, 1 in the other slots."""
        shift = self.shifts[ci]
        base = self.one - shift  # self.one with slot ci emptied
        return [base + m * shift for m in members]

    def embed_component_units(self, ci: int) -> list[int]:
        """Units of one component as global units."""
        return self.embed(ci, self.components[ci].unit_indices())

    def embed_principal_units(self, ci: int) -> list[int]:
        """The group 1 + pR_p of one component, as global units."""
        comp = self.components[ci]
        p = comp.p
        principal = []
        for a in comp.elements():
            cs = comp.coeffs(a)
            if cs[0] % p == 1 and all(c % p == 0 for c in cs[1:]):
                principal.append(a)
        return self.embed(ci, principal)

    # -- group actions ---------------------------------------------------

    def _subgroup_rows(self, K: frozenset[int]) -> list[list[int]] | None:
        """The generator rows of generate(K) when K is a unit subgroup: it
        holds 1 and only units, and the group generate grows from it by
        cosets is K itself.  None otherwise."""
        if self.one in K and K <= self.unit_set():
            _, rows, group = self.generate(K)
            if group == K:
                return rows
        return None

    def is_subgroup(self, K: frozenset[int]) -> bool:
        """Whether K is a unit subgroup, at one generate."""
        return self._subgroup_rows(K) is not None

    def orbit_partition(self, K: Iterable[int]) -> list[frozenset[int]]:
        """Orbits of a unit subgroup K acting by multiplication, ordered by minimum.

        One generate checks that K is a unit subgroup (ValueError
        otherwise) and keeps the rows of its generators.  Each orbit
        grows from its least member one generator at a time: the orbit
        under the earlier generators grows by its translates along the
        next generator's row, at about one lookup per orbit member and
        generator.
        """
        rows = self._subgroup_rows(frozenset(K))
        if rows is None:
            raise ValueError("K must be a subgroup of the units")
        seen: set[int] = set()
        out = []
        for x in self.elements():
            if x in seen:
                continue
            members = [x]
            for row in rows:
                members = _translates(members, row)
            orb = frozenset(members)
            seen |= orb
            out.append(orb)
        return out

    # -- purity ------------------------------------------------------------

    def is_pure_set(self, X: frozenset[int]) -> bool:
        return self.lower_ideal(X) == self.char

    def is_pure_subgroup(self, K: frozenset[int]) -> bool:
        """No coset 1 + I of a nonzero ideal inside K.

        It is enough to test the minimal ideals, one per prime.
        """
        one = self.one
        for p in self.primes:
            if all(self.add(one, g) in K for g in self.ideal(self.char // p)):
                return False
        return True


class QuotientMap(NamedTuple):
    """Quotient ring R/mR with the natural projection and least-preimage lift."""

    ring: CGRing
    divisor: int
    pi: Callable[[int], int]
    section: Callable[[int], int]


class IdealRingMap(NamedTuple):
    """The ideal mR as a ring with identity m*1.

    `ring` is the abstract model (a product of smaller Galois rings),
    `to_model` is the ring epimorphism x -> mx read in the model, and
    `embed` is the additive bijection from the model onto mR inside the
    source ring.  embed(model identity) = m * 1.
    """

    ring: CGRing
    divisor: int
    to_model: Callable[[int], int]
    embed: Callable[[int], int]

    def section_map(self) -> dict[int, int]:
        """Inverse of embed, as a dict over the members of mR.

        embed is additive and sends model component t into one source
        component, so embed(j) is the sum of embed(j_t * shift_t) over
        the parts j_t of j: the row of embed values is one mixed_radix_sum
        of one row per model component, at sum |R_t| calls to embed
        instead of |mR|.
        """
        row = mixed_radix_sum([self.embed(i * shift) for i in comp.elements()]
                              for shift, comp in zip(self.ring.shifts, self.ring.components))
        return dict(zip(row, self.ring.elements()))


def _truncate(ring: CGRing, exponents: Iterable[int]) -> tuple[CGRing, Callable, Callable]:
    """The ring keeping component i mod p_i^exponents[i] (0 drops it).

    Returns the target ring, the reduction of coefficients into it, and
    the lift that reads its coefficients back as a source element.
    """
    kept = [(ci, comp, e) for ci, (comp, e) in enumerate(zip(ring.components, exponents)) if e]
    target = CGRing([make_galois_ring(comp.p, e, comp.d) for _, comp, e in kept])

    def reduce(a: int) -> int:
        parts = ring.parts(a)
        out = []
        for (ci, comp, e), new in zip(kept, target.components):
            q = comp.p**e
            out.append(new.index(tuple(c % q for c in comp.coeffs(parts[ci]))))
        return target.from_parts(out)

    def lift(b: int) -> int:
        parts = [0] * len(ring.components)
        for (ci, comp, _), new, i in zip(kept, target.components, target.parts(b)):
            parts[ci] = comp.index(new.coeffs(i))
        return ring.from_parts(parts)

    return target, reduce, lift


def quotient(ring: CGRing, m: int) -> QuotientMap:
    """R / mR for a divisor m > 1 of the characteristic."""
    vals = ring.valuations(m)
    if m == 1:
        raise ValueError("quotient by the whole ring is degenerate")
    target, pi, section = _truncate(ring, vals)
    return QuotientMap(target, m, pi, section)


def ideal_ring(ring: CGRing, m: int) -> IdealRingMap:
    """Ring structure on mR, for a proper divisor m of the characteristic."""
    vals = ring.valuations(m)
    if m == ring.char:
        raise ValueError("the zero ideal does not carry a ring structure")
    exponents = [comp.n - v for comp, v in zip(ring.components, vals)]
    target, to_model, lift = _truncate(ring, exponents)
    return IdealRingMap(target, m, to_model, lambda b: ring.scale(lift(b), m))


def make_cg_ring(components, max_size: int = DEFAULT_MAX_RING_SIZE) -> CGRing:
    """Build a product ring from GaloisRing objects or (p, n, d) tuples."""
    built = []
    for comp in components:
        if isinstance(comp, GaloisRing):
            built.append(comp)
        else:
            p, n, d = comp
            built.append(make_galois_ring(p, n, d, max_size=max_size))
    ring = CGRing(built)
    if ring.size > max_size:
        raise ValueError(f"|R| = {ring.size} exceeds the size limit {max_size}")
    return ring


_COMPONENT_RE = re.compile(r"^GR\((\d+)(?:\^(\d+))?(?:,(\d+))?\)$")


def parse_ring_spec(spec: str, max_size: int = DEFAULT_MAX_RING_SIZE) -> CGRing:
    """Parse strings like "GR(4,2)xGR(9)" or "GR(2^2,2)xGR(3^2)"."""
    if not isinstance(spec, str):
        raise ValueError(f"the ring spec must be a string, got {spec!r}")
    comps = []
    for token in spec.replace(" ", "").split("x"):
        match = _COMPONENT_RE.match(token)
        if not match:
            raise ValueError(f"bad ring component {token!r}")
        base, exp, d = match.groups()
        base = int(base)
        if exp is not None:
            p, n = base, int(exp)
            if not is_prime(p):
                raise ValueError(f"{p} is not prime in {token!r}")
        elif base < 2:
            raise ValueError(f"bad ring component {token!r}")
        else:
            p = min(f for f in range(2, base + 1) if base % f == 0)
            n = 0
            q = base
            while q > 1:
                if q % p:
                    raise ValueError(f"{base} is not a prime power in {token!r}")
                q //= p
                n += 1
        comps.append((p, n, int(d) if d else 1))
    return make_cg_ring(comps, max_size=max_size)
