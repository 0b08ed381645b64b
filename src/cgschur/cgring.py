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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .galois import (DEFAULT_MAX_RING_SIZE, TABLE_LIMIT, GaloisRing, is_prime,
                     make_galois_ring, mixed_radix_sum, power_exceeds)


class EmptySetError(ValueError):
    """Raised for set operations that are undefined on the empty set."""


class CheckFailedError(RuntimeError):
    """A law, identity or decomposition step that should hold failed; each
    layer raises its own subclass, and the command line exits 1 on any."""


def _orbit_labels(size: int, rows: Iterable[Sequence[int]]) -> list[int]:
    """The canonical label vector of the orbits of the unit group generated
    by the g whose mul_rows are given, over elements 0 .. size-1; any
    commuting permutations of 0 .. size-1 will do, such as the class
    permutations of a unit-invariant partition.

    The group H grows one generator g at a time.  Units commute, so
    g*(H*x) = H*(g*x) and g permutes the H-orbits; the orbits of <H, g>
    are the cycles of that permutation.  It is read at one member per
    H-orbit (the least) with one C-level map, its cycles are walked over
    the orbits alone, and every label is renamed with one more map.
    Cycles are numbered in the order of their least orbit, which is the
    order of their least member, so the vector stays canonical.  The
    first H is trivial, its orbits are the elements, and the first row
    is its own permutation, read with no map.
    """
    labels, reps = None, range(size)
    for row in rows:
        perm = row if labels is None else list(map(labels.__getitem__, map(row.__getitem__, reps)))
        rename, starts = [-1] * len(perm), []
        for k in range(len(perm)):
            if rename[k] < 0:
                label, j = len(starts), k
                starts.append(reps[k])
                while rename[j] < 0:
                    rename[j] = label
                    j = perm[j]
        labels = rename if labels is None else list(map(rename.__getitem__, labels))
        reps = starts
    return list(range(size)) if labels is None else labels


def label_classes(class_of: Sequence[int]) -> list[frozenset[int]]:
    """The classes of a canonical label vector, in label order: class k
    holds the x with class_of[x] = k.  Labels are numbered by first
    appearance, so a label not met before opens the next class, and the
    count needs no pass of its own."""
    members: list[list[int]] = []
    for x, k in enumerate(class_of):
        if k < len(members):
            members[k].append(x)
        else:
            members.append([x])
    return list(map(frozenset, members))


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
        self._reductions: dict[int, tuple[tuple[int, ...], int]] = {}
        self._divisors: list[int] | None = None
        self._unit_generators: tuple[int, ...] | None = None
        self._unit_rows: tuple[tuple[int, ...], ...] = ()
        self._unit_orbit_keys: tuple[int, ...] | None = None
        self._fixed_point_counts: tuple[int, ...] | None = None
        self._character_table = None  # filled by duality.character_table

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
        return self.scale(a, -1)

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
        fresh list the caller owns: the component rows r_i*R_i (kept by
        each component of at most TABLE_LIMIT elements), combined at |R|
        additions instead of |R| calls to mul."""
        return self._combine(comp.mul_row(ri) for comp, ri in zip(self.components, self.parts(r)))

    def mul_table(self) -> list[list[int]]:
        """Dense multiplication table, one mul_row per element and not kept;
        only for rings up to galois.TABLE_LIMIT, the one size rule that
        also bounds which component rows are kept."""
        if self.size > TABLE_LIMIT:
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

    def extend_subgroup(self, H: frozenset[int], row: Sequence[int] | dict[int, int]) -> frozenset[int]:
        """The unit group <H, g>, where row[x] = g*x on <H, g> (mul_row(g)
        or a cut of it), as the union of the cosets H*g^k.

        H is a unit subgroup.  Units commute, so H*g^j * H*g^k = H*g^(j+k),
        and the union is closed under products.  Two cosets are equal or
        disjoint, so the first one that meets H is H and the walk stops
        there.  The cosets are read from the row, at |<H, g>| lookups.  The
        order of a unit g modulo H is at most |R|/|H|; no power of a
        non-unit lies in H, so a walk that has not returned after that
        many steps raises ValueError.
        """
        union, coset = list(H), list(H)
        for _ in range(self.size // len(H)):
            coset = [row[x] for x in coset]
            if coset[0] in H:
                return frozenset(union)
            union += coset
        raise ValueError("the row is not that of a unit: its coset walk does not return to H")

    def grow(self, elements: Iterable[int]) -> Iterator[tuple[int, list[int], frozenset[int]]]:
        """Yield (g, mul_row(g), the group so far) for each given unit g
        outside the group grown by cosets from the units before it; one
        outside it that is not a unit raises ValueError, as no power of
        it would return to the group and close the coset walk."""
        group, units = frozenset({self.one}), self.unit_set()
        for g in elements:
            if g not in group:
                if g not in units:
                    raise ValueError(f"element {g} is not a unit")
                row = self.mul_row(g)
                group = self.extend_subgroup(group, row)
                yield g, row, group

    def generate(self, elements: Iterable[int]) -> tuple[tuple[int, ...], list[list[int]], frozenset[int]]:
        """The units grow yields, their rows as fresh lists, and the group."""
        gens, rows, group = [], [], frozenset({self.one})
        for g, row, group in self.grow(elements):
            gens.append(g)
            rows.append(row)
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

        Each element x is a unit times m*1 for the divisor m with xR = mR,
        its unit_orbit_keys entry, so these orbits cover R, one per divisor.
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

    def ideal(self, m: int) -> frozenset[int]:
        """The ideal mR as a set of element indices, from the digit rows p_i^v_i*R_i."""
        if m not in self._ideals:
            self._ideals[m] = frozenset(self._combine(
                _recode(comp.d, comp.p**(comp.n - v), comp.char, 1, comp.p**v)
                for comp, v in zip(self.components, self.valuations(m))))
        return self._ideals[m]

    def ideal_size(self, m: int) -> int:
        vals = self.valuations(m)
        return math.prod(
            c.p ** ((c.n - v) * c.d) for c, v in zip(self.components, vals)
        )

    def ideal_generators(self, m: int) -> tuple[int, ...]:
        """Additive generators p_i^v_i * x^j of mR, one per coefficient slot per component."""
        return tuple(comp.p**v * comp.char**j * shift
                     for comp, v, shift in zip(self.components, self.valuations(m), self.shifts)
                     if v < comp.n for j in range(comp.d))

    def reduction(self, m: int) -> tuple[tuple[int, ...], int]:
        """The row x -> x mod mR, as an element index of R/mR, and |mR|, kept
        once per divisor as a tuple.  Each coefficient of component i is read
        mod p_i^v_i, weighted by the size of R/mR before it; m = 1 gives the
        zero row and m = c the identity."""
        kept = self._reductions.get(m)
        if kept is None:
            weight, rows = 1, []
            for comp, v in zip(self.components, self.valuations(m)):
                rows.append(_recode(comp.d, comp.char, comp.p**v, weight))
                weight *= comp.p**(v * comp.d)
            kept = self._reductions[m] = (tuple(mixed_radix_sum(rows)), self.size // weight)
        return kept

    def coset_closed(self, X: frozenset[int], m: int) -> bool:
        """Whether X is a union of cosets of the ideal mR: |mR| divides |X|
        and X meets exactly |X|/|mR| cosets, read from the kept reduction
        row at |X| lookups."""
        row, size = self.reduction(m)
        return not len(X) % size and len(set(map(row.__getitem__, X))) * size == len(X)

    def lower_ideal(self, X: frozenset[int]) -> int:
        """Divisor of the largest ideal I with X + I = X.

        Such ideals are closed under sums, so the largest is the sum of
        the largest one inside each component.  They are also closed
        downward (X + J = X gives X + I = X for I inside J), so the ideals
        p_i^v R_i are tried by coset_closed from the minimal one, v = n_i - 1,
        upward, and the search stops at the first that fails: one test per
        component for a pure X.  The zero ideal, v = n_i, closes every X
        and is never tested.
        """
        if not X:
            raise EmptySetError("the lower ideal of the empty set is undefined")
        m = 1
        for comp in self.components:
            others = self.char // comp.char  # others*R is this component
            v = comp.n
            while v and self.coset_closed(X, others * comp.p**(v - 1)):
                v -= 1
            m *= comp.p**v
        return m

    def upper_ideal(self, X: frozenset[int]) -> int:
        """Divisor of the smallest ideal containing X: the gcd of the kept
        divisors m with xR = mR over x in X."""
        if not X:
            raise EmptySetError("the upper ideal of the empty set is undefined")
        return math.gcd(*map(self.unit_orbit_keys().__getitem__, X))

    # -- sub-products --------------------------------------------------------

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
        """The group 1 + pR_p of one component, as global units, from the digit row pR_p."""
        comp = self.components[ci]
        multiples = _recode(comp.d, comp.p**(comp.n - 1), comp.char, 1, comp.p)
        return self.embed(ci, [1 + a for a in multiples])

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

    def unit_orbit_keys(self) -> tuple[int, ...]:
        """The divisor m with xR = mR for each element x, kept once per
        ring.  Every x is a unit times m*1, so the keys are equal exactly
        on unit orbits.  m is the product of the p_i^v_i, v_i the valuation
        of the part x_i: one row of p_i^v_i per component, multiplied in
        mixed radix."""
        if self._unit_orbit_keys is None:
            self._unit_orbit_keys = self._product_row(
                [comp.p ** comp.valuation(i) for i in comp.elements()] for comp in self.components)
        return self._unit_orbit_keys

    def fixed_point_counts(self) -> tuple[int, ...]:
        """|{y : x*y = y}| = |Ann(x - 1)| for each element x, kept once per
        ring.  In a component the annihilator of p^v times a unit is
        p^(n-v)*R_i, of p^(d*v) elements: one row per component, multiplied."""
        if self._fixed_point_counts is None:
            self._fixed_point_counts = self._product_row(
                [comp.p ** (comp.d * comp.valuation(comp.sub(a, 1))) for a in comp.elements()]
                for comp in self.components)
        return self._fixed_point_counts

    @staticmethod
    def _product_row(comp_rows: Iterable[list[int]]) -> tuple[int, ...]:
        """The row whose entry at x is the product of comp_rows[i][x_i]."""
        out = [1]
        for row in comp_rows:
            out = [a * b for b in row for a in out]
        return tuple(out)

    # -- purity ------------------------------------------------------------

    def is_pure_set(self, X: frozenset[int]) -> bool:
        """No nonzero ideal I with X + I = X: X is not empty and its lower
        ideal is the zero ideal.  On a unit subgroup K, K + I = K exactly
        when 1 + I lies in K."""
        return bool(X) and self.lower_ideal(X) == self.char

    is_pure_subgroup = is_pure_set


class QuotientMap(NamedTuple):
    """Quotient ring R/mR with the natural projection, read from the ring's
    kept reduction row.  With mR the sub-product over the primes outside
    Q (m = component_divisor(primes - Q)), R/mR is the sub-product over Q
    and pi is the projection x -> x_Q."""

    ring: CGRing
    pi: Callable[[int], int]


class IdealRingMap(NamedTuple):
    """The ideal mR as a ring with identity m*1.

    `ring` is the abstract model (a product of smaller Galois rings) and
    `embed` the additive bijection from the model onto mR inside the
    source ring: the lift of coefficients scaled by m, one _recode row per
    component.  embed(model identity) = m*1.  Projections onto a
    sub-product are read from quotient maps, and sring.restrict reads mR
    in index order (coefficients scaled by p_i^v_i), neither through embed.
    """

    ring: CGRing
    embed: Callable[[int], int]


def _recode(d: int, source: int, target: int, weight: int, k: int = 1) -> list[int]:
    """The row over d coefficient slots of digits t < source that reads each
    as k*t mod target in base target, times weight: one mixed_radix_sum.
    Reduction, change of base and integer multiples act on each coefficient
    alone, so each ideal and quotient map is such rows."""
    return mixed_radix_sum([k * t % target * target**i * weight for t in range(source)]
                           for i in range(d))


def _truncate(ring: CGRing, exponents: Sequence[int]) -> CGRing:
    """The ring keeping component i mod p_i^exponents[i] (0 drops it)."""
    return CGRing([make_galois_ring(comp.p, e, comp.d)
                   for comp, e in zip(ring.components, exponents) if e])


def quotient(ring: CGRing, m: int) -> QuotientMap:
    """R / mR for a divisor m > 1 of the characteristic."""
    vals = ring.valuations(m)
    if m == 1:
        raise ValueError("quotient by the whole ring is degenerate")
    return QuotientMap(_truncate(ring, vals), ring.reduction(m)[0].__getitem__)


def ideal_model(ring: CGRing, m: int) -> CGRing:
    """The model ring of mR, for a proper divisor m of the characteristic:
    component i mod p_i^(n_i - v_i), dropped where mR has no part."""
    if m == ring.char:
        raise ValueError("the zero ideal does not carry a ring structure")
    return _truncate(ring, [comp.n - v for comp, v in zip(ring.components, ring.valuations(m))])


def ideal_ring(ring: CGRing, m: int) -> IdealRingMap:
    """Ring structure on mR: ideal_model, and the embed row, the lift of
    coefficients scaled by the integer m."""
    model, vals = ideal_model(ring, m), ring.valuations(m)
    embed = mixed_radix_sum(_recode(comp.d, comp.p**(comp.n - v), comp.char, shift, m)
                            for comp, v, shift in zip(ring.components, vals, ring.shifts)
                            if v < comp.n)
    return IdealRingMap(model, embed.__getitem__)


def make_cg_ring(components, max_size: int = DEFAULT_MAX_RING_SIZE) -> CGRing:
    """Build a product ring from (p, n, d) tuples, one per component GR(p^n, d)."""
    ring = CGRing([make_galois_ring(p, n, d, max_size=max_size) for p, n, d in components])
    if ring.size > max_size:
        raise ValueError(f"{ring.spec()} exceeds the size limit {max_size}")
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
        base, d = int(base), int(d or 1)
        if power_exceeds(base, int(exp or 1) * d, max_size):  # before any number theory
            raise ValueError(f"{token!r} exceeds the size limit {max_size}")
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
        comps.append((p, n, d))
    return make_cg_ring(comps, max_size=max_size)
