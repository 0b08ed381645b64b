"""Exact character sums and dual Schur rings.

The generating character is assembled from the component traces, and
every character of the additive group is chi(r*.) for a unique r, which
lets dual Schur rings live on the same element indices as the source
ring.  The characteristics c_i of the components are coprime, so
Z[zeta_c] is the tensor product of the Z[zeta_(c_i)], and character
values are written in the tensor basis built from the prime-power bases
zeta^j, j < phi(c_i) (Bosma, "Canonical bases for cyclotomic fields",
1990).  Every value then has digits -1, 0 and 1, and equality of
character sums is decided exactly on integer digit vectors.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .cgring import CGRing
from .sring import (
    SRing,
    StructureError,
    is_tensor_over,
    labels,
    proper_prime_splits,
    quotient_sring,
    restrict,
    wreath_pairs,
)


class CharacterTable:
    """Exponent table e with chi(r*x) = zeta_c^e(rx), plus packed zeta powers.

    chi is the product of the component characters zeta_c^(w_i*tr_i)
    with weights w_i = c/c_i, so the exponent of x is the weighted sum
    of its component traces.  Each w_i is coprime to c_i, so chi(s*.)
    is trivial exactly when every component character at s_i is;
    faithfulness of r -> chi(r*.) is therefore checked per component on
    build, in O(sum |R_i|^2).

    zeta_c^e is the tensor product of zeta_(c_i)^(t_i), t_i = e/w_i mod
    c_i, each written in the basis zeta^j, j < phi(c_i), of its own
    prime-power field: for c_i = p^a and j < p^(a-1),
    zeta^(j+(p-1)p^(a-1)) = -sum over s < p-1 of zeta^(j+s*p^(a-1)).
    Every digit of a value is therefore -1, 0 or 1.  `packed[e]` holds
    the digits in one int (Kronecker substitution), digit k in the
    signed digit k of `width` bits, with component i at a digit stride
    of the product of phi(c_k) over k < i, component 0 least
    significant as in the exponent.  A sum over at most |R| elements
    keeps every digit at most |R| < 2**(width - 1) in absolute value,
    so packed sums are equal exactly when their digit vectors are.
    """

    def __init__(self, ring: CGRing):
        self.ring = ring
        c = ring.char
        self.c = c
        self.width = width = ring.size.bit_length() + 1

        # values[m] is the packed product of the component values
        # zeta_(c_i)^(t_i) at m = t_0 + c_0*t_1 + c_0*c_1*t_2 + ...: each
        # component value is a signed sum of shifted copies of the values
        # so far.  zeta_c^e has t_i = e/w_i mod c_i.
        values, self.phi, radix, crt = [1], 1, 1, []
        for comp in ring.components:
            ci, q = comp.char, comp.char // comp.p
            shifts = [width * self.phi * j for j in range(ci - q)]
            values = [v << shifts[t] for t in range(ci - q) for v in values] + [
                -sum(v << shifts[j + s * q] for s in range(comp.p - 1))
                for j in range(q) for v in values]
            self.phi *= ci - q
            crt.append((ci, pow(c // ci, -1, ci), radix))
            radix *= ci
        self.packed = [values[sum(e * inv % ci * r for ci, inv, r in crt)] for e in range(c)]

        # Mixed radix, component 0 least significant: each component
        # contributes w_i*tr_i to every element sharing its part.
        exponent = [0]
        shift = 1
        for comp in ring.components:
            traces = [comp.trace(a) for a in comp.elements()]
            kernel = [s for s in comp.elements()
                      if s and all(traces[comp.mul(s, x)] == 0 for x in comp.elements())]
            if kernel:
                # the least global s with chi(s*.) trivial has this part alone
                raise StructureError(f"generating character not faithful at {kernel[0] * shift}")
            w = c // comp.char
            exponent = [e + w * t for t in traces for e in exponent]
            shift *= comp.size
        self.exponent = [e % c for e in exponent]
        self._packed_exponent = [self.packed[e] for e in self.exponent]

    @cached_property
    def power_rows(self) -> list[tuple[int, ...]]:
        """The digit vector of zeta_c^e at each e, unpacked on first use."""
        full, half = 1 << self.width, 1 << (self.width - 1)
        rows = []
        for v in self.packed:
            row = []
            for _ in range(self.phi):
                digit = v % full
                if digit >= half:
                    digit -= full
                row.append(digit)
                v = (v - digit) >> self.width
            rows.append(tuple(row))
        return rows

    def packed_row(self, r: int) -> list[int]:
        """The packed value of chi(r*x), indexed by x: mul_row(r) read
        through the packed exponents."""
        values = self._packed_exponent
        return [values[s] for s in self.ring.mul_row(r)]

    def packed_sum(self, r: int, S: Iterable[int]) -> int:
        """The packed character sum of chi(r*.) over S."""
        mul, values = self.ring.mul, self._packed_exponent
        return sum(values[mul(r, x)] for x in S)


_TABLES: dict[CGRing, CharacterTable] = {}


def character_table(ring: CGRing) -> CharacterTable:
    if ring not in _TABLES:
        _TABLES[ring] = CharacterTable(ring)
    return _TABLES[ring]


def _dual_partition(table: CharacterTable, classes: Sequence[Iterable[int]],
                    perms: list[list[int]] | None) -> list[int]:
    """The label vector of r by the vector of packed character sums over
    the classes, given perms = class_permutations of their label vector.

    For a unit-invariant partition, the sum over X_k at g*r is the sum
    over g*X_k at r, so the key of g*r is the key of r with the classes
    permuted by g.  Then one packed row per unit orbit is summed, and
    the keys spread along the unit generators.  Any other partition
    (perms None) runs the same loop with every element a representative
    and no generators.  The packed sums are interned as small ints so
    keys stay short.

    Each generator's row g*R is the ring's kept unit row, paired with
    the itemgetter that permutes a key along it, so a spread key is one
    C-level call.  itemgetter of one index returns the bare item, so a
    one-class partition, which every unit fixes, keeps its key as it is.
    """
    ring = table.ring
    reps, steps = ring.elements(), []
    if perms is not None:
        reps = ring.orbit_representatives()
        steps = [(row, itemgetter(*perm) if len(perm) > 1 else tuple)
                 for row, perm in zip(ring.unit_rows(), perms)]
    keys: list = [None] * ring.size
    interned: dict[int, int] = {}
    for r0 in reps:
        values = table.packed_row(r0).__getitem__
        keys[r0] = tuple(interned.setdefault(sum(map(values, X)), len(interned))
                         for X in classes)
        frontier = [r0]
        while frontier:
            r = frontier.pop()
            key = keys[r]
            for row_g, move in steps:
                s = row_g[r]
                if keys[s] is None:
                    keys[s] = move(key)
                    frontier.append(s)
    assert None not in keys, "an element received no key"
    return labels(keys)


def _dual(table: CharacterTable, A: SRing) -> SRing:
    """The character-sum dual partition of any partition A, of A's rank
    when A is a Schur ring."""
    perms = A.ring.class_permutations(A.class_of)
    return SRing.from_labels(A.ring, _dual_partition(table, A.classes, perms))


def dual_sring(A: SRing, table: CharacterTable | None = None) -> SRing:
    """The dual Schur ring, with the rank checked."""
    B = _dual(table or character_table(A.ring), A)
    if B.rank != A.rank:
        raise StructureError(f"dual rank {B.rank} differs from rank {A.rank}")
    return B


def perp_of_ideal(ring: CGRing, m: int, table: CharacterTable | None = None) -> frozenset[int]:
    """Characters annihilating mR, as element labels; equals (c/m)R.

    chi(r*.) is additive, so it annihilates mR when it annihilates the
    additive generators g of mR: one mul_row per generator.
    """
    table = table or character_table(ring)
    exponent = table.exponent
    rows = [ring.mul_row(g) for g in ring.ideal_generators(m)]
    return frozenset(
        r for r in ring.elements()
        if all(exponent[row[r]] == 0 for row in rows)
    )


# -- duality laws as a checkable report ----------------------------------------


class DualityReport(NamedTuple):
    ok: bool
    failures: tuple[str, ...]

    def to_doc(self) -> dict:
        return {"ok": self.ok, "failures": list(self.failures)}


def check_duality(A: SRing) -> DualityReport:
    """Verify the duality laws on one Schur ring; failures mean bugs."""
    ring = A.ring
    c = ring.char
    table = character_table(ring)
    B = _dual(table, A)
    if B.rank != A.rank:
        return DualityReport(False, ("rank not preserved",))
    failures: list[str] = []
    if dual_sring(B, table) != A:
        failures.append("dual of the dual differs from the input")

    perp = {c // m for m in A.a_ideal_divisors()}
    dual_ideals = set(B.a_ideal_divisors())
    if perp != dual_ideals:
        failures.append("A-ideal sets do not correspond under m -> c/m")

    certs = {(w.outer, w.inner) for w in wreath_pairs(A)}
    swapped = {(c // inner, c // outer) for outer, inner in certs}
    dual_certs = {(w.outer, w.inner) for w in wreath_pairs(B)}
    if swapped != dual_certs:
        failures.append("wreath certificates do not swap to the dual")

    if A.is_pure() != B.is_pure():
        failures.append("purity not preserved by the dual")

    for Q in proper_prime_splits(ring):
        split, dual_split = is_tensor_over(A, Q), is_tensor_over(B, Q)
        if split.ok != dual_split.ok:
            failures.append(f"tensor split over {sorted(Q)} does not match the dual")
        elif split.ok:
            if (dual_sring(split.left) != dual_split.left
                    or dual_sring(split.right) != dual_split.right):
                failures.append(f"tensor factors over {sorted(Q)} are not dual factors")

    for m in A.a_ideal_divisors():
        if m == 1 or c // m not in dual_ideals:
            continue
        if dual_sring(quotient_sring(A, m)) != restrict(B, c // m):
            failures.append(f"dual of the quotient by {m}R is not the restriction to {c // m}R")

    return DualityReport(not failures, tuple(failures))


# -- separation ----------------------------------------------------------------


class SeparationReport(NamedTuple):
    orbit: frozenset[int]
    pure: bool
    separator: int | None
    nonzero: int | None

    @property
    def separated(self) -> bool:
        return self.separator is not None

    def to_doc(self) -> dict:
        return {
            "orbit": sorted(self.orbit),
            "pure": self.pure,
            "separator": self.separator,
            "nonzero": self.nonzero,
        }


def separation_check(ring: CGRing, K: Iterable[int], S: Iterable[int],
                     S2: Iterable[int]) -> SeparationReport:
    """Search for a unit character separating two subsets of one K-orbit.

    For a pure orbit the separating unit exists whenever S != S2, and
    some unit character has nonzero sum on a nonempty S; both witnesses
    are reported, or left None as a refutation on non-pure orbits.  The
    orbit is read from orbit_partition(K), which raises ValueError unless
    K is a unit subgroup.
    """
    S, S2 = frozenset(S), frozenset(S2)
    if not S:
        raise ValueError("S must be nonempty")
    x = next(iter(S))
    orbit = next((O for O in ring.orbit_partition(K) if x in O), frozenset())
    if not (S | S2) <= orbit:
        raise ValueError("S and S2 must lie in a single K-orbit")
    table = character_table(ring)
    separator = None
    nonzero = None
    for r in ring.units():
        key = table.packed_sum(r, S)
        if nonzero is None and key:
            nonzero = r
        if separator is None and S != S2 and key != table.packed_sum(r, S2):
            separator = r
        if nonzero is not None and (separator is not None or S == S2):
            break
    return SeparationReport(orbit, ring.is_pure_set(orbit), separator, nonzero)
