"""Exact character sums and dual Schur rings.

Character values live in Z[x]/(Phi_c(x)) with Phi_c the c-th cyclotomic
polynomial, so equality of character sums is decided exactly.  The
generating character is assembled from the component traces, and every
character of the additive group is chi(r*.) for a unique r, which lets
dual Schur rings live on the same element indices as the source ring.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cgring import CGRing
from .galois import TABLE_LIMIT
from .sring import (
    SRing,
    StructureError,
    is_tensor_over,
    proper_prime_splits,
    quotient_sring,
    restrict,
    wreath_pairs,
)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials known to divide exactly (monic den)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coef = num[i + len(den) - 1]
        out[i] = coef
        for j, d in enumerate(den):
            num[i + j] -= coef * d
    if any(num):
        raise ArithmeticError("division left a remainder")
    return out


def cyclotomic_polynomial(c: int) -> tuple[int, ...]:
    """Coefficients of Phi_c, low degree first."""
    if c < 1:
        raise ValueError("conductor must be positive")
    memo: dict[int, list[int]] = {}

    def build(n: int) -> list[int]:
        if n not in memo:
            num = [-1] + [0] * (n - 1) + [1]
            for d in range(1, n):
                if n % d == 0:
                    num = _poly_div_exact(num, build(d))
            memo[n] = num
        return memo[n]

    return tuple(build(c))


@dataclass(frozen=True)
class CycInt:
    """An element of Z[x]/(Phi_c), stored as phi(c) integer coefficients."""

    c: int
    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coeffs)


class CharacterTable:
    """Exponent table e with chi(r*x) = zeta_c^e(rx), plus reduced zeta powers.

    The exponent map combines the component traces, scaled so each
    component contributes on its own coprime part of the conductor.
    Faithfulness of r -> chi(r*.) is checked exhaustively on build.

    Each reduced power row is also packed into one int (Kronecker
    substitution), coefficient i in the signed digit i of `width` bits.
    A sum over at most |R| elements keeps every digit below
    2**(width - 1) in absolute value, so packed sums are equal exactly
    when their coefficient vectors are.
    """

    def __init__(self, ring: CGRing):
        self.ring = ring
        c = ring.char
        self.c = c
        modulus = cyclotomic_polynomial(c)
        self.phi = len(modulus) - 1

        rows: list[tuple[int, ...]] = []
        row = [1] + [0] * (self.phi - 1)
        for _ in range(c):
            rows.append(tuple(row))
            lead = row[-1]
            row = [0] + row[:-1]
            if lead:
                for i in range(self.phi):
                    row[i] -= lead * modulus[i]
                row = row[: self.phi]
        self.power_rows = rows
        bound = ring.size * max(abs(a) for row in rows for a in row)
        self.width = bound.bit_length() + 1
        self.packed = [self.pack(row) for row in rows]

        weights = [c // comp.char for comp in ring.components]
        self.exponent = [
            sum(w * comp.trace(part) for w, comp, part in
                zip(weights, ring.components, ring.parts(x))) % c
            for x in ring.elements()
        ]
        if ring.size <= TABLE_LIMIT:
            ring.mul_table()
        for s in ring.elements():
            if s and all(self.exponent[ring.mul(s, x)] == 0 for x in ring.elements()):
                raise StructureError(f"generating character not faithful at {s}")
        self._packed_exponent = [self.packed[e] for e in self.exponent]

    def _sum_key(self, r: int, S: Iterable[int]) -> tuple[int, ...]:
        mul, exponent = self.ring.mul, self.exponent
        counts: Counter[int] = Counter(exponent[mul(r, x)] for x in S)
        total = [0] * self.phi
        for k, n in counts.items():
            row = self.power_rows[k]
            for i in range(self.phi):
                total[i] += n * row[i]
        return tuple(total)

    def char_sum(self, r: int, S: Iterable[int]) -> CycInt:
        return CycInt(self.c, self._sum_key(r, S))

    def pack(self, coeffs: Iterable[int]) -> int:
        """The packed int of a coefficient vector."""
        return sum(a << (self.width * i) for i, a in enumerate(coeffs))

    def packed_row(self, r: int) -> list[int]:
        """The packed value of chi(r*x), indexed by x."""
        mul, values = self.ring.mul, self._packed_exponent
        return [values[mul(r, x)] for x in self.ring.elements()]

    def packed_sum(self, r: int, S: Iterable[int]) -> int:
        """The packed character sum of chi(r*.) over S."""
        mul, values = self.ring.mul, self._packed_exponent
        return sum(values[mul(r, x)] for x in S)


_TABLES: dict[CGRing, CharacterTable] = {}


def character_table(ring: CGRing) -> CharacterTable:
    if ring not in _TABLES:
        _TABLES[ring] = CharacterTable(ring)
    return _TABLES[ring]


def dual_classes(table: CharacterTable, classes: Sequence[Iterable[int]]) -> list[list[int]]:
    """Group r by the vector of packed character sums over the given classes."""
    groups: dict[tuple, list[int]] = {}
    for r in table.ring.elements():
        values = table.packed_row(r).__getitem__
        key = tuple(sum(map(values, X)) for X in classes)
        groups.setdefault(key, []).append(r)
    return list(groups.values())


def dual_sring(A: SRing, table: CharacterTable | None = None) -> SRing:
    """The dual Schur ring: dual_classes of A, with the rank checked."""
    table = table or character_table(A.ring)
    B = SRing(A.ring, dual_classes(table, A.classes))
    if B.rank != A.rank:
        raise StructureError(f"dual rank {B.rank} differs from rank {A.rank}")
    return B


def perp_of_ideal(ring: CGRing, m: int, table: CharacterTable | None = None) -> frozenset[int]:
    """Characters annihilating mR, as element labels; equals (c/m)R."""
    table = table or character_table(ring)
    members = ring.ideal(m)
    return frozenset(
        r for r in ring.elements()
        if all(table.exponent[ring.mul(r, x)] == 0 for x in members)
    )


# -- duality laws as a checkable report ----------------------------------------


@dataclass(frozen=True)
class DualityReport:
    ok: bool
    failures: tuple[str, ...]

    def to_doc(self) -> dict:
        return {"ok": self.ok, "failures": list(self.failures)}


def check_duality(A: SRing) -> DualityReport:
    """Verify the duality laws on one Schur ring; failures mean bugs."""
    ring = A.ring
    c = ring.char
    table = character_table(ring)
    B = SRing(ring, dual_classes(table, A.classes))
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


@dataclass(frozen=True)
class SeparationReport:
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
    are reported, or left None as a refutation on non-pure orbits.
    """
    K = frozenset(K)
    S, S2 = frozenset(S), frozenset(S2)
    if not S:
        raise ValueError("S must be nonempty")
    orbit = ring.orbit(K, next(iter(S)))
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
