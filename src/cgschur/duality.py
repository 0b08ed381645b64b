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

On a unit-invariant partition the dual is found per unit orbit: each
element is keyed by its sums over one head class per orbit of the class
permutations, and the dual is the coarsest unit-invariant refinement of
those head keys (Muzychuk and Ponomarenko, "Schur rings", Eur. J.
Combin. 30, 2009, for the duality).  SRing.kernel_dual, the one caller
of the kernel, keeps the dual on its SRing.  dual_sring answers an orbit
partition as its own dual, with no table built; check_duality reads
kernel_dual always.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .cgring import CGRing, _orbit_labels
from .galois import mixed_radix_sum
from .sring import (
    SRing,
    StructureError,
    VerifyReport,
    _element_set,
    cyclotomic,
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
        weighted = []
        for comp, shift in zip(ring.components, ring.shifts):
            traces = [comp.trace(a) for a in comp.elements()]
            kernel = [s for s in comp.elements()
                      if s and all(traces[comp.mul(s, x)] == 0 for x in comp.elements())]
            if kernel:
                # the least global s with chi(s*.) trivial has this part alone
                raise StructureError(f"generating character not faithful at {kernel[0] * shift}")
            weighted.append([c // comp.char * t for t in traces])
        self.exponent = [e % c for e in mixed_radix_sum(weighted)]
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

    @cached_property
    def representative_rows(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(r, packed_row(r)) for each unit-orbit representative r of
        ring.orbit_representatives(), built on first use and kept as
        tuples, which every dual of a unit-invariant partition reads."""
        return tuple((r, tuple(self.packed_row(r))) for r in self.ring.orbit_representatives())


def character_table(ring: CGRing) -> CharacterTable:
    """The ring's character table, built on first use and kept on the ring."""
    if ring._character_table is None:
        ring._character_table = CharacterTable(ring)
    return ring._character_table


def _dual_partition(table: CharacterTable, classes: Sequence[Iterable[int]],
                    perms: list[list[int]] | None) -> list[int]:
    """The label vector of r by the vector of packed character sums over
    the classes, given perms = class_permutations of their label vector.

    On a unit-invariant partition it rests on two facts.  The sum over
    X_k at u*r is the sum over u*X_k at r, so key(u*r) = key(r) o pi_u,
    pi_u being the class permutation of u.  And every class is pi_u of a
    head, one class per orbit of the class permutations, so x and y
    share a dual class exactly when u*x and u*y share a class of Q for
    every unit u, Q being the partition by the sums over the heads
    alone: the dual is the coarsest unit-invariant refinement of Q.

    So each element holds a small int, not a rank-length key: the
    number of its configuration, the head tuple's image under pi_u,
    spread from each unit-orbit representative along the kept unit rows
    with one transition list per generator, and then the number of its
    head key.  The sums of a representative are read from the table's
    kept packed row for the classes its configurations name, and
    interned as small ints.  Q is then refined by Q o g for each
    generator row g until the rank stops growing; units commute, so a
    refinement invariant under the generators before g stays so.  Any
    other partition (perms None) runs the same loop with every element
    a representative and no generators.  A discrete partition has the
    discrete dual, characters being distinct.
    """
    ring = table.ring
    if len(classes) == ring.size:
        return list(range(ring.size))
    if perms is None:
        reps = ((r, table.packed_row(r)) for r in ring.elements())
        rows, perms = (), ()
    else:
        reps, rows = table.representative_rows, ring.unit_rows()
    # the class permutations commute, as the units do
    orbit = _orbit_labels(len(classes), perms)
    heads = tuple(map(orbit.index, range(max(orbit) + 1)))
    # the head tuple's images under the class permutations, numbered, and
    # per generator the number of the image of each
    configs, number, moves = [heads], {heads: 0}, [[] for _ in perms]
    for config in configs:
        for perm, move in zip(perms, moves):
            image = tuple(map(perm.__getitem__, config))
            if image not in number:
                number[image] = len(configs)
                configs.append(image)
            move.append(number[image])
    steps = list(zip(rows, moves))
    config_of = [-1] * ring.size
    sums = [0] * len(classes)
    interned: dict[int, int] = {}
    distinct: dict[tuple, int] = {}
    for r0, packed in reps:
        config_of[r0] = 0
        reached = [r0]
        for r in reached:
            config = config_of[r]
            for row, move in steps:
                s = row[r]
                if config_of[s] < 0:
                    config_of[s] = move[config]
                    reached.append(s)
        seen = set(map(config_of.__getitem__, reached))
        values = packed.__getitem__
        for k in set().union(*map(configs.__getitem__, seen)):
            sums[k] = interned.setdefault(sum(map(values, classes[k])), len(interned))
        label = {config: distinct.setdefault(tuple(map(sums.__getitem__, configs[config])),
                                             len(distinct)) for config in seen}
        for r in reached:
            config_of[r] = label[config_of[r]]
    assert -1 not in config_of, "an element received no key"
    q, rank = config_of, len(distinct)
    for row in rows:
        while rank < ring.size:
            q = labels(zip(q, map(q.__getitem__, row)))
            if max(q) + 1 == rank:
                break
            rank = max(q) + 1
    return labels(q)


def dual_sring(A: SRing) -> SRing:
    """The dual Schur ring, with the rank checked.

    A partition into the orbits of a unit subgroup K (A.orbit_subgroup())
    is its own dual: chi(r*kx) = chi(kr*x), so the K-orbits of characters
    lie inside dual classes, and the ranks agree.  Such an A is returned
    itself, keeping K, with no character table built.  Any other
    partition reads A.kernel_dual, which records no back-link, so
    check_duality still dualises it.
    """
    if A.orbit_subgroup() is not None:
        return A
    B = A.kernel_dual
    if B.rank != A.rank:
        raise StructureError(f"dual rank {B.rank} differs from rank {A.rank}")
    return B


def perp_of_ideal(ring: CGRing, m: int) -> frozenset[int]:
    """Characters annihilating mR, as element labels; equals (c/m)R.

    chi(r*.) is additive, so it annihilates mR when it annihilates the
    additive generators g of mR: one mul_row per generator.
    """
    exponent = character_table(ring).exponent
    rows = [ring.mul_row(g) for g in ring.ideal_generators(m)]
    return frozenset(
        r for r in ring.elements()
        if all(exponent[row[r]] == 0 for row in rows)
    )


# -- duality laws as a checkable report ----------------------------------------


def check_duality(A: SRing) -> VerifyReport:
    """Verify the duality laws on one Schur ring; failures mean bugs.

    Every dual here, of A, of its dual and of its tensor factors and
    quotients, is the kernel_dual of its SRing, orbit rings too, so the
    laws test the kernel rather than the orbit-ring answer of dual_sring.
    """
    ring = A.ring
    c = ring.char
    B = A.kernel_dual
    if B.rank != A.rank:
        return VerifyReport(False, ("rank not preserved",))
    failures: list[str] = []
    if B.kernel_dual != A:
        failures.append("dual of the dual differs from the input")

    ideals = A.a_ideal_divisors()
    perp = {c // m for m in ideals}
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
            if (split.left.kernel_dual != dual_split.left
                    or split.right.kernel_dual != dual_split.right):
                failures.append(f"tensor factors over {sorted(Q)} are not dual factors")

    for m in ideals:
        if m == 1 or c // m not in dual_ideals:
            continue
        if quotient_sring(A, m).kernel_dual != restrict(B, c // m):
            failures.append(f"dual of the quotient by {m}R is not the restriction to {c // m}R")

    return VerifyReport(not failures, tuple(failures))


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
    orbit is the class of x in cyclotomic(ring, K), which raises
    ValueError unless K is a unit subgroup.  Each sum reads the packed
    value of chi(r*x) at the members x of S and S2 alone, one product
    each.
    """
    S, S2 = _element_set(ring, S, "S member"), _element_set(ring, S2, "S2 member")
    if not S:
        raise ValueError("S must be nonempty")
    x = next(iter(S))
    orbit = cyclotomic(ring, K).class_containing(x)
    if not (S | S2) <= orbit:
        raise ValueError("S and S2 must lie in a single K-orbit")
    values, mul = character_table(ring)._packed_exponent, ring.mul
    separator = None
    nonzero = None
    for r in ring.units():
        key = sum(values[mul(r, x)] for x in S)
        if nonzero is None and key:
            nonzero = r
        if separator is None and S != S2 and key != sum(values[mul(r, x)] for x in S2):
            separator = r
        if nonzero is not None and (separator is not None or S == S2):
            break
    return SeparationReport(orbit, ring.is_pure_set(orbit), separator, nonzero)
