"""Schur rings over a product ring, represented as verified partitions.

A Schur ring is stored as its partition of the element indices into
classes.  Four axioms make a partition a Schur ring here: {0} is a
class, classes are closed under negation, the additive convolution of
any two classes has constant multiplicity on every class, and u*X is a
class for every unit u.  Verification reports witnesses instead of
raising, so broken inputs can be inspected.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, combinations, product
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

from .cgring import CGRing, ideal_ring, parse_ring_spec, quotient
from .galois import DEFAULT_MAX_RING_SIZE


class PartitionError(ValueError):
    """The given classes do not partition the ring."""


class StructureError(RuntimeError):
    """An internal Schur ring law failed; the input partition is broken."""


def labels(keys: Iterable[Hashable]) -> list[int]:
    """Number the keys by first appearance: the label vector of the partition
    that puts two positions in one class exactly when their keys are equal."""
    ids: dict[Hashable, int] = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


class SRing:
    """A partition of a CGRing into classes, ordered by least element.

    class_of[x] is the number of the class of x, so classes are numbered
    by first appearance in element order: the canonical label vector,
    which two SRings over one ring share exactly when they are equal.
    """

    def __init__(self, ring: CGRing, classes: Iterable[Iterable[int]]):
        """The checked constructor: each member is checked as given, before
        any set merges True into 1 or a repeated member into one."""
        raw = [list(X) for X in classes]
        for X in raw:
            if not X:
                raise PartitionError("empty class")
            for x in X:
                if not ring.is_element(x):
                    raise PartitionError(f"element {x!r} outside the ring")
        raw.sort(key=min)
        class_of = [-1] * ring.size
        for k, X in enumerate(raw):
            for x in X:
                if class_of[x] != -1:
                    raise PartitionError(f"element {x} covered twice")
                class_of[x] = k
        if -1 in class_of:
            raise PartitionError(f"element {class_of.index(-1)} not covered")
        self.ring, self.classes, self.class_of = ring, tuple(map(frozenset, raw)), class_of

    @classmethod
    def from_labels(cls, ring: CGRing, class_of: list[int]) -> SRing:
        """The partition of a canonical label vector, unchecked: the caller
        owns that class_of numbers |R| elements by first appearance."""
        members: list[list[int]] = [[] for _ in range(max(class_of) + 1)]
        for x, k in enumerate(class_of):
            members[k].append(x)
        A = cls.__new__(cls)
        A.ring, A.classes, A.class_of = ring, tuple(map(frozenset, members)), class_of
        return A

    @property
    def rank(self) -> int:
        return len(self.classes)

    def __repr__(self) -> str:
        return f"SRing({self.ring.spec()}, rank {self.rank})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SRing):
            return NotImplemented
        return self.ring == other.ring and self.class_of == other.class_of

    def __hash__(self) -> int:
        return hash((self.ring, tuple(self.class_of)))

    def class_containing(self, x: int) -> frozenset[int]:
        return self.classes[self.class_of[x]]

    def is_class(self, X: frozenset[int]) -> bool:
        """Whether the set X of elements is a class."""
        return bool(X) and self.class_containing(next(iter(X))) == X

    def is_aset(self, X: Iterable[int]) -> bool:
        """Whether X is a union of classes (the empty union counts): the
        classes X meets hold exactly |X| elements."""
        X = frozenset(X)
        met = set(map(self.class_of.__getitem__, X))
        return sum(len(self.classes[k]) for k in met) == len(X)

    # -- intrinsic structure ------------------------------------------------

    def a_ideal_divisors(self) -> list[int]:
        """Divisors m such that the ideal mR is a union of classes."""
        return [m for m in self.ring.divisors() if self.is_aset(self.ring.ideal(m))]

    def is_dense(self) -> bool:
        return len(self.a_ideal_divisors()) == len(self.ring.divisors())

    def unit_class_indices(self) -> list[int]:
        units = self.ring.unit_set()
        return [k for k, X in enumerate(self.classes) if not X.isdisjoint(units)]

    @cached_property
    def _unit_lower_ideals(self) -> set[int]:
        return {self.ring.lower_ideal(self.classes[k]) for k in self.unit_class_indices()}

    def lower_ideal(self) -> int:
        """The common lower ideal of the classes that meet the units.

        All such classes share one lower ideal; disagreement means the
        partition is not a Schur ring, and every call raises.  The lower
        ideals are found once per SRing.
        """
        found = self._unit_lower_ideals
        if len(found) != 1:
            raise StructureError(f"unit classes disagree on the lower ideal: {sorted(found)}")
        return next(iter(found))

    def is_pure(self) -> bool:
        return self.lower_ideal() == self.ring.char

    def is_rational(self, primes: Iterable[int] | None = None) -> bool:
        """Whether every class is fixed setwise by the chosen component units."""
        own = set(self.ring.primes)
        keep = set(primes) if primes is not None else own
        if keep - own:
            raise ValueError(f"primes {sorted(keep - own)} are not primes of {self.ring.spec()}")
        # The units fixing every class form a group, so generators suffice.
        ring, class_of = self.ring, self.class_of
        for ci, comp in enumerate(ring.components):
            if comp.p not in keep:
                continue
            for row in ring.generate(ring.embed_component_units(ci))[1]:
                if list(map(class_of.__getitem__, row)) != class_of:
                    return False
        return True

    def to_doc(self) -> dict:
        return {
            "ring": self.ring.spec(),
            "classes": [sorted(X) for X in self.classes],
        }


def sring_from_doc(doc: dict, max_size: int = DEFAULT_MAX_RING_SIZE) -> SRing:
    ring = parse_ring_spec(doc["ring"], max_size=max_size)
    return SRing(ring, doc["classes"])


# -- verification ------------------------------------------------------------


class VerifyReport(NamedTuple):
    ok: bool
    failures: tuple[dict, ...]

    def to_doc(self) -> dict:
        return {"ok": self.ok, "failures": [dict(f) for f in self.failures]}


def verify_sring(ring: CGRing, classes: Sequence[Iterable[int]]) -> VerifyReport:
    """Check the four Schur ring axioms, reporting witnesses for failures.

    Unit invariance is checked on a generating set of the units; only
    when a generator moves a class are all units scanned, in order, for
    the first witness.  A partition with {0} as a class spans an algebra
    exactly when its character-sum dual has the same rank, so when no
    other axiom has failed, equal ranks settle the convolution axiom
    without the scan over class pairs.  Otherwise that scan runs and
    reports every failing pair and class.
    """
    from .duality import _dual_partition, character_table  # .duality imports this module

    try:
        A = SRing(ring, classes)
    except PartitionError as err:
        return VerifyReport(False, ({"axiom": "partition", "witness": str(err)},))
    failures: list[dict] = []

    if not A.is_class(frozenset({0})):
        failures.append({"axiom": "zero-class", "witness": sorted(A.class_containing(0))})

    minus = ring.mul_row(ring.neg(ring.one)).__getitem__
    for k, X in enumerate(A.classes):
        image = frozenset(map(minus, X))
        if not A.is_class(image):
            failures.append({"axiom": "negation", "class": k, "witness": sorted(image)})

    perms = ring.class_permutations(A.class_of)
    for u in () if perms is not None else ring.units():
        row = ring.mul_row(u)
        for k, X in enumerate(A.classes):
            image = frozenset(row[x] for x in X)
            if not A.is_class(image):
                failures.append({"axiom": "unit-invariance", "unit": u, "class": k})
                break
        else:
            continue
        break

    if not failures and max(_dual_partition(character_table(ring), A.classes, perms)) + 1 == A.rank:
        return VerifyReport(True, ())
    for i, X in enumerate(A.classes):
        for j in range(i, A.rank):
            Y = A.classes[j]
            counts: Counter[int] = Counter()
            for x in X:
                for y in Y:
                    counts[ring.add(x, y)] += 1
            # A class that misses the support has all counts 0, so only
            # the classes meeting it can fail; scanned in class order.
            for k in sorted({A.class_of[z] for z in counts}):
                Z = A.classes[k]
                values = {counts[z] for z in Z}
                if len(values) > 1:
                    zs = sorted(Z, key=lambda z: counts[z])
                    failures.append({
                        "axiom": "convolution",
                        "pair": [i, j],
                        "class": k,
                        "witness": {str(zs[0]): counts[zs[0]], str(zs[-1]): counts[zs[-1]]},
                    })
    return VerifyReport(not failures, tuple(failures))


# -- constructions -----------------------------------------------------------


def cyclotomic(ring: CGRing, K: Iterable[int]) -> SRing:
    """The Schur ring whose classes are the orbits of a unit subgroup.

    orbit_partition checks, at its one generate, that K is a unit subgroup.
    """
    K = list(K)  # checked before the set merges True into 1
    for k in K:
        if not ring.is_element(k):
            raise ValueError(f"unit {k!r} is not an element index of {ring.spec()}")
    return SRing(ring, ring.orbit_partition(frozenset(K)))


def schur_closure(ring: CGRing, seeds: Sequence[Iterable[int]] = ()) -> SRing:
    """The smallest dense Schur ring whose A-sets include the seeds.

    Dense means every ideal is an A-set, and the ideals are simply extra
    seeds: over GR(9) the seed {1, ..., 8} gives rank 3, although {0},
    {1, ..., 8} is a Schur ring.  The start partition is the atoms of
    the family of every unit translate u*S of a seed and every ideal mR:
    x and y share a start class when each of these sets holds both or
    neither.  The translates cost one mul_row per seed element, read at
    the |U| units.  The zero ideal makes {0} a class, and every Schur ring
    keeping the family as A-sets refines the start.  Each round
    replaces P by its double character-sum dual P**.  P** refines P, and
    taking the dual preserves refinement, so a Schur ring S refining P
    also refines P** (S** = S); the dual is always closed under negation
    and keeps unit invariance.  The loop stops when P and P* have equal
    rank, which by the duality criterion makes P a Schur ring, and then
    the smallest one refining the start partition.
    """
    from .duality import _dual, character_table  # .duality imports this module

    seed_sets = []
    for S in seeds:
        S = list(S)
        for x in S:
            if not ring.is_element(x):
                raise ValueError(f"seed element {x!r} is not an element index of {ring.spec()}")
        seed_sets.append(frozenset(S))
    units = ring.units()
    translates = (T for S in seed_sets
                  for T in zip(*([row[u] for u in units] for row in map(ring.mul_row, S))))
    marks: list[list[int]] = [[] for _ in ring.elements()]
    for i, T in enumerate(chain(map(ring.ideal, ring.divisors()), translates)):
        for x in T:
            marks[x].append(i)
    table = character_table(ring)
    P = SRing.from_labels(ring, labels(map(tuple, marks)))
    while True:
        D = _dual(table, P)
        if D.rank == P.rank:
            return P
        P = _dual(table, D)


# -- derived rings -----------------------------------------------------------


def restrict(A: SRing, m: int) -> SRing:
    """The Schur ring induced on the ideal mR, read in its model ring."""
    members = A.ring.ideal(m)
    if not A.is_aset(members):
        raise ValueError(f"the ideal {m}R is not an A-ideal")
    sub = ideal_ring(A.ring, m)
    # the section map's keys are embed(j), in model element order j
    return SRing.from_labels(sub.ring, labels(map(A.class_of.__getitem__, sub.section_map())))


def quotient_sring(A: SRing, m: int) -> SRing:
    """The image of A in R/mR; m = characteristic means quotient by 0."""
    if not A.is_aset(A.ring.ideal(m)):
        raise ValueError(f"the ideal {m}R is not an A-ideal")
    q = quotient(A.ring, m)
    images = {frozenset(q.pi(x) for x in X) for X in A.classes}
    try:
        return SRing(q.ring, images)
    except PartitionError as err:
        raise StructureError(f"quotient images do not partition: {err}") from err


def tensor(A1: SRing, A2: SRing) -> SRing:
    """Tensor product over the product of the two underlying rings."""
    ring = CGRing(A1.ring.components + A2.ring.components)
    # element x + y*|R1| is keyed by (class of y, class of x), in index order
    return SRing.from_labels(ring, labels(product(A2.class_of, A1.class_of)))


class TensorSplit(NamedTuple):
    ok: bool
    reason: str | None
    primes: frozenset[int]
    left: SRing | None
    right: SRing | None


def proper_prime_splits(ring: CGRing) -> Iterator[frozenset[int]]:
    """Nonempty proper subsets of the ring's primes, smallest first."""
    primes = sorted(ring.primes)
    for size in range(1, len(primes)):
        for Q in combinations(primes, size):
            yield frozenset(Q)


def is_tensor_over(A: SRing, primes: Iterable[int]) -> TensorSplit:
    """Test whether A is the tensor product of its parts over a prime split.

    Succeeds iff both component ideals are A-ideals and every class is
    the product of its two projections; the factors are returned as
    Schur rings over the component rings.
    """
    ring = A.ring
    Q = frozenset(primes)
    Qc = frozenset(ring.primes) - Q
    if not Q or not Qc:
        return TensorSplit(False, "the prime split must be proper", Q, None, None)
    if not Q <= set(ring.primes):
        return TensorSplit(False, f"primes {sorted(Q - set(ring.primes))} not in the ring", Q, None, None)
    m_left, m_right = ring.component_divisor(Q), ring.component_divisor(Qc)
    for m in (m_left, m_right):
        if not A.is_aset(ring.ideal(m)):
            return TensorSplit(False, f"the ideal {m}R is not an A-ideal", Q, None, None)
    to_Q, to_Qc = ring.projection_row(Q).__getitem__, ring.projection_row(Qc).__getitem__
    for X in A.classes:
        # x -> (x_Q, x_Qc) is injective, so equal sizes make X = XQ + XQc
        if len(set(map(to_Q, X))) * len(set(map(to_Qc, X))) != len(X):
            return TensorSplit(False, f"class {sorted(X)} is not a product set", Q, None, None)
    return TensorSplit(True, None, Q, restrict(A, m_left), restrict(A, m_right))


# -- wreath structure --------------------------------------------------------


class WreathCert(NamedTuple):
    """A-ideals I = outer*R and J = inner*R with J inside IL(X) meet I
    for every class X outside I; nontrivial when I is proper and J nonzero."""

    outer: int
    inner: int
    nontrivial: bool


def wreath_pairs(A: SRing) -> list[WreathCert]:
    """All ordered A-ideal pairs satisfying the layering condition."""
    ring = A.ring
    ideals = A.a_ideal_divisors()
    lower = [ring.lower_ideal(X) for X in A.classes]
    out = []
    for m_outer in ideals:
        members = ring.ideal(m_outer)
        outside = [k for k, X in enumerate(A.classes) if not X <= members]
        for m_inner in ideals:
            if m_inner % m_outer:
                continue
            if all(m_inner % lower[k] == 0 for k in outside):
                nontrivial = m_outer != 1 and m_inner != ring.char
                out.append(WreathCert(m_outer, m_inner, nontrivial))
    return out


def has_nontrivial_wreath(A: SRing) -> bool:
    return any(cert.nontrivial for cert in wreath_pairs(A))


# -- Schur-Wielandt maps -------------------------------------------------------


def power_map(A: SRing, X: Iterable[int], m: int) -> frozenset[int]:
    """The set m*X; a class again whenever gcd(m, |R|) = 1."""
    return A.ring.scale_set(X, m)


def frobenius_set(A: SRing, X: Iterable[int], p: int) -> frozenset[int]:
    """The set {p*x : x in X, |(x + H) meet X| not 0 mod p}, H the p-torsion."""
    ring = A.ring
    if ring.char % p:
        raise ValueError(f"{p} does not divide the characteristic")
    X = frozenset(X)
    H = ring.ideal(ring.char // p)
    out = []
    for x in X:
        hits = sum(1 for h in H if ring.add(x, h) in X)
        if hits % p:
            out.append(ring.scale(x, p))
    return frozenset(out)


def coset_count(A: SRing, m: int, X: Iterable[int]) -> int:
    """The constant |X meet (x + H)| over x in X, H = mR an A-ideal."""
    ring = A.ring
    H = ring.ideal(m)
    if not A.is_aset(H):
        raise ValueError(f"the ideal {m}R is not an A-ideal")
    X = frozenset(X)
    found = {sum(1 for h in H if ring.add(x, h) in X) for x in X}
    if len(found) != 1:
        raise StructureError(f"coset counts not constant: {sorted(found)}")
    return found.pop()
