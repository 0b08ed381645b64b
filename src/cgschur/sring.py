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
from itertools import combinations, compress, product
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

from .cgring import (CGRing, CheckFailedError, EmptySetError, _orbit_labels, ideal_model,
                     label_classes, parse_ring_spec, quotient)
from .galois import DEFAULT_MAX_RING_SIZE


class PartitionError(ValueError):
    """The given classes do not partition the ring."""


class StructureError(CheckFailedError):
    """An internal Schur ring law failed; the input partition is broken."""


def _element_set(ring: CGRing, X: Iterable[int], what: str) -> frozenset[int]:
    """X as a frozenset, each member checked to be an element index as
    given, before the set merges True into 1."""
    X = list(X)
    for x in X:
        if not ring.is_element(x):
            raise ValueError(f"{what} {x!r} is not an element index of {ring.spec()}")
    return frozenset(X)


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
    The constructors store only it; the classes are built from it on
    first read.
    A ring whose classes are the orbits of a unit subgroup K keeps K once
    known: a ring from cyclotomic holds K and its generator rows, counts
    its rank from K and walks its labels from the rows when first read;
    any other learns K from orbit_subgroup, at most once.  Such a ring
    answers its lower ideals, purity and density, and verify the axioms,
    from K, and dual_sring returns it as its own dual.
    Each SRing keeps, once found, its verify report, class permutations
    and kernel_dual, which verify, dual_sring and schur_closure share; no
    other module reads or writes its private fields.
    """

    # K once known: set by cyclotomic or orbit_subgroup; the empty set
    # once orbit_subgroup has found no K (a subgroup always holds 1)
    _subgroup: frozenset[int] | None = None
    _verdict: VerifyReport | None = None  # the report of verify, once found
    _generator_rows: list[list[int]] | None = None  # set by cyclotomic, dropped once class_of is built

    def __init__(self, ring: CGRing, classes: Iterable[Iterable[int]]):
        """The checked constructor: each member is checked as given, before
        any set merges True into 1 or a repeated member into one, and only
        the label vector is stored, as from_labels does."""
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
        self.ring, self.class_of = ring, class_of

    @classmethod
    def from_labels(cls, ring: CGRing, class_of: list[int]) -> SRing:
        """The partition of a canonical label vector, unchecked: the caller
        owns that class_of numbers |R| elements by first appearance.  Only
        the vector is stored; classes and rank are read from it when asked."""
        A = cls.__new__(cls)
        A.ring, A.class_of = ring, class_of
        return A

    @cached_property
    def class_of(self) -> list[int]:
        """The label vector the constructors set; a ring from cyclotomic
        walks it from K's generator rows on first read and drops them."""
        rows, self._generator_rows = self._generator_rows, None
        return _orbit_labels(self.ring.size, rows)

    @cached_property
    def classes(self) -> tuple[frozenset[int], ...]:
        """The classes in label order, built from class_of on first read."""
        return tuple(label_classes(self.class_of))

    @cached_property
    def rank(self) -> int:
        """The number of classes: the largest label plus one.  A ring from
        cyclotomic with no labels yet counts K's orbits by Burnside's
        lemma: the mean over k in K of the ring's fixed_point_counts."""
        if "class_of" not in self.__dict__:
            fixed = self.ring.fixed_point_counts()
            return sum(map(fixed.__getitem__, self._subgroup)) // len(self._subgroup)
        return max(self.class_of) + 1

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

    @cached_property
    def _class_perms(self) -> list[list[int]] | None:
        """ring.class_permutations of the labels, found once per SRing."""
        return self.ring.class_permutations(self.class_of)

    @cached_property
    def _class_sizes(self) -> Counter[int]:
        """The size of each class by label, from one count of the labels."""
        return Counter(self.class_of)

    @cached_property
    def kernel_dual(self) -> SRing:
        """The character-sum dual partition, of this rank when this is a
        Schur ring; found by the kernel at most once per SRing and kept.
        The dual keeps no link back, so its own kernel_dual runs anew."""
        from .duality import _dual_partition, character_table  # .duality imports this module

        return SRing.from_labels(self.ring, _dual_partition(
            character_table(self.ring), self.classes, self._class_perms))

    def is_aset(self, X: Iterable[int]) -> bool:
        """Whether X is a union of classes (the empty union counts): the
        classes X meets hold exactly |X| elements, read from the class
        sizes with no class built."""
        X = frozenset(X)
        met = set(map(self.class_of.__getitem__, X))
        return sum(map(self._class_sizes.__getitem__, met)) == len(X)

    def orbit_subgroup(self) -> frozenset[int] | None:
        """The unit subgroup K whose orbits are the classes, or None when
        there is none; found at most once per SRing and kept.

        A ring from cyclotomic holds K already.  Otherwise K can only be
        the class of 1, the orbit of 1.  Each orbit has |K|/|Stab(x)|
        elements, so a class size that does not divide |K|, read from
        the count of the labels, rejects at once.  Else _subgroup_rows
        checks that K is a unit subgroup, and its orbits are compared
        with the labels.
        """
        if self._subgroup is None:
            ring, class_of, sizes = self.ring, self.class_of, self._class_sizes
            label = class_of[ring.one]
            self._subgroup = frozenset()
            if all(sizes[label] % size == 0 for size in sizes.values()):
                K = frozenset(compress(ring.elements(), map(label.__eq__, class_of)))
                rows = ring._subgroup_rows(K)
                if rows is not None and _orbit_labels(ring.size, rows) == class_of:
                    self._subgroup = K
        return self._subgroup or None

    def verify(self) -> VerifyReport:
        """Check the Schur ring axioms after the partition, with witnesses
        for failures; found at most once per SRing and kept.

        A ring that keeps its K is an orbit partition, a Schur ring.
        Otherwise unit invariance is read from the kept class permutations,
        negation (-1 is a unit) only when that fails.  If nothing failed,
        the convolution axiom holds for an orbit partition (the orbits of a
        group of additive automorphisms span an algebra) and for any other
        exactly when its kernel_dual has the same rank; else the scan
        over class pairs reports every failing pair and class.
        """
        if self._verdict is None:
            self._verdict = _check_axioms(self) if not self._subgroup else VerifyReport(True, ())
        return self._verdict

    # -- intrinsic structure ------------------------------------------------

    def a_ideal_divisors(self) -> list[int]:
        """Divisors m such that the ideal mR is a union of classes."""
        return [m for m in self.ring.divisors() if self.is_aset(self.ring.ideal(m))]

    def is_dense(self) -> bool:
        """Whether every ideal is a union of classes.

        The ideals are unions of the unit orbits, each the set where xR is
        constant, and each orbit is a difference of ideals; so A is dense
        exactly when no class meets two orbits, read against the ring's
        kept unit-orbit keys with no ideal built.  The orbits of a unit
        subgroup K lie inside unit orbits, so a ring that keeps its K is
        dense with no pass at all.
        """
        if self._subgroup:
            return True
        pairs = set(zip(self.class_of, self.ring.unit_orbit_keys()))
        return len(pairs) == self.rank

    def unit_class_indices(self) -> list[int]:
        """The numbers of the classes that meet the units, read from the
        labels at the units, in increasing order."""
        return sorted(set(map(self.class_of.__getitem__, self.ring.units())))

    @cached_property
    def unit_lower_ideals(self) -> dict[int, int]:
        """The lower ideal of each class that meets the units, keyed by class
        number in unit_class_indices order, found once per SRing."""
        return {k: self.ring.lower_ideal(self.classes[k]) for k in self.unit_class_indices()}

    @cached_property
    def _subgroup_lower_ideal(self) -> int:
        """The lower ideal of the kept K, found once per SRing."""
        return self.ring.lower_ideal(self._subgroup)

    def lower_ideal(self) -> int:
        """The common lower ideal of the classes that meet the units.

        All such classes share one lower ideal; disagreement means the
        partition is not a Schur ring, and every call raises.  A ring that
        keeps its K reads the lower ideal of K, with no label read.
        """
        if self._subgroup:
            return self._subgroup_lower_ideal
        found = set(self.unit_lower_ideals.values())
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
        # The units fixing every class form a group, so the rows grow
        # yields suffice, up to the first that moves a class.
        ring, class_of = self.ring, self.class_of
        units = (u for ci, comp in enumerate(ring.components) if comp.p in keep
                 for u in ring.embed_component_units(ci))
        return all(list(map(class_of.__getitem__, row)) == class_of for _, row, _ in ring.grow(units))

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
    """Whether a check held, and each failure it found."""

    ok: bool
    failures: tuple[dict | str, ...]

    def to_doc(self) -> dict:
        return {"ok": self.ok, "failures": list(self.failures)}


def verify_sring(ring: CGRing, classes: Sequence[Iterable[int]]) -> VerifyReport:
    """Check the four Schur ring axioms, reporting witnesses for failures:
    the partition first, then the others by SRing.verify."""
    try:
        A = SRing(ring, classes)
    except PartitionError as err:
        return VerifyReport(False, ({"axiom": "partition", "witness": str(err)},))
    return A.verify()


def _check_axioms(A: SRing) -> VerifyReport:
    """SRing.verify for a ring that keeps no K, failures in axiom order."""
    ring = A.ring
    failures: list[dict] = []

    if not A.is_class(frozenset({0})):
        failures.append({"axiom": "zero-class", "witness": sorted(A.class_containing(0))})

    if A._class_perms is None:
        minus = ring.mul_row(ring.neg(ring.one)).__getitem__
        for k, X in enumerate(A.classes):
            image = frozenset(map(minus, X))
            if not A.is_class(image):
                failures.append({"axiom": "negation", "class": k, "witness": sorted(image)})
        u, k = next((u, k) for u, row in zip(ring.unit_generators(), ring.unit_rows())
                    for k, X in enumerate(A.classes)
                    if not A.is_class(frozenset(map(row.__getitem__, X))))
        failures.append({"axiom": "unit-invariance", "unit": u, "class": k})

    if not failures and (A.orbit_subgroup() is not None or A.kernel_dual.rank == A.rank):
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

    One generate checks that K is a unit subgroup (ValueError otherwise)
    and gives its generator rows.  The ring keeps K and the rows, reads
    its rank, lower ideals and density from K, and walks its canonical
    label vector from the rows only when it is first read.
    """
    K = _element_set(ring, K, "unit")
    rows = ring._subgroup_rows(K)
    if rows is None:
        raise ValueError("K must be a subgroup of the units")
    A = SRing.__new__(SRing)
    A.ring, A._subgroup, A._generator_rows = ring, K, rows
    return A


def schur_closure(ring: CGRing, seeds: Sequence[Iterable[int]] = ()) -> SRing:
    """The smallest dense Schur ring whose A-sets include the seeds.

    Dense means every ideal is an A-set, and the ideals are simply extra
    seeds: over GR(9) the seed {1, ..., 8} gives rank 3, although {0},
    {1, ..., 8} is a Schur ring.  The start partition is the atoms of
    the family of every unit translate u*S of a seed and every ideal mR:
    x and y share a start class when each of these sets holds both or
    neither.  The atoms of the ideals alone are the unit orbits, so the
    start class of x is keyed by its kept unit-orbit key and the
    translates that hold it, with no ideal listed.  The translates cost
    one mul_row per seed element, read at the |U| units.  The zero ideal
    makes {0} a class, and every Schur ring keeping the family as
    A-sets refines the start.  Each round
    replaces P by its double character-sum dual P**.  P** refines P, and
    taking the dual preserves refinement, so a Schur ring S refining P
    also refines P** (S** = S); the dual is always closed under negation
    and keeps unit invariance.  The loop stops when P and P* have equal
    rank, which by the duality criterion makes P a Schur ring, and then
    the smallest one refining the start partition; P keeps the dual P*
    as its kernel_dual.
    """
    seed_sets = [_element_set(ring, S, "seed element") for S in seeds]
    units = ring.units()
    translates = (T for S in seed_sets
                  for T in zip(*([row[u] for u in units] for row in map(ring.mul_row, S))))
    marks: list[list[int]] = [[] for _ in ring.elements()]
    for i, T in enumerate(translates):
        for x in T:
            marks[x].append(i)
    P = SRing.from_labels(ring, labels(zip(ring.unit_orbit_keys(), map(tuple, marks))))
    while True:
        D = P.kernel_dual
        if D.rank == P.rank:
            return P
        P = D.kernel_dual


# -- derived rings -----------------------------------------------------------


def restrict(A: SRing, m: int) -> SRing:
    """The Schur ring induced on the ideal mR, read in its model ring:
    mR in index order is the model in index order, each coefficient of
    component i scaled by p_i^v_i, so the sorted members are an exact
    section (not ideal_ring's embed, which scales by m); only the
    model ring is built."""
    members = A.ring.ideal(m)
    if not A.is_aset(members):
        raise ValueError(f"the ideal {m}R is not an A-ideal")
    return SRing.from_labels(ideal_model(A.ring, m),
                             labels(map(A.class_of.__getitem__, sorted(members))))


def quotient_sring(A: SRing, m: int) -> SRing:
    """The image of A in R/mR; m = characteristic means quotient by 0."""
    if not A.is_aset(A.ring.ideal(m)):
        raise ValueError(f"the ideal {m}R is not an A-ideal")
    q = quotient(A.ring, m)
    images = {frozenset(map(q.pi, X)) for X in A.classes}
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
    Schur rings over the component rings, read by restrict in index
    order, so reassembling them gives back any tensor product of partitions.
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
    # x mod m_right*R is x_Q and x mod m_left*R is x_Qc, read in R/mR
    to_Q, to_Qc = ring.reduction(m_right)[0].__getitem__, ring.reduction(m_left)[0].__getitem__
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
    """The set m*X for a set X of elements and an integer m; a class again
    whenever gcd(m, |R|) = 1."""
    if type(m) is not int:
        raise ValueError(f"the multiplier must be an integer, got {m!r}")
    return A.ring.scale_set(_element_set(A.ring, X, "element"), m)


def _coset_hits(ring: CGRing, m: int, X: frozenset[int]) -> Callable[[int], int]:
    """x -> |X meet (x + mR)|.  Two elements share a coset of mR exactly
    when the ring's kept reduction row maps them to one index of R/mR, so
    the count at x is the multiplicity of its index among those of X."""
    row = ring.reduction(m)[0]
    counts = Counter(map(row.__getitem__, X))
    return lambda x: counts[row[x]]


def _nonempty_set(ring: CGRing, X: Iterable[int]) -> frozenset[int]:
    """X as a nonempty frozenset of element indices, or ValueError."""
    X = _element_set(ring, X, "element")
    if not X:
        raise EmptySetError("the set X must be nonempty")
    return X


def frobenius_set(A: SRing, X: Iterable[int], p: int) -> frozenset[int]:
    """The set {p*x : x in X, |(x + H) meet X| not 0 mod p}, H the p-torsion,
    for a nonempty set X of elements and a prime p of the ring."""
    ring = A.ring
    if type(p) is not int or p not in ring.primes:
        raise ValueError(f"{p!r} is not a prime of {ring.spec()}")
    X = _nonempty_set(ring, X)
    hits = _coset_hits(ring, ring.char // p, X)
    return frozenset(ring.scale(x, p) for x in X if hits(x) % p)


def coset_count(A: SRing, m: int, X: Iterable[int]) -> int:
    """The constant |X meet (x + H)| over x in a nonempty set X of elements,
    H = mR an A-ideal."""
    ring = A.ring
    if not A.is_aset(ring.ideal(m)):
        raise ValueError(f"the ideal {m}R is not an A-ideal")
    X = _nonempty_set(ring, X)
    found = set(map(_coset_hits(ring, m, X), X))
    if len(found) != 1:
        raise StructureError(f"coset counts not constant: {sorted(found)}")
    return found.pop()
