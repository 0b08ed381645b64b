"""Decomposition and classification of Schur rings over CG-rings.

Pure Schur rings over rings of odd characteristic split as tensor
products of rank-2 pieces over non-field sub-products with a cyclotomic
remainder; Schur rings whose unit classes are fixed by every unit carry
a nontrivial wreath layering or a rank-2 tensor factor.  One search over
is_tensor_over finds the tensor splits; restrict reads their factors in
index order, so each decomposition is checked by reassembling it exactly.
The splits are guaranteed for valid inputs, so a failed step raises
FalsificationError instead of returning a soft negative: it signals a
bug, not a property of the input.  Input outside a theorem's scope gives
NotApplicable or a report with `ok` false.  The theorems speak of Schur
rings only, so each classifier first runs SRing.verify and refuses any
other partition with ValueError.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .cgring import CGRing, CheckFailedError, quotient
from .duality import dual_sring
from .sring import (
    SRing,
    TensorSplit,
    WreathCert,
    is_tensor_over,
    labels,
    proper_prime_splits,
    quotient_sring,
    wreath_pairs,
)

KIND_PURE_TENSOR = "PureTensor"
KIND_RATIONAL_WREATH = "RationalWreath"
KIND_RATIONAL_TENSOR = "RationalTensorRank2"
KIND_NOT_APPLICABLE = "NotApplicable"

ROLE_CYCLOTOMIC = "cyclotomic"
ROLE_RANK2 = "rank2"
ROLE_REST = "rest"


class FalsificationError(CheckFailedError):
    """A guaranteed decomposition step failed on a valid input."""


Factor = tuple[frozenset[int], SRing, str]


class Decomposition(NamedTuple):
    kind: str
    factors: tuple[Factor, ...]
    certificates: tuple[WreathCert | TensorSplit, ...]
    reason: str | None = None

    def to_doc(self) -> dict:
        doc: dict = {
            "kind": self.kind,
            "factors": [
                {
                    "primes": sorted(Q),
                    "ring": F.ring.spec(),
                    "classes": [sorted(X) for X in F.classes],
                    "role": role,
                }
                for Q, F, role in self.factors
            ],
            "certificates": [_cert_doc(cert) for cert in self.certificates],
        }
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc


def _cert_doc(cert: WreathCert | TensorSplit) -> dict:
    if isinstance(cert, WreathCert):
        return {"type": "wreath", "outer": cert.outer, "inner": cert.inner}
    return {"type": "tensor", "primes": sorted(cert.primes)}


def _rank2_nonfield(A: SRing) -> bool:
    """Whether A has rank 2 over a ring that is not a field."""
    return A.rank == 2 and (len(A.ring.components) > 1 or A.ring.components[0].n > 1)


def _rank2_split(A: SRing, rank2=_rank2_nonfield) -> TensorSplit | None:
    """First tensor split whose left factor passes rank2.  Complement
    subsets are enumerated too, so a factor on either side is found."""
    for Q in proper_prime_splits(A.ring):
        split = is_tensor_over(A, Q)
        if split.ok and rank2(split.left):
            return split
    return None


def _nontrivial_wreath(A: SRing) -> WreathCert | None:
    return next((c for c in wreath_pairs(A) if c.nontrivial), None)


def _refuse_non_schur(A: SRing) -> None:
    """ValueError with the first failure of A.verify(), unless A passes."""
    if not (report := A.verify()).ok:
        raise ValueError("the input is not a Schur ring; sring verify fails first with "
                         + json.dumps(report.failures[0], sort_keys=True, separators=(",", ":")))


def _checked(A: SRing, dec: Decomposition) -> Decomposition:
    """dec, after checking that its factors reassemble to A."""
    if reassemble(A.ring, dec.factors) != A:
        raise FalsificationError("the factors do not reassemble to the input")
    return dec


# -- reassembly ---------------------------------------------------------------


def reassemble(ring: CGRing, factors: tuple[Factor, ...]) -> SRing:
    """Rebuild a Schur ring on `ring` from factors over disjoint prime sets.

    Elements are grouped by the tuple of factor classes of their
    projections x_Q, read from the quotient R/mR with mR the sub-product
    outside Q, which is the tensor partition in the original component
    order regardless of the order the factors were split off in.
    """
    if not factors:
        raise ValueError("there are no factors to reassemble")
    seen: set[int] = set()
    columns = []
    for Q, F, _role in factors:
        if not Q:
            raise ValueError("a factor has an empty prime set")
        if foreign := Q - set(ring.primes):
            raise ValueError(f"primes {sorted(foreign)} are not primes of {ring.spec()}")
        if overlap := seen & Q:
            raise ValueError(f"primes {sorted(overlap)} appear in two factors")
        seen |= Q
        to_Q = quotient(ring, ring.component_divisor(set(ring.primes) - Q))
        if to_Q.ring != F.ring:
            raise ValueError(
                f"factor ring {F.ring.spec()} does not match the"
                f" sub-product over {sorted(Q)}"
            )
        columns.append(map(F.class_of.__getitem__, map(to_Q.pi, ring.elements())))
    missing = set(ring.primes) - seen
    if missing:
        raise ValueError(f"the factors miss primes {sorted(missing)}")
    return SRing.from_labels(ring, labels(zip(*columns)))


# -- pure decomposition -------------------------------------------------------


def decompose_pure(A: SRing) -> Decomposition:
    """Split a pure Schur ring over an odd ring into rank-2 and cyclotomic factors.

    Rank-2 factors over non-field sub-products are peeled greedily,
    smallest prime sets first; the remainder must be rank 2 over a
    non-field itself or the orbit partition of the class containing 1.
    Even characteristic and non-pure inputs are out of scope and give
    NotApplicable; any other failure raises FalsificationError.
    """
    _refuse_non_schur(A)
    ring = A.ring
    if ring.char % 2 == 0:
        return Decomposition(KIND_NOT_APPLICABLE, (), (), "the characteristic is even")
    if not A.is_pure():
        return Decomposition(KIND_NOT_APPLICABLE, (), (), "the input is not pure")

    factors: list[Factor] = []
    certs: list[TensorSplit] = []
    rest = A
    while (split := _rank2_split(rest)) is not None:
        factors.append((split.primes, split.left, ROLE_RANK2))
        certs.append(split)
        rest = split.right

    role = ROLE_RANK2 if _rank2_nonfield(rest) else ROLE_CYCLOTOMIC
    if role == ROLE_CYCLOTOMIC and rest.orbit_subgroup() is None:
        raise FalsificationError(f"the remainder over {rest.ring.spec()} is not the orbit partition"
                                 f" of a unit subgroup (dense={rest.is_dense()}, pure={rest.is_pure()})")
    factors.append((frozenset(rest.ring.primes), rest, role))

    return _checked(A, Decomposition(KIND_PURE_TENSOR, tuple(factors), tuple(certs)))


# -- rational classification --------------------------------------------------


def classify_rational(A: SRing) -> Decomposition:
    """Classify a Schur ring whose unit-meeting classes are fixed by every unit.

    Returns the first nontrivial wreath layering when one exists,
    otherwise a tensor split with a rank-2 factor.  Valid inputs always
    admit one of the two, so reaching neither raises FalsificationError;
    an input with a moved unit class gives NotApplicable.
    """
    _refuse_non_schur(A)
    ring = A.ring
    # the units fixing every unit class form a group, so the first unit that
    # moves one is among those grow yields
    unit_classes = [A.classes[k] for k in A.unit_class_indices()]
    units = (u for ci in range(len(ring.components)) for u in ring.embed_component_units(ci))
    for u, row, _ in ring.grow(units):
        for X in unit_classes:
            if frozenset(map(row.__getitem__, X)) != X:
                return Decomposition(
                    KIND_NOT_APPLICABLE, (), (),
                    f"the unit {u} moves the class {sorted(X)}; the input is not rational",
                )

    if (cert := _nontrivial_wreath(A)) is not None:
        return Decomposition(KIND_RATIONAL_WREATH, (), (cert,))

    if A.rank == 2:
        factor = (frozenset(ring.primes), A, ROLE_RANK2)
        return Decomposition(KIND_RATIONAL_TENSOR, (factor,), ())

    split = _rank2_split(A, lambda F: F.rank == 2)
    if split is None:
        raise FalsificationError("no nontrivial wreath layering and no rank-2"
                                 f" tensor factor over {ring.spec()}")
    factors = ((split.primes, split.left, ROLE_RANK2),
               (frozenset(ring.primes) - split.primes, split.right, ROLE_REST))
    return _checked(A, Decomposition(KIND_RATIONAL_TENSOR, factors, (split,)))


# -- structure of non-dense Schur rings ---------------------------------------


class StructureReport(NamedTuple):
    """Wreath or rank-2 structure forced by a missing maximal A-ideal.

    `applicable` is set when some maximal ideal is not an A-ideal; the
    certificate found is then one of `wreath`, `self_rank2` (the input
    itself has rank 2 over a non-field) or `split`.  On pure inputs
    `four_way` records the equivalent conditions (indecomposable, dual
    pure and indecomposable, all maximal ideals A-ideals, all minimal
    ideals A-ideals), which must agree.
    """

    applicable: bool
    wreath: WreathCert | None
    self_rank2: bool
    split: TensorSplit | None
    four_way: tuple[bool, bool, bool, bool] | None
    ok: bool

    def to_doc(self) -> dict:
        doc: dict = {"applicable": self.applicable, "ok": self.ok}
        if self.applicable:
            found = None
            if self.wreath is not None:
                found = _cert_doc(self.wreath)
            elif self.self_rank2:
                found = {"type": "rank2"}
            elif self.split is not None:
                found = _cert_doc(self.split)
            doc["certificate"] = found
        if self.four_way is not None:
            doc["four_way"] = list(self.four_way)
        return doc


def check_nondense_structure(A: SRing) -> StructureReport:
    """Check the structure forced when a maximal ideal is not an A-ideal.

    Such a Schur ring carries a nontrivial wreath layering or a rank-2
    factor over a non-field (possibly the whole of A).  Pure inputs are
    additionally tested for the four-way equivalence of
    indecomposability with itself under duality and with the maximal and
    minimal ideals all being A-ideals.  Raises ValueError on a partition
    that is not a Schur ring; otherwise `ok` reports.
    """
    _refuse_non_schur(A)
    ring = A.ring
    a_divisors = set(A.a_ideal_divisors())
    applicable = any(p not in a_divisors for p in sorted(ring.primes))

    pure, rank2 = A.is_pure(), _rank2_nonfield(A)
    wreath = _nontrivial_wreath(A) if applicable else None
    unlayered = applicable and wreath is None
    # A's first rank-2 split, searched at most once
    split = None if rank2 or not (unlayered or pure) else _rank2_split(A)
    structure_ok = not unlayered or rank2 or split is not None

    four_way = None
    equivalent = True
    if pure:
        dual = dual_sring(A)
        indecomposable = not rank2 and split is None
        four_way = (
            indecomposable,
            # an orbit ring is its own dual, whose split is searched already
            indecomposable if dual is A else
            dual.is_pure() and not _rank2_nonfield(dual) and _rank2_split(dual) is None,
            not applicable,  # every maximal ideal an A-ideal
            all(ring.char // p in a_divisors for p in ring.primes),
        )
        equivalent = len(set(four_way)) == 1

    return StructureReport(applicable, wreath, unlayered and rank2, split if unlayered else None,
                           four_way, structure_ok and equivalent)


# -- purity of quotients ------------------------------------------------------


class QuotientPurityReport(NamedTuple):
    """Whether purity survives the quotient by an admissible A-ideal."""

    applicable: bool
    reasons: tuple[str, ...]
    quotient_pure: bool | None

    @property
    def ok(self) -> bool:
        return bool(self.quotient_pure)

    def to_doc(self) -> dict:
        return {
            "applicable": self.applicable,
            "reasons": list(self.reasons),
            "quotient_pure": self.quotient_pure,
            "ok": self.ok,
        }


def check_quotient_purity(A: SRing, m: int) -> QuotientPurityReport:
    """Check that the image of A in R/mR is pure.

    Applicable when the characteristic is odd, A is pure, every maximal
    ideal and mR itself are A-ideals, and m has positive valuation at
    every prime (so no component collapses completely); m equal to the
    characteristic quotients by the zero ideal.  Hypothesis violations
    give a non-applicable report; `ok` holds only on an applicable
    input whose quotient is pure.  A non-Schur A raises ValueError first.
    """
    _refuse_non_schur(A)
    ring = A.ring
    vals = ring.valuations(m)
    reasons = []
    if ring.char % 2 == 0:
        reasons.append("the characteristic is even")
    if not A.is_pure():
        reasons.append("the input is not pure")
    a_divisors = set(A.a_ideal_divisors())
    for p in sorted(ring.primes):
        if p not in a_divisors:
            reasons.append(f"the maximal ideal {p}R is not an A-ideal")
    if m not in a_divisors:
        reasons.append(f"the ideal {m}R is not an A-ideal")
    for comp, v in zip(ring.components, vals):
        if v == 0:
            reasons.append(f"the ideal {m}R contains the whole {comp.p}-component")
    if reasons:
        return QuotientPurityReport(False, tuple(reasons), None)

    return QuotientPurityReport(True, (), quotient_sring(A, m).is_pure())
