"""Shared fixtures: small rings and a corpus of generated Schur rings."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import pytest

from cgschur.cgring import CGRing, make_cg_ring, parse_ring_spec
from cgschur.construct import all_subgroups
from cgschur.duality import _dual_partition
from cgschur.galois import GaloisRing
from cgschur.sring import PartitionError, SRing, cyclotomic, schur_closure


@lru_cache(maxsize=None)
def product_table(ring: CGRing) -> list[list[int]]:
    """ring.mul_table(), built once per ring for the oracles below."""
    return ring.mul_table()


def products(ring: CGRing) -> Callable[[int, int], int]:
    """a*b read from the memoised product table, or per-element CGRing.mul
    for rings too large to tabulate."""
    if ring.size > CGRing.TABLE_LIMIT:
        return ring.mul
    table = product_table(ring)
    return lambda a, b: table[a][b]


def enumerate_subgroups(ring: CGRing) -> list[frozenset[int]]:
    """Brute-force closure enumeration of all unit subgroups, read from one
    product table."""
    table = product_table(ring)
    units = ring.units()
    found = {frozenset({ring.one})}
    frontier = [frozenset({ring.one})]
    while frontier:
        K = frontier.pop()
        for u in units:
            if u in K:
                continue
            closure = set(K)
            queue = [u]
            while queue:
                x = queue.pop()
                if x in closure:
                    continue
                closure.add(x)
                queue.extend(table[x][y] for y in list(closure))
            grown = frozenset(closure)
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    return sorted(found, key=lambda K: (len(K), sorted(K)))


# Rings for the oracle checks of the unit-group and unit-orbit kernels.
KERNEL_RINGS = ("GR(9)", "GR(4,2)", "GR(4)xGR(9)", "GR(4,2)xGR(9)",
                "GR(3)xGR(5)xGR(7)", "GR(27)xGR(4,2)")


@lru_cache(maxsize=None)
def kernel_subgroups(spec: str) -> list[frozenset[int]]:
    """all_subgroups of the units of a ring spec, computed once per test run."""
    ring = parse_ring_spec(spec)
    return all_subgroups(ring, ring.units())


def subgroup_generated_oracle(ring: CGRing, gens: Sequence[int]) -> frozenset[int]:
    """The closure of unit generators by a breadth-first product search."""
    mul = products(ring)
    group = {ring.one}
    frontier = [ring.one]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul(x, g)
            if y not in group:
                group.add(y)
                frontier.append(y)
    return frozenset(group)


def is_subgroup_oracle(ring: CGRing, K: frozenset[int]) -> bool:
    """1 in K and K closed under products, by the scan over all |K|^2 pairs."""
    mul = products(ring)
    return ring.one in K and all(mul(a, b) in K for a in K for b in K)


def orbit_oracle(ring: CGRing, K: Iterable[int], x: int) -> frozenset[int]:
    """The orbit K*x, one product per member of K."""
    mul = products(ring)
    return frozenset(mul(k, x) for k in K)


def orbit_partition_oracle(ring: CGRing, K: Iterable[int],
                           pool: Iterable[int]) -> list[frozenset[int]]:
    """The orbits K*x of the members x of pool, ordered by least member."""
    K = list(K)
    out, seen = [], set()
    for x in sorted(pool):
        if x not in seen:
            orbit = orbit_oracle(ring, K, x)
            seen |= orbit
            out.append(orbit)
    return out


def _principal_log(comp: GaloisRing, u: int) -> list[int]:
    """Coordinates of 1 + p*a over the residue field, for n = 2 components."""
    p = comp.p
    cs = comp.coeffs(u)
    return [((cs[0] - 1) // p) % p] + [(c // p) % p for c in cs[1:]]


def _extend_basis(rows: dict[int, list[int]], vec: list[int], p: int) -> bool:
    """Add vec to the echelon rows over F_p when it is independent of them."""
    v = [a % p for a in vec]
    for pivot, row in rows.items():
        if v[pivot]:
            f = v[pivot]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    lead = next((i for i, a in enumerate(v) if a), None)
    if lead is None:
        return False
    inv = pow(v[lead], -1, p)
    rows[lead] = [a * inv % p for a in v]
    return True


def principal_decomposition_oracle(
        ring: CGRing, ci: int) -> tuple[frozenset[int], frozenset[int], int, list[int]]:
    """construct._principal_decomposition by linear algebra over F_p, with
    the complement's generators last: for n = 2, 1 + p*a -> a mod p takes
    1 + pR onto F_p^d, and a principal unit joins the complement when its
    log is independent of the logs of the generator and the earlier picks."""
    comp = ring.components[ci]
    principal = ring.embed_principal_units(ci)
    gen = next(x for x in principal if x != ring.one)
    rows: dict[int, list[int]] = {}
    _extend_basis(rows, _principal_log(comp, ring.parts(gen)[ci]), comp.p)
    complement_gens = [x for x in principal if x != ring.one and _extend_basis(
        rows, _principal_log(comp, ring.parts(x)[ci]), comp.p)]
    return (subgroup_generated_oracle(ring, [gen]),
            subgroup_generated_oracle(ring, complement_gens), gen, complement_gens)


def is_rational_oracle(A: SRing, primes: Iterable[int]) -> bool:
    """Every unit of each chosen component maps every class onto itself."""
    ring = A.ring
    mul = products(ring)
    for ci, comp in enumerate(ring.components):
        if comp.p in primes:
            for u in ring.embed_component_units(ci):
                if any(frozenset(mul(u, x) for x in X) != X for X in A.classes):
                    return False
    return True


def class_permutations_oracle(ring: CGRing, classes: Sequence[Iterable[int]]) -> list[list[int]] | None:
    """CGRing.class_permutations by one set of image classes per class and
    generator: None unless each g*X_k lies in one class of the same size."""
    class_of = [-1] * ring.size
    for k, X in enumerate(classes):
        for x in X:
            if class_of[x] != -1:
                return None
            class_of[x] = k
    if -1 in class_of:
        return None
    perms = []
    for g in ring.unit_generators():
        row = ring.mul_row(g)
        perm = []
        for X in classes:
            image = {class_of[row[x]] for x in X}
            if len(image) != 1:
                return None
            k = image.pop()
            if len(classes[k]) != len(X):
                return None
            perm.append(k)
        perms.append(perm)
    return perms


def project_oracle(ring: CGRing, a: int, primes: Iterable[int]) -> int:
    """a with the parts outside the given primes set to 0, from its parts."""
    keep = set(primes)
    return ring.from_parts(i if comp.p in keep else 0
                           for comp, i in zip(ring.components, ring.parts(a)))


def closure_start_oracle(ring: CGRing, seeds: Sequence[Iterable[int]]) -> list[list[int]]:
    """The dense closure's start partition, in element order: x keyed by its
    unit stratum and by which seeds hold u*x, for every unit u."""
    seeds = [frozenset(S) for S in seeds]
    mul = products(ring)
    start: dict = {}
    for x in ring.elements():
        stratum = ring.upper_ideal(frozenset({x})) if x else 0
        key = (stratum, tuple(tuple(mul(u, x) in S for S in seeds) for u in ring.units()))
        start.setdefault(key, []).append(x)
    return list(start.values())


def verify_sring_oracle(ring: CGRing, classes: Sequence[Iterable[int]]) -> dict:
    """Full-scan axiom check: every class against every convolution.

    The report document `verify_sring(...).to_doc()` must equal.
    """
    try:
        A = SRing(ring, classes)
    except PartitionError as err:
        return {"ok": False, "failures": [{"axiom": "partition", "witness": str(err)}]}
    failures: list[dict] = []
    if not A.is_class(frozenset({0})):
        failures.append({"axiom": "zero-class", "witness": sorted(A.class_containing(0))})
    for k, X in enumerate(A.classes):
        image = frozenset(ring.neg(x) for x in X)
        if not A.is_class(image):
            failures.append({"axiom": "negation", "class": k, "witness": sorted(image)})
    mul = products(ring)
    for u in ring.units():
        bad = [k for k, X in enumerate(A.classes)
               if not A.is_class(frozenset(mul(u, x) for x in X))]
        if bad:
            failures.append({"axiom": "unit-invariance", "unit": u, "class": bad[0]})
            break
    for i, X in enumerate(A.classes):
        for j in range(i, A.rank):
            counts = Counter(ring.add(x, y) for x in X for y in A.classes[j])
            for k, Z in enumerate(A.classes):
                if len({counts[z] for z in Z}) > 1:
                    zs = sorted(Z, key=lambda z: counts[z])
                    failures.append({
                        "axiom": "convolution",
                        "pair": [i, j],
                        "class": k,
                        "witness": {str(zs[0]): counts[zs[0]], str(zs[-1]): counts[zs[-1]]},
                    })
    return {"ok": not failures, "failures": failures}


def pack(table, coeffs: Iterable[int]) -> int:
    """The packed int of a digit vector, digit i in the signed digit i of table.width bits."""
    return sum(a << (table.width * i) for i, a in enumerate(coeffs))


def character_sum_coeffs(table, r: int, S: Iterable[int]) -> tuple[int, ...]:
    """The character sum of chi(r*.) over S as a coefficient tuple, summed row by row."""
    total = [0] * table.phi
    mul = products(table.ring)
    for x in S:
        row = table.power_rows[table.exponent[mul(r, x)]]
        total = [a + b for a, b in zip(total, row)]
    return tuple(total)


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_c], stored as its phi(c) digits in the table's basis."""

    c: int
    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def exponent_counts(table, r: int, S: Iterable[int]) -> Counter:
    """How often each exponent k occurs in chi(r*x) = zeta_c^k over x in S."""
    mul = products(table.ring)
    return Counter(table.exponent[mul(r, x)] for x in S)


def digit_sum(table, counts: dict[int, int]) -> tuple[int, ...]:
    """The sum of n * zeta_c^k over counts {k: n}, power rows weighted by n."""
    total = [0] * table.phi
    for k, n in counts.items():
        for i, a in enumerate(table.power_rows[k]):
            total[i] += n * a
    return tuple(total)


def sum_key(table, r: int, S: Iterable[int]) -> tuple[int, ...]:
    """The character sum of chi(r*.) over S, power rows weighted by exponent counts."""
    return digit_sum(table, exponent_counts(table, r, S))


def char_sum(table, r: int, S: Iterable[int]) -> CycInt:
    """The character sum of chi(r*.) over S as an exact cyclotomic integer."""
    return CycInt(table.c, sum_key(table, r, S))


def teichmuller_lift(R: GaloisRing, a: int) -> int:
    """The fixed point of x -> x^(p^d) congruent to a mod p."""
    t = a
    while True:
        t2 = R.pow(t, R.residue_size)
        if t2 == t:
            return t
        t = t2


def teichmuller_digits(R: GaloisRing, a: int) -> list[int]:
    """Digits a_i of the expansion a = sum a_i * p^i with a_i Teichmuller."""
    digits = []
    x = a
    for _ in range(R.n):
        t = teichmuller_lift(R, x)
        digits.append(t)
        # (x - t) lies in pR, so every coefficient divides out exactly.
        x = R.index(c // R.p for c in R.coeffs(R.sub(x, t)))
    return digits


def frobenius(R: GaloisRing, a: int) -> int:
    """The Frobenius automorphism, t -> t^p on each Teichmuller digit."""
    out = 0
    for i, t in enumerate(teichmuller_digits(R, a)):
        out = R.add(out, R.scale(R.pow(t, R.p), R.p**i))
    return out


def trace_oracle(R: GaloisRing, a: int) -> int:
    """The trace to Z_{p^n} as the sum of the d Frobenius conjugates of a."""
    acc, s = a, a
    for _ in range(R.d - 1):
        s = frobenius(R, s)
        acc = R.add(acc, s)
    cs = R.coeffs(acc)
    assert all(c == 0 for c in cs[1:]), "trace landed outside the prime subring"
    return cs[0]


def exponent_oracle(ring: CGRing) -> list[int]:
    """The exponent of chi at every element, from that element's own traces."""
    c = ring.char
    return [
        sum(c // comp.char * trace_oracle(comp, part)
            for comp, part in zip(ring.components, ring.parts(x))) % c
        for x in ring.elements()
    ]


# -- the power basis of Z[x]/(Phi_c): the oracle for the character table --------

_CYCLOTOMIC: dict[int, tuple[int, ...]] = {}


def _poly_div_exact(num: list[int], den: Sequence[int]) -> list[int]:
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
    """Coefficients of Phi_c, low degree first: x^c - 1 divided by every
    Phi_d with d a proper divisor of c, memoised across calls."""
    if c < 1:
        raise ValueError("conductor must be positive")
    if c not in _CYCLOTOMIC:
        num = [-1] + [0] * (c - 1) + [1]
        for d in range(1, c):
            if c % d == 0:
                num = _poly_div_exact(num, cyclotomic_polynomial(d))
        _CYCLOTOMIC[c] = tuple(num)
    return _CYCLOTOMIC[c]


def phi_c_remainder(c: int, counts: dict[int, int]) -> tuple[int, ...]:
    """sum of n * x^k over counts {k: n}, reduced modulo Phi_c by long division."""
    modulus = cyclotomic_polynomial(c)
    deg = len(modulus) - 1
    terms = [(j, a) for j, a in enumerate(modulus[:-1]) if a]
    rem = [0] * max(c, deg)
    for k, n in counts.items():
        rem[k % c] += n
    for i in range(len(rem) - 1, deg - 1, -1):
        lead = rem[i]
        if lead:
            for j, a in terms:
                rem[i - deg + j] -= lead * a
    return tuple(rem[:deg])


class PowerBasisTable:
    """The character table in the power basis 1, x, ..., x^(phi-1) of
    Z[x]/(Phi_c): x^k reduced by Phi_c for every k < c, packed into one
    int each at a width wide enough for the largest coefficient times |R|.

    Only `ring` and `packed_row` are provided, so `dual_classes` runs on
    it unchanged and its output is the power-basis result.
    """

    def __init__(self, table):
        self.ring, c = table.ring, table.c
        modulus = cyclotomic_polynomial(c)
        phi = len(modulus) - 1
        # x^(k+1) is x^k shifted up one place, less lead * Phi_c where lead
        # is the coefficient pushed to degree phi
        terms = [(i, a) for i, a in enumerate(modulus[:-1]) if a]
        leads, largest = [], 0
        row = [1] + [0] * (phi - 1)
        for _ in range(c - 1):
            largest = max(largest, max(map(abs, row)))
            lead = row[-1]
            leads.append(lead)
            row = [0] + row[:-1]
            if lead:
                for i, a in terms:
                    row[i] -= lead * a
        largest = max(largest, max(map(abs, row)))
        self.width = (self.ring.size * largest).bit_length() + 1
        packed_modulus = pack(self, modulus)
        packed = [1]
        for lead in leads:
            packed.append((packed[-1] << self.width) - lead * packed_modulus)
        self._packed_exponent = [packed[e] for e in table.exponent]

    def packed_row(self, r: int) -> list[int]:
        values = self._packed_exponent
        return [values[s] for s in self.ring.mul_row(r)]


def dual_classes(table, classes: Sequence[Iterable[int]]) -> list[list[int]]:
    """The character-sum dual of a partition, as sorted classes in element
    order: the library's dual kernel, entered through the checked constructor."""
    A = SRing(table.ring, classes)
    D = _dual_partition(table, A.classes, table.ring.class_permutations(A.class_of))
    return [sorted(X) for X in SRing.from_labels(table.ring, D).classes]


def dual_classes_oracle(table, classes: Sequence[Iterable[int]]) -> list[list[int]]:
    """Group r by its vector of coefficient-tuple character sums over the classes."""
    groups: dict[tuple, list[int]] = {}
    for r in table.ring.elements():
        key = tuple(character_sum_coeffs(table, r, X) for X in classes)
        groups.setdefault(key, []).append(r)
    return list(groups.values())


def lower_ideal_oracle(ring: CGRing, X: frozenset[int]) -> int:
    """Divisor of the largest ideal I with X + I = X, by trying every ideal."""
    closed = [m for m in ring.divisors()
              if all(ring.add(x, i) in X for x in X for i in ring.ideal(m))]
    return max(closed, key=lambda m: len(ring.ideal(m)))


def swap_broken(A: SRing, rng: random.Random) -> list[list[int]]:
    """The classes of A with two elements of different classes swapped."""
    classes = [sorted(X) for X in A.classes]
    i, j = rng.sample(range(len(classes)), 2)
    a, b = rng.randrange(len(classes[i])), rng.randrange(len(classes[j]))
    classes[i][a], classes[j][b] = classes[j][b], classes[i][a]
    return classes


def random_coarsening(A: SRing, rng: random.Random) -> list[list[int]]:
    """The classes of A merged at random into unions, usually not unit-invariant."""
    blocks: dict[int, list[int]] = {}
    labels = rng.randrange(2, A.rank + 1)
    for X in A.classes:
        blocks.setdefault(0 if 0 in X else rng.randrange(1, labels), []).extend(X)
    return list(blocks.values())


def merge_strata(A: SRing, rng: random.Random) -> list[list[int]]:
    """A unit-invariant coarsening of a dense A: some nonzero unit orbits merged whole.

    The picked orbits are joined into one or two classes; A's classes in
    the other orbits stay, so every unit maps each class onto a class.
    """
    strata = A.ring.orbit_partition(A.ring.units())[1:]  # [0] is {0}
    picked = rng.sample(strata, rng.randrange(1, len(strata) + 1))
    cut = rng.randrange(1, len(picked) + 1)
    merged = [sorted(set().union(*part)) for part in (picked[:cut], picked[cut:]) if part]
    kept = [sorted(X) for X in A.classes if not any(X <= S for S in picked)]
    return kept + merged


def merge_multiples(A: SRing, m: int, w: int) -> list[list[int]]:
    """A unit-invariant coarsening of a cyclotomic A: each unit class X joined to m*w*X.

    For A = cyclotomic(K) and a unit w, m*w*(K*u) = K*(m*w*u) is a class,
    and u*(X + m*w*X) = u*X + m*w*(u*X), so the merged classes are
    permuted by every unit.
    """
    ring = A.ring
    parent = list(range(A.rank))

    def find(k: int) -> int:
        while parent[k] != k:
            k = parent[k]
        return k

    for k, X in enumerate(A.classes):
        x = min(X)
        if ring.is_unit(x):
            parent[find(k)] = find(A.class_of[ring.scale(ring.mul(w, x), m)])
    blocks: dict[int, list[int]] = {}
    for k, X in enumerate(A.classes):
        blocks.setdefault(find(k), []).extend(X)
    return [sorted(X) for X in blocks.values()]


def rank2(ring: CGRing) -> SRing:
    return SRing(ring, [{0}, set(ring.elements()) - {0}])


def random_invariant_seed(ring: CGRing, K: frozenset[int], rng: random.Random) -> set[int]:
    """A union of one or two K-orbits, so the seed is K-invariant."""
    orbits = ring.orbit_partition(K)
    picks = rng.sample(orbits, rng.randrange(1, 3))
    out: set[int] = set()
    for orb in picks:
        out |= orb
    return out


def build_corpus() -> list[tuple[str, SRing]]:
    """Schur rings used by the property suites: cyclotomic, rank 2, closures."""
    out: list[tuple[str, SRing]] = []
    seen: set[SRing] = set()

    def push(label: str, A: SRing) -> None:
        if A not in seen:
            seen.add(A)
            out.append((label, A))

    rings = {
        "GR(9)": make_cg_ring([(3, 2, 1)]),
        "GR(4,2)": make_cg_ring([(2, 2, 2)]),
        "GR(8)": make_cg_ring([(2, 3, 1)]),
        "GR(4)xGR(9)": make_cg_ring([(2, 2, 1), (3, 2, 1)]),
    }
    for name, ring in rings.items():
        for K in enumerate_subgroups(ring):
            push(f"cyc[{len(K)}] over {name}", cyclotomic(ring, K))
        push(f"rank2 over {name}", rank2(ring))

    rng = random.Random(2026)
    for name, ring in rings.items():
        subgroups = enumerate_subgroups(ring)
        for i in range(8):
            K = rng.choice(subgroups)
            seed = random_invariant_seed(ring, K, rng)
            push(f"closure#{i} over {name}", schur_closure(ring, [seed]))
    return out


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, SRing]]:
    return build_corpus()


@pytest.fixture(scope="session")
def z9() -> CGRing:
    return make_cg_ring([(3, 2, 1)])


@pytest.fixture(scope="session")
def z36() -> CGRing:
    return make_cg_ring([(2, 2, 1), (3, 2, 1)])
