"""Shared fixtures: small rings and a corpus of generated Schur rings."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import pytest

import cgschur
from cgschur.cgring import CGRing, make_cg_ring, parse_ring_spec
from cgschur.construct import all_subgroups
from cgschur.duality import _dual_partition
from cgschur.galois import TABLE_LIMIT, GaloisRing, make_galois_ring
from cgschur.sring import PartitionError, SRing, cyclotomic, labels, schur_closure, verify_sring


SWAP_DOC = {  # orbits of the coefficient swap of GR(4,2): a Schur ring, not unit-invariant
    "ring": "GR(4,2)",
    "classes": [[0], [1, 4], [2, 8], [3, 12], [5], [6, 9], [7, 13], [10], [11, 14], [15]],
}


def run_child(*argv: str, timeout: float | None = None, **env: str) -> subprocess.CompletedProcess:
    """Run the interpreter on the same cgschur as this process, installed or
    not, with env added to the environment; a child still running after
    timeout seconds is killed and raises subprocess.TimeoutExpired."""
    src = os.path.dirname(os.path.dirname(cgschur.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, **env, "PYTHONPATH": path}, timeout=timeout)


@lru_cache(maxsize=None)
def product_table(ring: CGRing) -> list[list[int]]:
    """ring.mul_table(), built once per ring for the oracles below."""
    return ring.mul_table()


def products(ring: CGRing) -> Callable[[int, int], int]:
    """a*b read from the memoised product table, or per-element CGRing.mul
    for rings too large to tabulate."""
    if ring.size > TABLE_LIMIT:
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


def all_subgroups_oracle(ring: CGRing, group: Iterable[int]) -> list[frozenset[int]]:
    """Every subgroup of a unit group G, by closure over extensions across
    all of G: one mul_row per member cut to a |G|**2 table of positions,
    each subgroup H extended once per coset H*g outside it."""
    elements = sorted(group)
    position = {g: i for i, g in enumerate(elements)}
    table = [[position[row[h]] for h in elements] for row in map(ring.mul_row, elements)]
    trivial = frozenset({position[ring.one]})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        H = frontier.pop()
        done = set(H)
        for g, row in enumerate(table):
            if g in done:
                continue
            done.update(row[x] for x in H)
            bigger = ring.extend_subgroup(H, row)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    subgroups = sorted(found, key=lambda H: (len(H), sorted(H)))
    return [frozenset(map(elements.__getitem__, H)) for H in subgroups]


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


def cyclic_log_oracle(ring: CGRing, gen: int, modulus: int) -> dict[int, int]:
    """g^k -> k mod modulus over the cyclic group of the unit gen, walked
    by repeated products."""
    mul = products(ring)
    logs, x, k = {}, ring.one, 0
    while x not in logs:
        logs[x], x, k = k % modulus, mul(x, gen), k + 1
    return logs


def fiber_product_oracle(ring: CGRing, map_left: dict[int, int],
                         map_right: dict[int, int], modulus: int) -> frozenset[int]:
    """The fiber product {u*v : map_left[u] = map_right[v]} of two unit
    groups over the cyclic group of order modulus, each given by its map
    onto Z/modulus, checked here to be an epimorphism: the construction's
    links as once computed pair by pair, kept as a reference."""
    mul = products(ring)
    for mapping in (map_left, map_right):
        assert all(mapping[mul(x, y)] == (mapping[x] + mapping[y]) % modulus
                   for x in mapping for y in mapping)
        assert set(mapping.values()) == set(range(modulus))
    return frozenset(mul(u, v) for u in map_left for v in map_right
                     if map_left[u] == map_right[v])


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


def truncate_oracle(ring: CGRing, exponents: Sequence[int]) -> tuple[CGRing, Callable, Callable]:
    """cgring._truncate one element at a time: the target ring, and the
    reduction and lift as closures that split an element through parts,
    coeffs, index and from_parts."""
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


def ideal_oracle(ring: CGRing, m: int) -> frozenset[int]:
    """mR: the elements whose component i has every coefficient divisible
    by p_i^v_i, filtered element by element."""
    return frozenset(ring._combine(
        [a for a in comp.elements() if all(x % comp.p**v == 0 for x in comp.coeffs(a))]
        for comp, v in zip(ring.components, ring.valuations(m))))


def ideal_generators_oracle(ring: CGRing, m: int) -> tuple[int, ...]:
    """The generators p_i^v_i * x^j of mR, each built from a one-hot
    coefficient tuple through index and from_parts."""
    gens = []
    k = len(ring.components)
    for ci, (comp, v) in enumerate(zip(ring.components, ring.valuations(m))):
        if v == comp.n:
            continue
        for j in range(comp.d):
            parts = [0] * k
            parts[ci] = comp.index(tuple(comp.p**v if jj == j else 0 for jj in range(comp.d)))
            gens.append(ring.from_parts(parts))
    return tuple(gens)


def principal_units_oracle(ring: CGRing, ci: int) -> list[int]:
    """1 + pR_p of component ci as global units, in index order, by the
    coefficients of every component element."""
    comp = ring.components[ci]
    p = comp.p
    principal = []
    for a in comp.elements():
        cs = comp.coeffs(a)
        if cs[0] % p == 1 and all(c % p == 0 for c in cs[1:]):
            principal.append(a)
    return ring.embed(ci, principal)


def rational_witness_oracle(A: SRing) -> tuple[int, list[int]] | None:
    """The first unit, in component unit order, that moves a unit class,
    with the first class it moves, by one mul_row per unit; None when
    every unit fixes every unit class."""
    ring = A.ring
    for ci in range(len(ring.components)):
        for u in ring.embed_component_units(ci):
            row = ring.mul_row(u)
            for k in A.unit_class_indices():
                X = A.classes[k]
                if frozenset(row[x] for x in X) != X:
                    return u, sorted(X)
    return None


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

    Only `ring`, `packed_row` and `representative_rows` are provided, so
    `dual_classes` runs on it unchanged and its output is the power-basis
    result.
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

    @cached_property
    def representative_rows(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return tuple((r, tuple(self.packed_row(r))) for r in self.ring.orbit_representatives())


def dual_classes(table, classes: Sequence[Iterable[int]]) -> list[list[int]]:
    """The character-sum dual of a partition, as sorted classes in element
    order: the library's dual kernel, entered through the checked constructor."""
    A = SRing(table.ring, classes)
    D = _dual_partition(table, A.classes, table.ring.class_permutations(A.class_of))
    return [sorted(X) for X in SRing.from_labels(table.ring, D).classes]


def spread_dual_oracle(table, classes: Sequence[Iterable[int]],
                       perms: list[list[int]] | None) -> list[int]:
    """The character-sum dual's label vector with one rank-length key per
    element: the packed sums over every class at each unit-orbit
    representative, spread along the unit rows by key(g*r) = key(r) o pi_g
    (every element a representative when perms is None).  The sums are
    interned as small ints and equal keys kept as one tuple, whose
    identities label the elements."""
    ring = table.ring
    steps = []
    if perms is None:
        reps = ((r, table.packed_row(r)) for r in ring.elements())
    else:
        reps = table.representative_rows
        steps = [(row, itemgetter(*perm) if len(perm) > 1 else tuple)
                 for row, perm in zip(ring.unit_rows(), perms)]
    keys: list = [None] * ring.size
    interned: dict[int, int] = {}
    distinct: dict[tuple, tuple] = {}
    for r0, packed in reps:
        values = packed.__getitem__
        key = tuple(interned.setdefault(sum(map(values, X)), len(interned)) for X in classes)
        keys[r0] = distinct.setdefault(key, key)
        frontier = [r0]
        while frontier:
            r = frontier.pop()
            key = keys[r]
            for row_g, move in steps:
                s = row_g[r]
                if keys[s] is None:
                    key_s = move(key)
                    keys[s] = distinct.setdefault(key_s, key_s)
                    frontier.append(s)
    assert None not in keys, "an element received no key"
    return labels(map(id, keys))


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


def is_pure_set_oracle(ring: CGRing, X: frozenset[int]) -> bool:
    """No minimal ideal (c/p)R with X + (c/p)R = X, one coset test per
    prime: every nonzero ideal holds a minimal one, and X + J = X gives
    X + I = X for I inside J.  The empty set is closed under every ideal."""
    return not any(ring.coset_closed(X, ring.char // p) for p in ring.primes)


def upper_ideal_oracle(ring: CGRing, X: frozenset[int]) -> int:
    """Divisor of the smallest ideal holding X, by trying every ideal
    filtered element by element."""
    return min((m for m in ring.divisors() if X <= ideal_oracle(ring, m)), key=ring.ideal_size)


def is_dense_oracle(A: SRing) -> bool:
    """Whether every ideal is an A-set, checked ideal by ideal."""
    return all(A.is_aset(A.ring.ideal(m)) for m in A.ring.divisors())


def coset_counts_oracle(A: SRing, m: int, X: Iterable[int]) -> set[int]:
    """The set of |X meet (x + mR)| over x in X, one ring.add per pair."""
    ring, X = A.ring, frozenset(X)
    H = ring.ideal(m)
    return {sum(1 for h in H if ring.add(x, h) in X) for x in X}


def frobenius_set_oracle(A: SRing, X: Iterable[int], p: int) -> frozenset[int]:
    """{p*x : x in X, |(x + H) meet X| not 0 mod p}, H = (c/p)R the
    p-torsion, counted with one ring.add per pair."""
    ring, X = A.ring, frozenset(X)
    H = ring.ideal(ring.char // p)
    return frozenset(ring.scale(x, p) for x in X
                     if sum(1 for h in H if ring.add(x, h) in X) % p)


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
    strata = cyclotomic(A.ring, A.ring.units()).classes[1:]  # [0] is {0}
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


def gr82_exceptions() -> list[SRing]:
    """Pure dense Schur rings of GR(8,2) that are not split by the steps of
    decompose_pure.  Each takes the orbits of a unit subgroup K everywhere
    but on 2R - 4R, the one stratum that is neither the units nor the
    minimal ideal 4R.  Rank 11: K of order 8, whose 3 orbits there merge
    into one class.  Rank 7: K of order 24, whose one orbit there splits
    into the orbits of a subgroup K2 of order 8, kept when it verifies."""
    ring = parse_ring_spec("GR(8,2)")
    groups = all_subgroups(ring, ring.units())
    keys = ring.unit_orbit_keys()
    middle = keys[ring.scale(ring.one, 2)]
    found = []
    for K in groups:
        if len(K) == 8:
            A = cyclotomic(ring, K)
            inside = [X for X in A.classes if keys[min(X)] == middle]
            if len(inside) == 3:
                outside = [X for X in A.classes if keys[min(X)] != middle]
                found.append(SRing(ring, outside + [frozenset().union(*inside)]))
        elif len(K) == 24:
            outer = cyclotomic(ring, K).class_of
            for K2 in groups:
                if len(K2) == 8 and K2 <= K:
                    inner = cyclotomic(ring, K2).class_of
                    A = SRing.from_labels(ring, labels(
                        (key == middle, (inner if key == middle else outer)[x])
                        for x, key in enumerate(keys)))
                    if A.rank == 7 and verify_sring(ring, A.classes).ok:
                        found.append(A)
    return found


def rank2(ring: CGRing) -> SRing:
    return SRing(ring, [{0}, set(ring.elements()) - {0}])


def random_invariant_seed(ring: CGRing, K: frozenset[int], rng: random.Random) -> set[int]:
    """A union of one or two K-orbits, so the seed is K-invariant."""
    orbits = cyclotomic(ring, K).classes
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
