"""Exact arithmetic in Galois rings GR(p^n, d).

A Galois ring of characteristic p^n and residue degree d is modeled as
Z_{p^n}[x] / (m(x)) where m is a monic polynomial of degree d whose
reduction mod p is irreducible over GF(p).  Elements are encoded as plain
integers: the coefficient vector (a_0, ..., a_{d-1}) with 0 <= a_i < p^n
has index sum(a_i * (p^n)**i).  All arithmetic is exact machine-integer
arithmetic, no floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import add
from typing import Iterable, Sequence

DEFAULT_MAX_RING_SIZE = 1 << 20
TABLE_LIMIT = 700  # the largest ring whose multiplication rows are kept or tabulated


def power_exceeds(base: int, exp: int, limit: int) -> bool:
    """Whether base**exp > limit, multiplying no further than past the limit
    (at most limit.bit_length() + 1 products), so it can gate a size before
    any factoring, primality test or large power."""
    value = 1
    for _ in range(exp if base > 1 else min(exp, 1)):
        value *= base
        if value > limit:
            break
    return value > limit


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def mixed_radix_sum(rows: Iterable[Sequence[int]]) -> list[int]:
    """The row whose entry at x = x_0 + n_0*x_1 + n_0*n_1*x_2 + ... is
    rows[0][x_0] + rows[1][x_1] + ..., n_j = len(rows[j]): slot 0 least
    significant, at one addition per entry and row."""
    out = [0]
    for row in rows:
        out = [a + b for b in row for a in out]
    return out


def _poly_rem(a: list[int], b: tuple[int, ...], p: int) -> list[int]:
    """Remainder of a mod the monic polynomial b, coefficients mod p."""
    a = [c % p for c in a]
    db = len(b) - 1
    for i in range(len(a) - 1 - db, -1, -1):
        q = a[i + db]
        if q:
            for j in range(db + 1):
                a[i + j] = (a[i + j] - q * b[j]) % p
    return a[:db]


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    d = len(f) - 1
    for deg in range(1, d // 2 + 1):
        for low in product(range(p), repeat=deg):
            if not any(_poly_rem(list(f), low + (1,), p)):
                return False
    return True


@lru_cache(maxsize=None)
def canonical_modulus(p: int, d: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible polynomial of degree d over GF(p).

    Candidates x^d + a_{d-1} x^{d-1} + ... + a_0 are ordered by the value
    sum(a_i * p**i), so for d = 1 the modulus is x itself and the quotient
    ring is Z_{p^n}.  Reversed, the product tuples run a_0 fastest, in order.
    """
    for low in product(range(p), repeat=d):
        f = low[::-1] + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {d} over GF({p})")


class GaloisRing:
    """GR(p^n, d) with elements indexed by 0 .. p^(n*d) - 1.

    Use :func:`make_galois_ring` instead of calling the constructor directly;
    it validates the parameters and picks the canonical modulus.
    """

    def __init__(self, p: int, n: int, d: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.d = d
        self.modulus = tuple(c % p**n for c in modulus)
        self.char = p**n
        self.size = self.char**d
        self.residue_size = p**d
        self.unit_count = (self.residue_size - 1) * p ** ((n - 1) * d)
        self._rows: dict[int, tuple[int, ...]] = {}

    def __repr__(self) -> str:
        return f"GaloisRing({self.spec()})"

    def spec(self) -> str:
        return f"GR({self.char},{self.d})" if self.d > 1 else f"GR({self.char})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaloisRing):
            return NotImplemented
        return (self.p, self.n, self.d, self.modulus) == (
            other.p,
            other.n,
            other.d,
            other.modulus,
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.d, self.modulus))

    # -- encoding -------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.d):
            a, r = divmod(a, self.char)
            out.append(r)
        return tuple(out)

    def index(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.char + c % self.char
        return a

    @property
    def one(self) -> int:
        return 1

    def elements(self) -> range:
        return range(self.size)

    # -- ring operations ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        char = self.char
        if self.d == 1:
            return (a + b) % char
        out = 0
        shift = 1
        for _ in range(self.d):
            a, ra = divmod(a, char)
            b, rb = divmod(b, char)
            out += ((ra + rb) % char) * shift
            shift *= char
        return out

    def neg(self, a: int) -> int:
        return self.scale(a, -1)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        """a*b = sum over j of b_j * (a*x^j), read from the basis images of
        a, so the modulus enters products only in their multiply-by-x step."""
        if self.d == 1:
            return a * b % self.char
        out = [0] * self.d
        for t, image in zip(self.coeffs(b), self._basis_images(a)):
            if t:
                out = [o + t * v for o, v in zip(out, image)]
        return self.index(out)

    def _basis_images(self, r: int) -> list[list[int]]:
        """The coefficient vectors b_j of r*x^j, j < d, each found from the
        one before by a multiply-by-x step: shift up, less top * modulus."""
        char = self.char
        images = [list(self.coeffs(r))]
        for _ in range(self.d - 1):
            prev = images[-1]
            top = prev[-1]
            images.append([(low - top * mk) % char
                           for low, mk in zip([0] + prev[:-1], self.modulus)])
        return images

    def mul_row(self, r: int) -> list[int]:
        """The products r*y over all elements y, in element order, as a
        fresh list the caller owns; a ring of at most TABLE_LIMIT elements
        keeps each row it builds as a tuple and hands out copies.
        y -> r*y is Z_{p^n}-linear, so coefficient i of r*y is the sum over
        j of y_j * b_j[i] mod char, b_j = r*x^j: one mixed_radix_sum per i."""
        kept = self._rows.get(r)
        if kept is not None:
            return list(kept)
        char, d = self.char, self.d
        if d == 1:
            row = [r * y % char for y in range(char)]
        else:
            images = self._basis_images(r)
            for i in range(d):
                coeff = mixed_radix_sum([t * b[i] % char for t in range(char)] for b in images)
                weighted = [v % char * char**i for v in range(d * char)]  # coeff < d*char
                column = map(weighted.__getitem__, coeff)
                row = list(column) if i == 0 else list(map(add, row, column))
        if self.size <= TABLE_LIMIT:
            self._rows[r] = tuple(row)
        return row

    def pow(self, a: int, k: int) -> int:
        out = 1
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def scale(self, a: int, k: int) -> int:
        """Additive multiple k*a, for plain integers k."""
        return self.index(k * c for c in self.coeffs(a))

    def is_unit(self, a: int) -> bool:
        return any(c % self.p for c in self.coeffs(a))

    def valuation(self, a: int) -> int:
        """Largest i <= n with a in p^i * R."""
        if a == 0:
            return self.n
        v, p = 0, self.p
        cs = self.coeffs(a)
        while v < self.n and all(c % p**(v + 1) == 0 for c in cs):
            v += 1
        return v

    # -- Galois structure -------------------------------------------------

    def trace(self, a: int) -> int:
        """Trace down to Z_{p^n}, returned as an integer in [0, p^n).

        The ring is free over Z_{p^n} on 1, x, ..., x^(d-1), and the sum of
        the Galois conjugates of a is the trace of the map y -> a*y: the
        sum over i of the coefficient of x^i in a*x^i.
        """
        return sum(b[i] for i, b in enumerate(self._basis_images(a))) % self.char

    def teichmuller_group(self) -> list[int]:
        """The p^d - 1 nonzero fixed points of x -> x^(p^d), in index order."""
        out = [a for a in self.elements() if a and self.pow(a, self.residue_size) == a]
        assert len(out) == self.residue_size - 1
        return out

    def unit_indices(self) -> list[int]:
        return [a for a in self.elements() if self.is_unit(a)]


def make_galois_ring(
    p: int, n: int = 1, d: int = 1, max_size: int = DEFAULT_MAX_RING_SIZE
) -> GaloisRing:
    """Construct GR(p^n, d) with the canonical modulus.

    Rejects composite p and rings larger than max_size elements.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if power_exceeds(p, n * d, max_size):
        raise ValueError(f"GR({p}^{n},{d}) exceeds the size limit {max_size}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return GaloisRing(p, n, d, canonical_modulus(p, d))
