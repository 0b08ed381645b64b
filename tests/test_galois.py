"""Galois ring arithmetic against independent brute-force oracles."""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import frobenius, teichmuller_lift, trace_oracle

from cgschur import galois
from cgschur.cgring import parse_ring_spec
from cgschur.galois import (
    TABLE_LIMIT,
    GaloisRing,
    canonical_modulus,
    is_prime,
    make_galois_ring,
    power_exceeds,
)


def poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def all_monic(deg, p):
    for tail in itertools.product(range(p), repeat=deg):
        yield list(tail) + [1]


def oracle_irreducible(f, p):
    """No factorization into two smaller monic polynomials."""
    d = len(f) - 1
    for da in range(1, d):
        for a in all_monic(da, p):
            for b in all_monic(d - da, p):
                if poly_mul_mod_p(a, b, p) == list(f):
                    return False
    return True


def test_canonical_modulus_is_least_irreducible():
    for p, d in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (3, 1), (3, 2), (3, 3),
                 (5, 2), (5, 3), (7, 2)]:
        m = canonical_modulus(p, d)
        assert len(m) == d + 1 and m[-1] == 1
        assert oracle_irreducible(m, p)
        k = sum(c * p**i for i, c in enumerate(m[:-1]))
        for smaller in range(k):
            coeffs, t = [], smaller
            for _ in range(d):
                t, r = divmod(t, p)
                coeffs.append(r)
            assert not oracle_irreducible(coeffs + [1], p)


def test_known_moduli():
    assert canonical_modulus(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert canonical_modulus(3, 2) == (1, 0, 1)  # x^2 + 1
    assert canonical_modulus(5, 1) == (0, 1)  # x


def test_make_galois_ring_validation():
    with pytest.raises(ValueError):
        make_galois_ring(4)
    with pytest.raises(ValueError):
        make_galois_ring(2, 0)
    with pytest.raises(ValueError):
        make_galois_ring(2, 21, 1)
    make_galois_ring(2, 20, 1)  # exactly at the default limit
    # the size gate runs before is_prime and before any power is built
    with pytest.raises(ValueError, match=r"^GR\(1000000000000000003\^1,1\) exceeds the size limit"):
        make_galois_ring(10**18 + 3)
    with pytest.raises(ValueError, match="exceeds the size limit 1048576$"):
        make_galois_ring(3, 1, 30_000_000)


def test_power_exceeds():
    for base, exp in itertools.product(range(5), range(6)):
        for limit in (0, 1, 15, 16, 17, 1024):
            assert power_exceeds(base, exp, limit) == (base**exp > limit)
    assert power_exceeds(2, 10**12, 1 << 20)
    assert not power_exceeds(1, 10**12, 1)


def test_is_prime():
    assert [m for m in range(60) if is_prime(m)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]


@pytest.mark.parametrize("p,n", [(3, 2), (2, 3), (5, 2)])
def test_d1_matches_integers_mod_char(p, n):
    """For d = 1 the ring is Z_{p^n} and indices are the residues themselves."""
    R = make_galois_ring(p, n)
    char = p**n
    assert R.size == char
    for a in range(char):
        assert R.neg(a) == (-a) % char
        for b in range(char):
            assert R.add(a, b) == (a + b) % char
            assert R.mul(a, b) == (a * b) % char


def poly_mul_mod(a, b, modulus, q):
    """a*b reduced by the monic modulus, coefficients mod q, by long division."""
    out = poly_mul_mod_p(a, b, q)
    d = len(modulus) - 1
    while len(out) > d:
        top = out.pop()
        for j in range(d):
            out[len(out) - d + j] = (out[len(out) - d + j] - top * modulus[j]) % q
    return out + [0] * (d - len(out))


@pytest.mark.parametrize("p,n,d", [(2, 3, 1), (3, 2, 1), (2, 2, 2), (2, 1, 3), (3, 2, 2),
                                   (2, 2, 3), (3, 2, 3)])
def test_mul_matches_polynomial_oracle(p, n, d):
    # every pair up to 81 elements; GR(9,3), n >= 2 with d >= 3, on 3000 seeded pairs
    R = make_galois_ring(p, n, d)
    if R.size <= 81:
        pairs = itertools.product(R.elements(), repeat=2)
    else:
        rng = random.Random(f"{p}-{n}-{d}")
        pairs = [(rng.randrange(R.size), rng.randrange(R.size)) for _ in range(3000)]
    for a, b in pairs:
        expected = poly_mul_mod(list(R.coeffs(a)), list(R.coeffs(b)), R.modulus, R.char)
        assert R.coeffs(R.mul(a, b)) == tuple(expected)


@pytest.mark.parametrize("p,n,d", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 1, 3), (5, 1, 4),
                                   (3, 2, 3), (2, 1, 10)])
def test_rows_match_mul_and_add(p, n, d):
    # GR(4,2), GR(8,2), GR(9,2), GR(2,3), GR(5,4), and two rings of over
    # 700 elements: every row up to 256 elements, 40 sampled rows above.
    # mul and mul_row share the basis images, so 8 sampled entries per row
    # are also checked against the long-division oracle.
    R = make_galois_ring(p, n, d)
    rng = random.Random(f"{p}-{n}-{d}")
    rows = R.elements() if R.size <= 256 else rng.sample(R.elements(), 40)
    for r in rows:
        row = R.mul_row(r)
        assert row == [R.mul(r, y) for y in R.elements()]
        for y in rng.sample(R.elements(), 8):
            expected = poly_mul_mod(list(R.coeffs(r)), list(R.coeffs(y)), R.modulus, R.char)
            assert R.coeffs(row[y]) == tuple(expected)


@pytest.mark.parametrize("p,n,d", [(2, 2, 2), (3, 2, 2), (5, 2, 1), (5, 1, 4)])
def test_rows_up_to_the_table_limit_are_built_once(p, n, d, monkeypatch):
    # GR(4,2), GR(9,2), GR(25) and GR(5,4) (625 elements), all under
    # TABLE_LIMIT: a second pass over every row builds nothing and hands
    # out copies equal to the kept rows.
    R = make_galois_ring(p, n, d)
    assert R.size <= TABLE_LIMIT
    first = [R.mul_row(r) for r in R.elements()]
    kept = dict(R._rows)
    assert kept == {r: tuple(row) for r, row in enumerate(first)}
    monkeypatch.setattr(galois, "mixed_radix_sum", None)  # any d > 1 build would fail
    again = [R.mul_row(r) for r in R.elements()]
    assert again == first
    assert all(R._rows[r] is kept[r] for r in R.elements())  # a build keeps a new tuple
    assert all(a is not b for a, b in zip(again, first))


def test_rows_over_the_table_limit_are_not_kept(monkeypatch):
    # GR(2,10) has 1024 elements: every call builds its row afresh.
    R = make_galois_ring(2, 1, 10)
    assert R.size > TABLE_LIMIT
    sums = []
    real = galois.mixed_radix_sum
    monkeypatch.setattr(galois, "mixed_radix_sum", lambda rows: sums.append(1) or real(rows))
    for r in (5, 5, 700):
        assert R.mul_row(r) == [R.mul(r, y) for y in R.elements()]
    assert len(sums) == 3 * R.d and R._rows == {}


@pytest.mark.parametrize("spec", ["GR(4,2)", "GR(25)", "GR(4,2)xGR(9)", "GR(25)xGR(8)"])
def test_kept_rows_are_not_changed_by_callers(spec):
    # A row handed out is the caller's: writing to it leaves the kept row,
    # and every row handed out after it, as it was.
    ring = parse_ring_spec(spec)
    for R in (ring, *ring.components):
        expected = [R.mul(5, y) for y in R.elements()]
        for _ in range(2):
            row = R.mul_row(5)
            assert row == expected
            row[7] = -1
            row.append(0)
        assert R.mul_row(5) == expected


def test_index_coeff_roundtrip():
    R = make_galois_ring(2, 2, 2)
    for a in R.elements():
        assert R.index(R.coeffs(a)) == a
    assert R.coeffs(R.index((3, 1))) == (3, 1)


def test_gr42_multiplication_and_inverse():
    R = make_galois_ring(2, 2, 2)
    x = R.index((0, 1))
    assert x == 4
    assert R.coeffs(R.mul(x, x)) == (3, 3)
    assert R.mul(x, R.index((3, 3))) == R.one
    assert R.unit_count == 12
    assert len(R.unit_indices()) == 12


def test_ring_axioms_exhaustive_gr42():
    R = make_galois_ring(2, 2, 2)
    els = list(R.elements())
    for a in els:
        assert R.add(a, 0) == a
        assert R.mul(a, R.one) == a
        assert R.add(a, R.neg(a)) == 0
    for a, b in itertools.product(els, repeat=2):
        assert R.add(a, b) == R.add(b, a)
        assert R.mul(a, b) == R.mul(b, a)
    rng = random.Random(7)
    for _ in range(500):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert R.mul(a, R.mul(b, c)) == R.mul(R.mul(a, b), c)
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))


def brute_force_automorphisms(R):
    """All ring automorphisms fixing the prime subring, as permutation maps.

    An automorphism is determined by the image of x, which must be a root of
    the modulus; each candidate root is checked for multiplicativity.
    """
    def apply(a, image_of_x):
        out = 0
        for c in reversed(R.coeffs(a)):
            out = R.add(R.mul(out, image_of_x), c)
        return out

    def is_root(r):
        acc = 0
        for c in reversed(R.modulus):
            acc = R.add(R.mul(acc, r), c)
        return acc == 0

    maps = []
    for r in R.elements():
        if is_root(r):
            phi = [apply(a, r) for a in R.elements()]
            if all(
                phi[R.mul(a, b)] == R.mul(phi[a], phi[b])
                for a in R.elements()
                for b in R.elements()
            ):
                maps.append(phi)
    return maps


def test_frobenius_gr42_against_automorphism_oracle():
    R = make_galois_ring(2, 2, 2)
    autos = brute_force_automorphisms(R)
    assert len(autos) == 2
    teich = R.teichmuller_group()
    frob_oracle = next(
        phi
        for phi in autos
        if all(phi[t] == R.mul(t, t) for t in teich)
    )
    x = R.index((0, 1))
    assert R.coeffs(frobenius(R, x)) == (3, 3)
    for a in R.elements():
        assert frobenius(R, a) == frob_oracle[a]
        assert frobenius(R, frobenius(R, a)) == a


def test_frobenius_is_ring_homomorphism():
    for R in [make_galois_ring(3, 2, 2, max_size=8000), make_galois_ring(2, 3, 2)]:
        els = list(R.elements())
        rng = random.Random(11)
        sample = [rng.choice(els) for _ in range(40)]
        for a in sample:
            s, b = frobenius(R, a), a
            for _ in range(R.d - 1):
                b = frobenius(R, b)
            assert frobenius(R, b) == a  # order d
            for c in sample:
                assert frobenius(R, R.add(a, c)) == R.add(s, frobenius(R, c))
                assert frobenius(R, R.mul(a, c)) == R.mul(s, frobenius(R, c))
        for k in range(R.char):  # prime subring is fixed
            assert frobenius(R, R.index((k,) + (0,) * (R.d - 1))) == R.index(
                (k,) + (0,) * (R.d - 1)
            )


def test_trace_gr42():
    R = make_galois_ring(2, 2, 2)
    x = R.index((0, 1))
    assert R.trace(x) == 3
    assert R.trace(R.one) == 2
    assert {R.trace(a) for a in R.elements()} == {0, 1, 2, 3}
    for a in R.elements():
        for b in R.elements():
            assert R.trace(R.add(a, b)) == (R.trace(a) + R.trace(b)) % R.char
        assert R.trace(R.scale(a, 3)) == (3 * R.trace(a)) % R.char


def test_trace_surjective_gr92():
    R = make_galois_ring(3, 2, 2, max_size=8000)
    assert {R.trace(a) for a in R.elements()} == set(range(9))


def test_trace_matches_conjugate_sum_oracle():
    # d = 2..5 and up to 2401 elements; the oracle sums Frobenius conjugates.
    for p, n, d in [(2, 2, 2), (2, 3, 2), (2, 1, 3), (2, 2, 3), (3, 2, 2), (3, 3, 2),
                    (5, 2, 2), (2, 4, 2), (2, 1, 4), (2, 2, 4), (3, 1, 3), (2, 1, 5),
                    (7, 2, 2)]:
        R = make_galois_ring(p, n, d)
        for a in R.elements():
            assert R.trace(a) == trace_oracle(R, a), (R.spec(), R.coeffs(a))


def test_teichmuller_groups():
    assert make_galois_ring(3, 2).teichmuller_group() == [1, 8]
    assert make_galois_ring(5, 2).teichmuller_group() == [1, 7, 18, 24]
    R = make_galois_ring(2, 2, 2)
    T = R.teichmuller_group()
    assert T == [1, R.index((0, 1)), R.index((3, 3))]
    for t in T:  # cyclic of order p^d - 1
        assert R.pow(t, 3) == R.one
    assert teichmuller_lift(R, R.index((2, 1))) == R.index((0, 1))


def test_valuation_z9():
    R = make_galois_ring(3, 2)
    assert [R.valuation(a) for a in range(9)] == [2, 0, 0, 1, 0, 0, 1, 0, 0]


def test_scale_matches_repeated_addition():
    R = make_galois_ring(2, 2, 2)
    for a in R.elements():
        acc = 0
        for k in range(5):
            assert R.scale(a, k) == acc
            acc = R.add(acc, a)


def test_spec_strings():
    assert make_galois_ring(3, 2).spec() == "GR(9)"
    assert make_galois_ring(2, 2, 2).spec() == "GR(4,2)"
