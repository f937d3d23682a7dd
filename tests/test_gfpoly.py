"""Polynomials over GF(p): arithmetic identities and roots against brute force."""

import random
from itertools import zip_longest

import pytest

from cb_lab import gfpoly
from helpers import poly_mul


def _brute_roots(f, p):
    return [x for x in range(p) if gfpoly.evaluate(f, x, p) == 0]


def _irreducibles(p, rng):
    """Monic quadratics and cubics with no root in GF(p), hence irreducible."""
    out = []
    while len(out) < 6:
        f = [rng.randrange(p) for _ in range(len(out) % 2 + 2)] + [1]
        if not _brute_roots(f, p):
            out.append(f)
    return out


def _product(factors, p):
    f = [1]
    for g in factors:
        f = poly_mul(f, g, p)
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_roots_match_brute_force(p):
    rng = random.Random(p)
    irreducible = _irreducibles(p, rng)
    for _ in range(150):
        # linear factors with repeats, irreducible factors and a unit
        linear = [[-rng.randrange(p), 1] for _ in range(rng.randrange(6))]
        linear += linear[: rng.randrange(3)]
        other = rng.sample(irreducible, rng.randrange(3))
        f = _product(linear + other + [[rng.randrange(1, p)]], p)
        assert gfpoly.roots(f, p) == _brute_roots(f, p) == sorted({-g[0] % p for g in linear})
        g = gfpoly.trim([rng.randrange(p) for _ in range(rng.randrange(1, 12))], p)
        if g:
            assert gfpoly.roots(g, p) == _brute_roots(g, p)
    with pytest.raises(ValueError):
        gfpoly.roots([0, p], p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_roots_of_non_monic_polynomials_up_to_degree_nine(p):
    # degree 9 is the pencil resultant's; t^p mod f is taken on the monic f
    rng = random.Random(p + 1)
    for deg in range(1, 10):
        for _ in range(20):
            forced = rng.sample(range(p), rng.randrange(min(deg, p) + 1))
            rest = [rng.randrange(p) for _ in range(deg - len(forced))] + [rng.randrange(1, p)]
            f = _product([[-r, 1] for r in forced] + [rest], p)
            assert len(f) == deg + 1
            got = gfpoly.roots(f, p)
            assert got == _brute_roots(f, p) and set(forced) <= set(got)


def test_roots_of_every_split_polynomial_over_gf5():
    # all products of distinct linear factors: every splitting path is taken
    p = 5
    for mask in range(1, 1 << p):
        rts = [x for x in range(p) if mask >> x & 1]
        assert gfpoly.roots(_product([[-x, 1] for x in rts], p), p) == rts


@pytest.mark.parametrize("p", [2, 3, 7, 101, 100003])
def test_arithmetic_identities(p):
    rng = random.Random(p)
    for _ in range(100):
        f, g = (gfpoly.trim([rng.randrange(p) for _ in range(rng.randrange(9))], p)
                for _ in range(2))
        if not g:
            continue
        q, r = gfpoly.quo_rem(f, g, p)
        assert len(r) < len(g)
        qg = poly_mul(q, g, p)
        assert gfpoly.trim([a - b - c for a, b, c in zip_longest(f, qg, r, fillvalue=0)], p) == []
        h = gfpoly.gcd(f, g, p)
        assert h[-1] == 1 and not gfpoly.mod(f, h, p) and not gfpoly.mod(g, h, p)
        if len(g) < 2:
            continue
        # the fused square-and-shift against square-and-multiply with mul and mod
        a, e = rng.randrange(p), rng.choice((rng.randrange(50), (p - 1) // 2, p))
        base, want = gfpoly.trim([a, 1], p), gfpoly.mod([1], g, p)
        for bit in bin(e)[2:]:
            want = gfpoly.mod(poly_mul(want, want, p), g, p)
            if bit == "1":
                want = gfpoly.mod(poly_mul(want, base, p), g, p)
        assert gfpoly._linear_power(a, e, g, p) == want


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 97, 193, 257, 7681, 65537])
def test_sqrt_matches_brute_force(p):
    # p - 1 = q 2^k with k up to 16 (65537 = 2^16 + 1): every Tonelli-Shanks
    # step count is taken, and the early return when a^q = 1
    rts = {}
    for x in range(1, p):
        rts.setdefault(x * x % p, set()).add(x)
    squares = sorted(rts)
    if p > 10000:
        squares = random.Random(p).sample(squares, 3000)
    for a in squares:
        assert gfpoly._sqrt(a, p) in rts[a]


def test_roots_of_every_product_of_two_distinct_linear_factors_over_gf17():
    # the degree-2 factor left by the gcd is solved by the quadratic formula
    p = 17
    for r in range(p):
        for s in range(r + 1, p):
            for lead in (1, 3, p - 1):
                f = _product([[-r, 1], [-s, 1], [lead]], p)
                assert gfpoly.roots(f, p) == _brute_roots(f, p) == [r, s]


@pytest.mark.parametrize("p, brute", [(257, 200), (100003, 3)])
def test_roots_of_random_products_of_two_distinct_linear_factors(p, brute):
    rng = random.Random(p)
    for i in range(200):
        r, s = rng.sample(range(p), 2)
        f = _product([[-r, 1], [-s, 1], [rng.randrange(1, p)]], p)
        got = gfpoly.roots(f, p)
        assert got == sorted([r, s])
        if i < brute:
            assert got == _brute_roots(f, p)
