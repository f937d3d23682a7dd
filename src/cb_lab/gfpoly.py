"""Univariate polynomials over GF(p) and their roots in GF(p).

A polynomial is a list of int residues, constant term first, with no
trailing zeros; [] is the zero polynomial.  roots finds the distinct roots
without scanning the field: the gcd with t^p - t keeps one linear factor
per root, and the factors are split apart with (t + a)^((p-1)/2) - 1 for
a = 0, 1, 2, ... (Cantor-Zassenhaus equal-degree splitting with a counter
in place of the random shift, so no random draw is consumed).  Both powers
come from one square-and-shift loop over the bits of the exponent: each step
squares the residue, multiplies it by t + a (a shift, plus a times the
residue) when the bit is set, and folds the top coefficients back with
t^n = -(f_0 + ... + f_(n-1) t^(n-1)) for the monic f of degree n, taking one
% p per coefficient.  A degree-n polynomial costs O(n^2 log p) field
operations.  A factor t^2 + bt + c of two roots is not split but solved:
its roots are (-b +- s)/2, s a square root of the nonzero square b^2 - 4c
taken by Tonelli-Shanks with the least quadratic non-residue, so this step
draws nothing either.
"""

from __future__ import annotations


def trim(f, p: int) -> list:
    """f reduced mod p with its trailing zeros dropped."""
    out = [c % p for c in f]
    while out and not out[-1]:
        out.pop()
    return out


def _add(f, g, p: int) -> list:
    if len(f) < len(g):
        f, g = g, f
    return trim([c + (g[i] if i < len(g) else 0) for i, c in enumerate(f)], p)


def quo_rem(f, g, p: int) -> tuple:
    """(q, r) with f = q*g + r and deg r < deg g; g must be nonzero."""
    r = trim(f, p)
    n = len(g) - 1
    inv = pow(g[n], p - 2, p)
    q = [0] * max(len(r) - n, 0)
    while len(r) > n:
        shift = len(r) - 1 - n
        c = r[-1] * inv % p
        q[shift] = c
        for j in range(n):
            r[shift + j] = (r[shift + j] - c * g[j]) % p
        r.pop()
        while r and not r[-1]:
            r.pop()
    return q, r


def mod(f, g, p: int) -> list:
    return quo_rem(f, g, p)[1]


def gcd(f, g, p: int) -> list:
    """The monic gcd; gcd([], []) is []."""
    f, g = trim(f, p), trim(g, p)
    while g:
        f, g = g, mod(f, g, p)
    if not f:
        return f
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def evaluate(f, x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def roots(f, p: int) -> list:
    """The distinct roots in GF(p) of a nonzero polynomial, ascending."""
    f = trim(f, p)
    if not f:
        raise ValueError("the zero polynomial vanishes everywhere")
    if p == 2:
        return [x for x in (0, 1) if evaluate(f, x, p) == 0]
    if len(f) < 3:
        return [-f[0] * pow(f[1], p - 2, p) % p] if len(f) == 2 else []
    found = []
    _split(gcd(f, _add(_linear_power(0, p, f, p), [0, -1], p), p), p, found, 0)
    return sorted(found)


def _linear_power(a: int, e: int, f, p: int) -> list:
    """(t + a)^e mod f for a trimmed f of degree n >= 1, by square-and-shift."""
    n = len(f) - 1
    inv = pow(f[-1], p - 2, p)
    tail = [-c * inv % p for c in f[:n]]  # t^n mod f
    r = [1] + [0] * (n - 1)
    for bit in bin(e)[2:]:
        sq = [0] * (2 * n - 1)
        for i, x in enumerate(r):
            if x:
                for j, y in enumerate(r, i):
                    sq[j] += x * y
        if bit == "1":
            sq.insert(0, 0)
            if a:
                for j in range(len(sq) - 1):
                    sq[j] += a * sq[j + 1]
        for top in range(len(sq) - 1, n - 1, -1):
            c = sq.pop() % p
            if c:
                for j, t in enumerate(tail, top - n):
                    sq[j] += c * t
        r = [c % p for c in sq]
    return trim(r, p)


def _split(g, p: int, found: list, start: int) -> None:
    """Append the roots of a monic product of distinct linear factors (odd p),
    trying the shifts from start on, cyclically."""
    if len(g) < 2:
        return
    if len(g) == 2:
        found.append(-g[0] % p)
        return
    if len(g) == 3:
        c, b = g[0], g[1]
        s = _sqrt((b * b - 4 * c) % p, p)
        half = (p + 1) // 2
        found += [(-b + s) * half % p, (-b - s) * half % p]
        return
    # Two roots r != s fall on opposite sides for about half of all shifts a
    # (quadratic character of r + a versus s + a), so p shifts always split.
    for a in range(start, start + p):
        d = gcd(g, _add(_linear_power(a % p, (p - 1) // 2, g, p), [-1], p), p)
        if 1 < len(d) < len(g):
            _split(d, p, found, a + 1)
            _split(quo_rem(g, d, p)[0], p, found, a + 1)
            return
    raise AssertionError("unreachable: no shift splits distinct roots")


def _sqrt(a: int, p: int) -> int:
    """A square root of the nonzero square a mod the odd prime p
    (Tonelli-Shanks); the non-residue is the least one, found only when
    a^q is not 1 for p - 1 = q 2^k, q odd."""
    q, k = p - 1, 0
    while not q & 1:
        q >>= 1
        k += 1
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if t == 1:
        return r
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (k - i - 1), p)
        k, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
