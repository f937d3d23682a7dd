"""Exact row reduction, rank and kernel computation on raw field elements.

rref, reduce_against, dot and combine each pick a kernel once per call
from the field kind.  GF(p) runs on plain int residues: Gaussian
elimination, and dot products and linear combinations summed as ints and
reduced mod p once per entry.  Rational matrices are cleared to integers
row by row and reduced in one fraction-free Gauss-Jordan pass (Bareiss's
one-step update applied to the rows above the pivot as well as below):
every division is exact, so entries stay integers, and every pivot ends
equal to the last one; dividing the pivot rows by it gives the unique
reduced echelon form with Fraction entries.  Rational dot products and
combinations go through the FieldSpec ops.

The reduced echelon basis (zero rows dropped) is the canonical form used
everywhere for subspace identity: equal row spaces yield identical bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import PRIME, FieldSpec


def rref(rows, field: FieldSpec):
    """Reduced row echelon basis of the row space.

    Args:
        rows: iterable of equal-length rows of raw field elements.
        field: the FieldSpec the entries live in.

    Returns:
        (basis, pivot_cols): basis is a list of tuples (zero rows dropped,
        pivots normalized to 1, pivot columns cleared elsewhere), so
        len(basis) is the rank and the basis is unique per subspace.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    if field.kind == PRIME:
        return _rref_prime(m, field.p)
    return _rref_rational(m)


def _rref_prime(m, p):
    nrows, ncols = len(m), len(m[0])
    piv_cols = []
    pr = 0
    for c in range(ncols):
        pivot = -1
        for i in range(pr, nrows):
            if m[i][c] % p:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != pr:
            m[pr], m[pivot] = m[pivot], m[pr]
        inv = pow(m[pr][c], p - 2, p)
        row = m[pr]
        for j in range(c, ncols):
            row[j] = row[j] * inv % p
        for i in range(nrows):
            if i == pr:
                continue
            f = m[i][c] % p
            if f:
                other = m[i]
                for j in range(c, ncols):
                    other[j] = (other[j] - f * row[j]) % p
        piv_cols.append(c)
        pr += 1
        if pr == nrows:
            break
    return [tuple(r) for r in m[:pr]], piv_cols


def _clear_row(row):
    """Scale one row to coprime integers (sign preserved)."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    content = gcd(*ints)
    return [x // content for x in ints] if content > 1 else ints


def _rref_rational(m):
    ints = [_clear_row(r) for r in m]
    nrows, ncols = len(ints), len(ints[0])
    piv_cols = []
    pr = 0
    prev = 1
    for c in range(ncols):
        pivot = -1
        for i in range(pr, nrows):
            if ints[i][c]:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != pr:
            ints[pr], ints[pivot] = ints[pivot], ints[pr]
        row_p = ints[pr]
        piv = row_p[c]
        for i in range(nrows):
            if i != pr:
                # Bareiss one-step update, exact division.  Rows already 0 in
                # column c take it too: they must be scaled by piv / prev.
                f = ints[i][c]
                ints[i] = [(piv * a - f * b) // prev for a, b in zip(ints[i], row_p)]
        prev = piv
        piv_cols.append(c)
        pr += 1
        if pr == nrows:
            break
    return [tuple(Fraction(x, prev) for x in ints[i]) for i in range(pr)], piv_cols


def rank(rows, field: FieldSpec) -> int:
    return len(rref(rows, field)[0])


def kernel(rows, ncols: int, field: FieldSpec):
    """Canonical reduced-echelon basis of {v : rows . v = 0} in F**ncols."""
    basis, piv = rref(rows, field)
    pivset = set(piv)
    free = [c for c in range(ncols) if c not in pivset]
    if not free:
        return []
    zero, one = field.zero(), field.one()
    vecs = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for i, pc in enumerate(piv):
            v[pc] = field.neg(basis[i][f])
        vecs.append(v)
    canon, _ = rref(vecs, field)
    return canon


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def reduce_against(vec, basis, piv_cols, field: FieldSpec):
    """Residual of vec after eliminating the pivots of a reduced-echelon basis."""
    v = list(vec)
    n = len(v)
    if field.kind == PRIME:
        p = field.p
        for row, c in zip(basis, piv_cols):
            f = v[c] % p
            if f:
                for j in range(c, n):
                    v[j] = (v[j] - f * row[j]) % p
    else:
        for row, c in zip(basis, piv_cols):
            f = v[c]
            if f:
                for j in range(c, n):
                    v[j] = v[j] - f * row[j]
    return v


def in_row_space(vec, basis, piv_cols, field: FieldSpec) -> bool:
    return all(x == 0 for x in reduce_against(vec, basis, piv_cols, field))


def combine(coeffs, rows, field: FieldSpec):
    """The linear combination sum(c * row) of equal-length rows."""
    if field.kind == PRIME:
        p = field.p
        return [sum(c * x for c, x in zip(coeffs, col)) % p for col in zip(*rows)]
    out = [field.zero()] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c != 0:
            for j, x in enumerate(row):
                out[j] = field.add(out[j], field.mul(c, x))
    return out


def dot(u, v, field: FieldSpec):
    if field.kind == PRIME:
        return sum(a * b for a, b in zip(u, v)) % field.p
    acc = field.zero()
    for a, b in zip(u, v):
        if a != 0 and b != 0:
            acc = field.add(acc, field.mul(a, b))
    return acc
