"""Exact row reduction, rank and kernel computation on raw field elements.

echelon picks the elimination body once per call from the field kind, and
rref, rank and cb read it.  GF(p) runs Gaussian elimination on ints,
reduced to residues.  Over Q each row is made primitive (coprime integers,
first nonzero entry positive) and the rows are reduced in one fraction-free
Gauss-Jordan pass (Bareiss's one-step update applied to the rows above the
pivot as well as below; a row that is already zero is left alone).  Every
division is exact, so entries stay integers and every pivot ends equal to
the last one, the scale: the rows are the reduced echelon form times that
scale.  unit_pivots divides them by it, the one way back to Fraction rows
(rref's and cover's); rank and cb build no Fraction.  primitive is also
the integer form of a point (ProjPoint.ints) and of cover's residuals.

reduce_against has one fraction-free body over Q: against a reduced echelon
basis whose pivots all equal D it returns D*v - sum(v[c_k] * B_k).  A flat
over Q passes its integer basis (D the lcm of its denominators) and a
point's ints, so membership runs on integers; with D = 1 the same body is
the plain residual of a Fraction basis.

dot and combine have one body for both fields: native int or Fraction
products summed from the field's zero, reduced mod p once per output entry
over GF(p).  The FieldSpec element ops are the reference they are tested
against.  kernel reads its basis off a single rref, one vector at a time
for a reader that stops early (cb's witness).

The reduced echelon basis (zero rows dropped) is the canonical form used
everywhere for subspace identity: equal row spaces yield identical bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .fields import PRIME, FieldSpec


def echelon(rows, field: FieldSpec):
    """(rows, pivot_cols): each field's raw reduced echelon form, zero rows
    dropped.  Over GF(p), from any int rows, residue tuples with unit
    pivots; over Q, from int or Fraction rows, int rows whose pivots all
    equal one nonzero scale."""
    if field.kind == PRIME:
        return _echelon_prime([list(r) for r in rows], field.p)
    return _echelon_q([primitive(r) for r in rows])


def unit_pivots(basis, field: FieldSpec):
    """The reduced echelon basis of a raw one from echelon: over Q a list of
    its rows divided by their pivot scale, over GF(p) the basis itself."""
    if field.kind == PRIME or not basis:
        return basis
    d = next(x for x in basis[0] if x)
    return [tuple([Fraction(x, d) for x in row]) for row in basis]


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
    basis, piv = echelon(rows, field)
    return unit_pivots(basis, field), piv


def primitive(row) -> tuple:
    """row (ints or Fractions) scaled to coprime integers with its first
    nonzero entry positive; a zero row stays zero."""
    try:
        g = gcd(*row)
    except TypeError:  # a Fraction entry: clear the denominators first
        den = lcm(*(x.denominator for x in row))
        row = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*row)
    for x in row:
        if x:
            if x < 0:
                g = -g
            break
    return tuple(row) if g in (0, 1) else tuple([x // g for x in row])


def _echelon_prime(m, p):
    nrows, ncols = len(m), len(m[0]) if m else 0
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
        for j in range(ncols):  # left of c too: 0 mod p, but maybe unreduced
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


def _echelon_q(ints):
    nrows, ncols = len(ints), len(ints[0]) if ints else 0
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
                # Bareiss one-step update, exact division.  A row already 0 in
                # column c takes it too, to be scaled by piv / prev, unless it
                # is all zero: a zero row stays zero.
                row = ints[i]
                f = row[c]
                if f or any(row):
                    ints[i] = [(piv * a - f * b) // prev for a, b in zip(row, row_p)]
        prev = piv
        piv_cols.append(c)
        pr += 1
        if pr == nrows:
            break
    return ints[:pr], piv_cols


def rank(rows, field: FieldSpec) -> int:
    return len(echelon(rows, field)[0])


def kernel(rows, ncols: int, field: FieldSpec):
    """Canonical reduced-echelon basis of {v : rows . v = 0} in F**ncols.

    One rref of the column-reversed rows.  Read backwards, the vector of a
    free column f has its leading 1 at ncols-1-f, its other entries at pivot
    columns to the right of it and zeros at every other free column, so the
    vectors taken with f descending are already the reduced echelon basis.
    """
    return list(_kernel_vectors(rows, ncols, field))


def _kernel_vectors(rows, ncols: int, field: FieldSpec):
    """kernel's basis vectors in order, each built only when it is read."""
    basis, piv = rref([row[::-1] for row in rows], field)
    pivset = set(piv)
    zero, one = field.zero(), field.one()
    for f in range(ncols - 1, -1, -1):
        if f in pivset:
            continue
        v = [zero] * ncols
        v[ncols - 1 - f] = one
        for row, pc in zip(basis, piv):
            if pc > f:
                break
            v[ncols - 1 - pc] = field.neg(row[f])
        yield tuple(v)


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def reduce_against(vec, basis, piv_cols, field: FieldSpec):
    """Residual of vec after eliminating the pivots of a reduced-echelon basis.

    Over Q the basis may be integer rows whose pivots all equal D, and the
    residual is then the fraction-free D*vec - sum(vec[c_k] * B_k); with
    D = 1 (a Fraction basis) it is the plain residual."""
    if field.kind != PRIME:
        return _residual_q(vec, basis, piv_cols) if basis else list(vec)
    v = list(vec)
    n = len(v)
    p = field.p
    for row, c in zip(basis, piv_cols):
        f = v[c] % p
        if f:
            for j in range(c, n):
                v[j] = (v[j] - f * row[j]) % p
    return v


def _residual_q(vec, basis, piv_cols):
    """D*vec - sum(vec[c_k] * B_k) for a nonempty reduced echelon basis over Q
    whose pivots all equal D (the fraction-free body of reduce_against, also
    taken by cover's candidate residuals)."""
    d = basis[0][piv_cols[0]]
    v = [d * x for x in vec] if d != 1 else list(vec)
    for row, c in zip(basis, piv_cols):
        f = vec[c]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def in_row_space(vec, basis, piv_cols, field: FieldSpec) -> bool:
    return not any(reduce_against(vec, basis, piv_cols, field))


def combine(coeffs, rows, field: FieldSpec):
    """The linear combination sum(c * row) of equal-length rows."""
    zero = field.zero()
    out = [sum(map(mul, coeffs, col), zero) for col in zip(*rows)]
    if field.kind == PRIME:
        p = field.p
        return [x % p for x in out]
    return out


def dot(u, v, field: FieldSpec):
    acc = sum(map(mul, u, v), field.zero())
    return acc % field.p if field.kind == PRIME else acc
