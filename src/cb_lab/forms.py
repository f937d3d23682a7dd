"""Degree-r monomial bases and evaluation (Veronese) matrices.

The evaluation matrix of a point set has one row per point holding the
values of every degree-r monomial at that point (graded-lex order, leading
variable first).  Its kernel is the space of degree-r forms vanishing on
the whole set, which is what makes the Cayley-Bacharach condition a rank
statement.

monomial_columns is the one builder, for both fields and every caller: it
builds the matrix monomial-major, forming each coordinate's power columns
over the points and multiplying them into one list per monomial, sharing
exponent prefixes and reducing each product mod p over GF(p).  That is
(n + 1) * r power columns and at most two products per monomial, for any r.
Over Q the entries are products of the coordinates, Fractions from
Fractions and ints from a point's ints.  eval_matrix is its transpose and
evaluation_row its one-point read; cb, the campaign scan and the pencil
draw read the columns themselves.  The FieldSpec element ops are the
reference the builder is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from . import linalg
from .fields import FieldSpec
from .projective import PointSet, ProjPoint


@dataclass(frozen=True)
class MonomialBasis:
    """All exponent vectors of total degree r in n+1 variables, graded-lex order."""

    n: int
    r: int
    monomials: tuple

    def __len__(self) -> int:
        return len(self.monomials)


def _exponents(nvars: int, total: int):
    if nvars == 1:
        yield (total,)
        return
    for e in range(total, -1, -1):
        for rest in _exponents(nvars - 1, total - e):
            yield (e,) + rest


@lru_cache(maxsize=64)
def monomial_basis(n: int, r: int) -> MonomialBasis:
    """The degree-r monomial basis on P^n; count is binomial(n+r, r)."""
    if n < 0 or r < 0:
        raise ValueError("need n >= 0 and r >= 0")
    monos = tuple(_exponents(n + 1, r))
    assert len(monos) == comb(n + r, r)
    return MonomialBasis(n, r, monos)


def evaluation_row(coords, basis: MonomialBasis, field: FieldSpec):
    """Values of every basis monomial at one coordinate vector."""
    return tuple(col[0] for col in monomial_columns([coords], basis, field.p))


def monomial_columns(points, basis: MonomialBasis, p: int | None = None) -> list:
    """The evaluation matrix monomial-major: for each basis monomial, in
    order, the list of its values at every coordinate vector of points (ints,
    or Fractions over Q), reduced mod p when p is given.  It runs
    _column_program for the basis."""
    steps, out = _column_program(basis.n, basis.r)
    ones = [pt[0] ** 0 for pt in points]  # 1 in the coordinates' type
    slots = [ones] + [_product(ones, [pt[i] for pt in points], p) for i in range(basis.n + 1)]
    for a, b in steps:
        slots.append(_product(slots[a], slots[b], p))
    return [slots[k] for k in out]


@lru_cache(maxsize=64)
def _column_program(n: int, r: int):
    """(steps, out), a straight-line program for monomial_columns on P^n in
    degree r.  Slot 0 holds the ones column and slot 1 + i the column of x_i;
    step (a, b) appends the product of slots a and b; out[j] is the slot of
    the j-th basis monomial.

    The powers x_i^e, e <= r, come first.  Then the column of an exponent
    prefix (e_0, ..., e_k) is that of (e_0, ..., e_{k-1}) times x_k^(e_k),
    made once, and only when e_k and an earlier exponent are nonzero.  Such a
    prefix with k < n also starts one monomial, the one in which x_n takes
    the rest of the degree, so there are at most two products per monomial,
    for any r.
    """
    steps = []
    power = [[0, 1 + i] for i in range(n + 1)]  # power[i][e]: the slot of x_i^e
    for i in range(n + 1):
        for _ in range(r - 1):
            steps.append((power[i][-1], 1 + i))
            power[i].append(n + 1 + len(steps))
    prefix, out = {(): 0}, []
    for expo in monomial_basis(n, r).monomials:
        for k in range(n + 1):
            head = expo[:k + 1]
            if head not in prefix:
                left, e = prefix[expo[:k]], expo[k]
                if e and left:
                    steps.append((left, power[k][e]))
                    prefix[head] = n + 1 + len(steps)
                else:
                    prefix[head] = power[k][e] if e else left
        out.append(prefix[expo])
    return tuple(steps), tuple(out)


def _product(u, v, p: int | None) -> list:
    """Entrywise u * v, reduced mod p when p is given."""
    return [a * b % p for a, b in zip(u, v)] if p else [a * b for a, b in zip(u, v)]


@dataclass(frozen=True)
class EvalMatrix:
    """Rows = points of gamma, columns = degree-r monomials in graded-lex order."""

    field: FieldSpec
    basis: MonomialBasis
    rows: tuple

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.basis)


def eval_matrix(gamma: PointSet, r: int) -> EvalMatrix:
    """Evaluation matrix of gamma for degree-r forms (deterministic in the
    point order and the fixed monomial order)."""
    if r < 0:
        raise ValueError("degree must be nonnegative")
    basis = monomial_basis(gamma.ambient_dim, r)
    cols = monomial_columns([pt.coords for pt in gamma], basis, gamma.field.p)
    return EvalMatrix(gamma.field, basis, tuple(zip(*cols)))


def evaluate_form(coeffs, basis: MonomialBasis, pt: ProjPoint):
    """Value of the form sum(c_j * monomial_j) at a point."""
    row = evaluation_row(pt.coords, basis, pt.field)
    return linalg.dot(coeffs, row, pt.field)
