"""Deciding the Cayley-Bacharach condition CB(r) with machine-checkable witnesses.

A finite set satisfies CB(r) when every degree-r form vanishing at all but
one of its points also vanishes at the last one.  Equivalently, dropping any
single row from the evaluation matrix must not lower its rank; that rank
characterization is what is computed here, from one reduced echelon form of
the monomial-major matrix (one list over the points per monomial, the
transpose of the evaluation matrix): a point can be removed without losing
rank exactly when some left-kernel vector is nonzero on it, and the left
kernel has one vector per free column f, supported on f and on the pivot
columns whose reduced row is nonzero at f.  So the failing points are the
pivot columns i whose reduced row is the unit vector e_i.  On failure the
witness is the first canonical kernel vector of the punctured set that does
not vanish at the omitted point; the vectors are built one at a time, so
none after it is.

forms.monomial_columns builds the matrix one monomial at a time from each
point's ints (residues over GF(p), the primitive integer vector over Q), and
linalg.echelon reduces it for the field, on integers over Q.  The point
rows exist only for a witness, as that matrix's transpose.  Scaling a point
scales its values, which moves neither the failing set nor the kernel, so
the verdict and the witness are those of the Fraction rows.
_failing_points is the one reader of the failing set: the exhaustive scan
in campaign builds the rows of every point of the space once and hands it
each subset's columns, the transpose of the subset's rows.

Conventions (the definitional edge cases are not forced by the mathematics
and are fixed here for consistency with the minimum-count bound |Gamma| >= r+2):
the empty set is CB(r) for every r, and CB(0) holds for every set, since the
only constant vanishing at a point is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .fields import FieldSpec
from .forms import monomial_basis, monomial_columns
from .projective import PlaneConfiguration, PointSet


@dataclass(frozen=True)
class CbWitness:
    """A degree-r form vanishing on all of gamma except the omitted point."""

    omitted_point_index: int
    form_coefficients: tuple


@dataclass(frozen=True)
class CbReport:
    r: int
    verdict: bool
    witness: CbWitness | None = None

    def to_json(self, field: FieldSpec | None = None) -> dict:
        obj = {"r": self.r, "verdict": self.verdict}
        if self.witness is not None:
            coeffs = self.witness.form_coefficients
            obj["witness"] = {
                "omitted": self.witness.omitted_point_index,
                "form": [field.encode(c) if field else c for c in coeffs],
            }
        return obj


def _failing_points(cols, field: FieldSpec):
    """Point indices whose removal lowers the rank, ascending, read off the
    monomial-major matrix (one list over the points per monomial): its pivot
    columns whose reduced row is a unit vector."""
    basis, piv = linalg.echelon(cols, field)
    return [c for row, c in zip(basis, piv) if not any(row[c + 1:])]


def _witness_for(rows, omit: int, field: FieldSpec, ncols: int) -> tuple:
    punctured = [row for i, row in enumerate(rows) if i != omit]
    target = rows[omit]
    for vec in linalg._kernel_vectors(punctured, ncols, field):
        if linalg.dot(vec, target, field) != 0:
            return vec
    raise AssertionError("rank dropped but no separating kernel vector found")


def is_cb(gamma: PointSet, r: int) -> CbReport:
    """Decide CB(r) for gamma; on failure the report carries a witness form."""
    if r < 0:
        raise ValueError("degree must be nonnegative")
    if len(gamma) == 0 or r == 0:
        return CbReport(r, True)
    field = gamma.field
    basis = monomial_basis(gamma.ambient_dim, r)
    cols = monomial_columns([pt.ints for pt in gamma], basis, field.p)
    failing = _failing_points(cols, field)
    if not failing:
        return CbReport(r, True)
    omit = failing[0]
    form = _witness_for(linalg.transpose(cols), omit, field, len(cols))
    return CbReport(r, False, CbWitness(omit, form))


def excise(gamma: PointSet, cfg: PlaneConfiguration) -> PointSet:
    """Remove every point of gamma lying on some plane of cfg (order kept).

    When gamma is CB(r) and cfg has length l, the survivors are CB(r - l)
    whenever the planes extend to hyperplanes avoiding them, which holds over
    fields large relative to |gamma|.
    """
    if cfg.field != gamma.field or cfg.ambient_dim != gamma.ambient_dim:
        raise ValueError("configuration must share gamma's ambient space")
    survivors = tuple(pt for pt in gamma if not cfg.covers(pt))
    return PointSet(gamma.field, gamma.ambient_dim, survivors)


def max_cb(gamma: PointSet, r_cap: int) -> int:
    """Largest r <= r_cap with CB(r) true, by one upward scan that stops at
    the first false verdict.

    The verdicts are downward closed over every field: if a form f of degree
    r - 1 vanishes on gamma but for a point x and not at x, then x_i f, for a
    coordinate with x_i(x) != 0, does the same in degree r.  So CB(r)
    implies CB(r - 1), and CB(0) always holds.
    """
    if r_cap < 0:
        raise ValueError("r_cap must be nonnegative")
    for r in range(1, r_cap + 1):
        if not is_cb(gamma, r).verdict:
            return r - 1
    return r_cap
