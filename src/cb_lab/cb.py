"""Deciding the Cayley-Bacharach condition CB(r) with machine-checkable witnesses.

A finite set satisfies CB(r) when every degree-r form vanishing at all but
one of its points also vanishes at the last one.  Equivalently, dropping any
single row from the evaluation matrix must not lower its rank; that rank
characterization is what is computed here, from one reduced echelon form of
the transposed matrix: a row can be removed without losing rank exactly when
some left-kernel vector is nonzero on it, and the left kernel has one vector
per free column f, supported on f and on the pivot columns whose reduced
row is nonzero at f.  So the failing points are the pivot columns i whose
reduced row is the unit vector e_i.  On failure the witness is the first
canonical kernel vector of the punctured set that does not vanish at the
omitted point.

Conventions (the definitional edge cases are not forced by the mathematics
and are fixed here for consistency with the minimum-count bound |Gamma| >= r+2):
the empty set is CB(r) for every r, and CB(0) holds for every set, since the
only constant vanishing at a point is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import MonotonicityError
from .fields import FieldSpec
from .forms import eval_matrix
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


def _failing_indices(rows, field: FieldSpec):
    """Row indices whose removal lowers the rank, ascending: the pivot columns
    of the transposed matrix whose reduced row is a unit vector."""
    basis, piv = linalg.rref(linalg.transpose(rows), field)
    return [c for row, c in zip(basis, piv) if not any(row[c + 1:])]


def _witness_for(rows, omit: int, field: FieldSpec, ncols: int) -> tuple:
    punctured = [row for i, row in enumerate(rows) if i != omit]
    ker = linalg.kernel(punctured, ncols, field)
    target = rows[omit]
    for vec in ker:
        if linalg.dot(vec, target, field) != 0:
            return tuple(vec)
    raise AssertionError("rank dropped but no separating kernel vector found")


def is_cb_rows(rows, field: FieldSpec) -> bool:
    """Verdict-only CB check on prebuilt evaluation rows (degree >= 1).

    Used by exhaustive campaigns that precompute one row per ambient point
    and re-slice them across many subsets.
    """
    if not rows:
        return True
    return not _failing_indices(rows, field)


def is_cb(gamma: PointSet, r: int) -> CbReport:
    """Decide CB(r) for gamma; on failure the report carries a witness form."""
    if r < 0:
        raise ValueError("degree must be nonnegative")
    if len(gamma) == 0 or r == 0:
        return CbReport(r, True)
    m = eval_matrix(gamma, r)
    failing = _failing_indices(m.rows, m.field)
    if not failing:
        return CbReport(r, True)
    omit = failing[0]
    form = _witness_for(m.rows, omit, m.field, m.ncols)
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
    """Largest r <= r_cap with CB(r) true.

    Verdicts are expected to form a downward-closed interval; the scan checks
    this and raises MonotonicityError otherwise (possible over tiny fields
    where avoiding hyperplanes run out).
    """
    if r_cap < 0:
        raise ValueError("r_cap must be nonnegative")
    verdicts = [is_cb(gamma, rr).verdict for rr in range(r_cap + 1)]
    best = max(i for i, v in enumerate(verdicts) if v)
    if not all(verdicts[: best + 1]):
        raise MonotonicityError(f"CB verdicts not an interval: {verdicts}")
    return best
