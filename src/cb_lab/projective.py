"""Projective points, flats, spans, intersections and plane configurations.

Points are stored with homogeneous coordinates normalized so the first
nonzero coordinate is 1; flats store the reduced-echelon basis of their
affine cone.  Both forms are unique per object, so equality and hashing
are structural and deduplication is a byte comparison.

All types are immutable and all operations are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .errors import (
    DuplicatePointError,
    EmptyInputError,
    FieldTooSmallError,
    InvalidFieldError,
)
from .fields import PRIME, FieldSpec


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^n: nonzero coordinate vector, first nonzero entry scaled to 1."""

    field: FieldSpec
    coords: tuple

    def __post_init__(self):
        coords = tuple(self.field.coerce(c) for c in self.coords)
        if not coords:
            raise EmptyInputError("a point needs at least one coordinate")
        lead = -1
        for i, c in enumerate(coords):
            if c != 0:
                lead = i
                break
        if lead < 0:
            raise ValueError("the zero vector is not a projective point")
        if coords[lead] != self.field.one():
            inv = self.field.inv(coords[lead])
            coords = tuple(self.field.mul(inv, c) for c in coords)
        object.__setattr__(self, "coords", coords)

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    def __repr__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


@dataclass(frozen=True)
class PointSet:
    """An ordered set of distinct points of P^n over one field (the set Gamma)."""

    field: FieldSpec
    ambient_dim: int
    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        for pt in pts:
            if pt.field != self.field:
                raise InvalidFieldError("point field differs from the set's field")
            if pt.ambient_dim != self.ambient_dim:
                raise ValueError("point ambient dimension differs from the set's")
        seen = set()
        for pt in pts:
            if pt.coords in seen:
                raise DuplicatePointError(f"repeated point {pt}")
            seen.add(pt.coords)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_coords(cls, field: FieldSpec, coord_rows, ambient_dim: int | None = None) -> PointSet:
        pts = tuple(ProjPoint(field, row) for row in coord_rows)
        if ambient_dim is None:
            if not pts:
                raise EmptyInputError("ambient_dim required for an empty set")
            ambient_dim = pts[0].ambient_dim
        return cls(field, ambient_dim, pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i) -> ProjPoint:
        return self.points[i]

    def without(self, i: int) -> PointSet:
        return PointSet(self.field, self.ambient_dim, self.points[:i] + self.points[i + 1 :])

    def subset(self, indices) -> PointSet:
        return PointSet(self.field, self.ambient_dim, tuple(self.points[i] for i in indices))

    def coord_rows(self):
        return [list(pt.coords) for pt in self.points]

    def to_json(self) -> dict:
        enc = (lambda c: str(int(c))) if self.field.is_prime_field else self.field.encode
        return {
            "field": self.field.to_json(),
            "ambient_dim": self.ambient_dim,
            "points": [[enc(c) for c in pt.coords] for pt in self.points],
        }

    @classmethod
    def from_json(cls, obj: dict) -> PointSet:
        try:
            fld = FieldSpec.from_json(obj["field"])
            pts = tuple(ProjPoint(fld, [fld.decode(c) for c in row]) for row in obj["points"])
            ambient_dim = obj["ambient_dim"]
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed point set JSON: {type(exc).__name__}: {exc}") from exc
        return cls(fld, ambient_dim, pts)


@dataclass(frozen=True)
class Flat:
    """A linear subspace of P^n.  The constructor takes the reduced-echelon basis
    of its cone as a tuple of row tuples, unchecked; span and from_generators
    validate raw rows."""

    field: FieldSpec
    ambient_dim: int
    basis: tuple

    @classmethod
    def from_generators(cls, field: FieldSpec, ambient_dim: int, rows) -> Flat:
        rows = list(rows)
        if any(len(row) != ambient_dim + 1 for row in rows):
            raise ValueError("generator length does not match the ambient space")
        basis, _ = linalg.rref(rows, field)
        if not basis:
            raise EmptyInputError("generators span only the origin")
        return cls(field, ambient_dim, tuple(basis))

    @property
    def dim(self) -> int:
        return len(self.basis) - 1

    @cached_property
    def pivot_cols(self):
        return tuple(next(j for j, x in enumerate(row) if x != 0) for row in self.basis)

    def contains(self, pt: ProjPoint) -> bool:
        return linalg.in_row_space(pt.coords, self.basis, self.pivot_cols, self.field)

    def contains_flat(self, other: Flat) -> bool:
        piv = self.pivot_cols
        return all(
            linalg.in_row_space(row, self.basis, piv, self.field) for row in other.basis
        )

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "dim": self.dim,
            "basis": [[self.field.encode(x) for x in row] for row in self.basis],
        }

    @classmethod
    def from_json(cls, field: FieldSpec, obj: dict) -> Flat:
        rows = [[field.decode(x) for x in row] for row in obj["basis"]]
        return cls.from_generators(field, obj["ambient_dim"], rows)


@dataclass(frozen=True, eq=False)
class PlaneConfiguration:
    """A union of distinct positive-dimensional flats P_1, ..., P_k.

    Its dimension is the sum of the component dimensions and its length is k.
    """

    planes: tuple

    def __post_init__(self):
        planes = tuple(self.planes)
        if not planes:
            raise EmptyInputError("a plane configuration needs at least one plane")
        first = planes[0]
        for pl in planes:
            if pl.dim < 1:
                raise ValueError("configuration planes must be positive-dimensional")
            if pl.field != first.field or pl.ambient_dim != first.ambient_dim:
                raise ValueError("planes must share one ambient space")
        if len(set(planes)) != len(planes):
            raise ValueError("configuration planes must be pairwise distinct")
        object.__setattr__(self, "planes", planes)

    @property
    def field(self) -> FieldSpec:
        return self.planes[0].field

    @property
    def ambient_dim(self) -> int:
        return self.planes[0].ambient_dim

    @property
    def dim(self) -> int:
        return sum(pl.dim for pl in self.planes)

    @property
    def length(self) -> int:
        return len(self.planes)

    def covers(self, pt: ProjPoint) -> bool:
        return any(pl.contains(pt) for pl in self.planes)

    def __eq__(self, other):
        if not isinstance(other, PlaneConfiguration):
            return NotImplemented
        return frozenset(self.planes) == frozenset(other.planes)

    def __hash__(self):
        return hash(frozenset(self.planes))

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "planes": [pl.to_json() for pl in self.planes],
        }

    @classmethod
    def from_json(cls, obj: dict) -> PlaneConfiguration:
        fld = FieldSpec.from_json(obj["field"])
        return cls(tuple(Flat.from_json(fld, pj) for pj in obj["planes"]))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _gather_rows(objects):
    rows = []
    fld = None
    amb = None
    for obj in objects:
        if isinstance(obj, ProjPoint):
            new = [list(obj.coords)]
            f, a = obj.field, obj.ambient_dim
        elif isinstance(obj, Flat):
            new = [list(r) for r in obj.basis]
            f, a = obj.field, obj.ambient_dim
        else:
            raise TypeError(f"cannot span {type(obj).__name__}")
        if fld is None:
            fld, amb = f, a
        elif f != fld or a != amb:
            raise ValueError("span inputs must share one ambient space")
        rows.extend(new)
    if fld is None:
        raise EmptyInputError("span of an empty collection")
    return rows, fld, amb


def span(objects) -> Flat:
    """Smallest flat containing all given points and flats."""
    rows, fld, amb = _gather_rows(objects)
    return Flat.from_generators(fld, amb, rows)


def intersect(f1: Flat, f2: Flat) -> Flat | None:
    """Intersection flat, or None when the cones meet only at the origin.

    Computed through annihilators: the intersection cone is the kernel of
    the stacked kernels of the two bases (valid over any field because the
    standard bilinear form is nondegenerate).
    """
    if f1.field != f2.field or f1.ambient_dim != f2.ambient_dim:
        raise ValueError("flats must share one ambient space")
    ncols = f1.ambient_dim + 1
    ann1 = linalg.kernel(f1.basis, ncols, f1.field)
    ann2 = linalg.kernel(f2.basis, ncols, f1.field)
    meet = linalg.kernel(ann1 + ann2, ncols, f1.field)
    if not meet:
        return None
    return Flat(f1.field, f1.ambient_dim, tuple(tuple(r) for r in meet))


def is_skew(cfg: PlaneConfiguration) -> bool:
    """True when the configuration's planes are pairwise disjoint."""
    for a, b in itertools.combinations(cfg.planes, 2):
        if intersect(a, b) is not None:
            return False
    return True


def is_split(cfg: PlaneConfiguration) -> bool:
    """True when the planes give a projectivized direct-sum decomposition of
    their span, i.e. dim span = dim + length - 1.  Then the cones over the
    planes are independent, which already makes the planes skew."""
    return span(list(cfg.planes)).dim == cfg.dim + cfg.length - 1


def merge_intersecting(cfg: PlaneConfiguration) -> PlaneConfiguration:
    """Replace intersecting pairs by their span until the result is skew.

    Never raises the total dimension and never raises the length.
    """
    planes = list(cfg.planes)
    changed = True
    while changed:
        changed = False
        for i in range(len(planes)):
            for j in range(i + 1, len(planes)):
                if intersect(planes[i], planes[j]) is not None:
                    merged = span([planes[i], planes[j]])
                    del planes[j]
                    planes[i] = merged
                    changed = True
                    break
            if changed:
                break
    out = PlaneConfiguration(tuple(planes))
    assert out.dim <= cfg.dim and out.length <= cfg.length
    return out


def _prime_coeff_tuples(p: int, k: int):
    """Canonical representatives of P^(k-1)(GF(p)) in lexicographic order."""
    for lead in range(k):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=k - lead - 1):
            yield prefix + tail


def _integer_coeff_tuples(k: int, bound: int):
    rng = range(-bound, bound + 1)
    for tup in itertools.product(rng, repeat=k):
        if any(tup) and max(abs(t) for t in tup) == bound:
            yield tup


def extend_to_hyperplane(p: Flat, gamma: PointSet) -> Flat:
    """A hyperplane H containing p with gamma . H == gamma . p.

    Candidate functionals are scanned in a deterministic lexicographic order
    over the kernel coefficients, so runs are reproducible.  Over a small
    prime field every hyperplane through p may meet gamma off p, in which
    case FieldTooSmallError is raised.
    """
    n = p.ambient_dim
    if p.dim >= n:
        raise ValueError("flat is already the whole space")
    if gamma.field != p.field or gamma.ambient_dim != n:
        raise ValueError("point set must share the flat's ambient space")
    fld = p.field
    ann = linalg.kernel(p.basis, n + 1, fld)
    targets = [pt for pt in gamma if not p.contains(pt)]
    if fld.kind == PRIME:
        candidates = _prime_coeff_tuples(fld.p, len(ann))
    else:
        # Rationals: widen an integer coefficient box; a product of |targets|
        # linear forms cannot vanish on the whole box once it is large enough.
        candidates = itertools.chain.from_iterable(
            _integer_coeff_tuples(len(ann), bound) for bound in itertools.count(1)
        )
    for coeffs in candidates:
        f = linalg.combine(coeffs, ann, fld)
        if all(linalg.dot(f, pt.coords, fld) != 0 for pt in targets):
            return Flat.from_generators(fld, n, linalg.kernel([f], n + 1, fld))
    raise FieldTooSmallError(
        f"every hyperplane through the flat meets the point set over {fld}"
    )


def apply_matrix(gamma: PointSet, matrix) -> PointSet:
    """Transform every point by an invertible (n+1)x(n+1) matrix.

    Provided for invariance checks; new coords are matrix . old coords.
    """
    fld = gamma.field
    n = gamma.ambient_dim
    rows = [[fld.coerce(x) for x in row] for row in matrix]
    if len(rows) != n + 1 or any(len(r) != n + 1 for r in rows):
        raise ValueError("matrix shape must be (n+1) x (n+1)")
    if linalg.rank(rows, fld) != n + 1:
        raise ValueError("matrix is singular")
    new_pts = []
    for pt in gamma:
        coords = [linalg.dot(row, pt.coords, fld) for row in rows]
        new_pts.append(ProjPoint(fld, coords))
    return PointSet(fld, n, tuple(new_pts))


def enumerate_points(field: FieldSpec, n: int):
    """All points of P^n(GF(p)) as canonical representatives, in lex order."""
    if field.kind != PRIME:
        raise InvalidFieldError("can only enumerate projective space over GF(p)")
    return [ProjPoint(field, coords) for coords in _prime_coeff_tuples(field.p, n + 1)]
