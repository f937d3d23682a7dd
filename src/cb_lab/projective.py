"""Projective points, flats, spans, intersections and plane configurations.

Points are stored with homogeneous coordinates normalized so the first
nonzero coordinate is 1; flats store the reduced-echelon basis of their
affine cone.  Both forms are unique per object, so equality and hashing
are structural.

Each point also carries ints, computed once when it is built: over Q its
primitive integer vector (linalg.primitive), over GF(p) its residues.
Duplicates are found on it and cb, cover, matroid and span read it; coords
and bases stay the public Fraction form.  Over Q a flat tests membership on
integers, reducing pt.ints against its basis times the lcm of its
denominators (Flat._int_basis), and span reduces those integer rows.

All types are immutable and all operations are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import linalg
from .errors import (
    DuplicatePointError,
    EmptyInputError,
    FieldTooSmallError,
    InvalidFieldError,
)
from .fields import PRIME, FieldSpec


def _list_row(row, what: str) -> list:
    """row, when it is a JSON list; a string or object row would otherwise be
    read character by character or key by key."""
    if not isinstance(row, list):
        raise ValueError(f"malformed {what} JSON: a row must be a list, got {row!r}")
    return row


def _check_ambient_dim(ambient_dim, what: str) -> None:
    """Reject a JSON ambient_dim that is not an int >= 0 (a bool included)."""
    if type(ambient_dim) is not int or ambient_dim < 0:
        raise ValueError(f"malformed {what} JSON: ambient_dim must be an int >= 0, "
                         f"got {ambient_dim!r}")


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^n: nonzero coordinate vector, first nonzero entry scaled to 1.

    ints is the point's integer form: over Q the primitive integer vector
    (content 1, first nonzero entry > 0), over GF(p) the residues.  It is
    unique per point, like coords, and takes no part in equality."""

    field: FieldSpec
    coords: tuple
    ints: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fld = self.field
        coords = tuple(self.coords)
        # Plain ints, the generators' usual input, need no coerce on either field.
        plain = all(type(c) is int for c in coords)
        if fld.kind == PRIME:
            p = fld.p
            coords = tuple([c % p for c in coords] if plain else [fld.coerce(c) for c in coords])
        elif not plain:
            coords = [fld.coerce(c) for c in coords]
        if not coords:
            raise EmptyInputError("a point needs at least one coordinate")
        for j, lead in enumerate(coords):
            if lead:
                break
        else:
            raise ValueError("the zero vector is not a projective point")
        if fld.kind == PRIME:
            if lead != 1:
                inv = pow(lead, p - 2, p)
                coords = tuple([inv * c % p for c in coords])
            ints = coords
        else:
            ints = linalg.primitive(coords)
            lead = ints[j]
            coords = tuple([Fraction(c, lead) for c in ints])
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "ints", ints)

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
            if pt.ints in seen:
                raise DuplicatePointError(f"repeated point {pt}")
            seen.add(pt.ints)
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
            pts = tuple(ProjPoint(fld, _list_row(row, "point set")) for row in obj["points"])
            ambient_dim = obj["ambient_dim"]
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed point set JSON: {type(exc).__name__}: {exc}") from exc
        _check_ambient_dim(ambient_dim, "point set")
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

    @cached_property
    def _int_basis(self):
        """Over Q the basis times the lcm D of its denominators (every pivot
        equals D); over GF(p) the basis itself."""
        if self.field.kind == PRIME:
            return self.basis
        d = lcm(*(x.denominator for row in self.basis for x in row))
        return tuple(tuple([x.numerator * (d // x.denominator) for x in row])
                     for row in self.basis)

    def contains(self, pt: ProjPoint) -> bool:
        return linalg.in_row_space(pt.ints, self._int_basis, self.pivot_cols, self.field)

    def contains_flat(self, other: Flat) -> bool:
        piv = self.pivot_cols
        return all(
            linalg.in_row_space(row, self._int_basis, piv, self.field)
            for row in other._int_basis
        )

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "dim": self.dim,
            "basis": [[self.field.encode(x) for x in row] for row in self.basis],
        }

    @classmethod
    def from_json(cls, field: FieldSpec, obj: dict) -> Flat:
        try:
            rows = [[field.coerce(x) for x in _list_row(row, "flat")] for row in obj["basis"]]
            ambient_dim = obj["ambient_dim"]
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed flat JSON: {type(exc).__name__}: {exc}") from exc
        _check_ambient_dim(ambient_dim, "flat")
        return cls.from_generators(field, ambient_dim, rows)


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
        try:
            fld = FieldSpec.from_json(obj["field"])
            planes = obj["planes"]
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"malformed plane configuration JSON: {type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(planes, list):
            raise ValueError(f"malformed plane configuration JSON: planes must be a list, "
                             f"got {planes!r}")
        return cls(tuple(Flat.from_json(fld, pj) for pj in planes))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def span(objects) -> Flat:
    """Smallest flat containing all given points and flats, spanned by their
    integer forms (ProjPoint.ints, Flat._int_basis)."""
    rows = []
    fld = amb = None
    for obj in objects:
        if isinstance(obj, ProjPoint):
            new = (obj.ints,)
        elif isinstance(obj, Flat):
            new = obj._int_basis
        else:
            raise TypeError(f"cannot span {type(obj).__name__}")
        if fld is None:
            fld, amb = obj.field, obj.ambient_dim
        elif obj.field != fld or obj.ambient_dim != amb:
            raise ValueError("span inputs must share one ambient space")
        rows.extend(new)
    if fld is None:
        raise EmptyInputError("span of an empty collection")
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
                merged = span([planes[i], planes[j]])
                if merged.dim < planes[i].dim + planes[j].dim + 1:
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
