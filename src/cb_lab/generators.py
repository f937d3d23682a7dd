"""Seeded, deterministic generators for the example families.

"General position" over a finite field is probabilistic, so each generator
resamples until a checkable genericity certificate holds (distinct points,
exact intersection counts, skew/split configurations) and raises
ResampleBudgetExceededError when the budget runs out.  Identical GenSpec
inputs always produce identical output bytes.

Families:
  rnc               m points on the rational normal curve t -> [1:t:...:t^k]
  skew_lines        d pairwise-skew (split) lines in P^(2d-1) with sampled points
  two_plane_conics  points on smooth conics in a split pair of 2-planes in P^5
  plane_curve_ci    the full transverse intersection of two plane curves
  elliptic_quartic  points on a quadric-pair intersection curve in P^3
  on_configuration  uniform sampler on the planes of a given configuration
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .errors import (
    DegenerateConicError,
    FieldTooSmallError,
    InvalidFieldError,
    ResampleBudgetExceededError,
)
from .fields import PRIME, FieldSpec
from .forms import evaluation_row, monomial_basis
from .projective import (
    Flat,
    PlaneConfiguration,
    PointSet,
    ProjPoint,
    _prime_coeff_tuples,
    enumerate_points,
    intersect,
    is_split,
    span,
)

RESAMPLE_BUDGET = 60
INNER_BUDGET = 400

# Each family: the params its generator requires, and a runner from
# (params dict, GenSpec) to (PointSet, PlaneConfiguration | None).
FAMILIES = {
    "rnc": (("k", "m"), lambda p, s: (gen_rnc(p["k"], p["m"], s.field, s.seed), None)),
    "skew_lines": (
        ("d", "counts"), lambda p, s: gen_skew_lines(p["d"], p["counts"], s.field, s.seed)
    ),
    "two_plane_conics": (
        ("points_per_conic",),
        lambda p, s: gen_two_plane_conics(p["points_per_conic"], s.field, s.seed),
    ),
    "plane_curve_ci": (
        ("deg_d", "deg_e"),
        lambda p, s: (gen_plane_curve_ci(p["deg_d"], p["deg_e"], s.field, s.seed), None),
    ),
    "elliptic_quartic": (
        ("m",), lambda p, s: (gen_elliptic_quartic(p["m"], s.field, s.seed), None)
    ),
    "on_configuration": (("counts",), lambda p, s: _run_on_configuration(p["counts"], s)),
}
# Params whose value is a list of ints; every other required param is an int.
LIST_PARAMS = ("counts",)

# Degree pairs the plane-curve intersection generator can certify: equal
# degrees go through a pencil with d*e-1 base points (the last base point of
# a rational pencil is rational), unequal ones sample points on a line or a
# conic and solve for the second curve.
SUPPORTED_CI_DEGREES = ((2, 2), (3, 3), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4))


@dataclass(frozen=True)
class GenSpec:
    """A reproducible generator request: family, integer params, field, seed."""

    family: str
    params: tuple  # sorted (name, value) pairs; values are ints or int tuples
    field: FieldSpec
    seed: int
    config: PlaneConfiguration | None = None  # only for on_configuration

    @classmethod
    def make(cls, family, params: dict, field, seed, config=None) -> GenSpec:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        required = FAMILIES[family][0]
        missing = [key for key in required if key not in params]
        if missing:
            raise ValueError(f"family {family!r} needs params {', '.join(missing)}")
        unknown = sorted(key for key in params if key not in required)
        if unknown:
            raise ValueError(f"family {family!r} takes no params {', '.join(unknown)}")
        for key in required:
            if isinstance(params[key], (list, tuple)) != (key in LIST_PARAMS):
                shape = "a list of ints" if key in LIST_PARAMS else "an int"
                raise ValueError(f"param {key!r} of family {family!r} must be {shape}")
        norm = []
        for key in sorted(params):
            val = params[key]
            norm.append((key, tuple(val) if isinstance(val, (list, tuple)) else int(val)))
        return cls(family, tuple(norm), field, int(seed), config)

    def param_dict(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.params}

    def to_json(self) -> dict:
        obj = {
            "family": self.family,
            "params": self.param_dict(),
            "field": self.field.to_json(),
            "seed": self.seed,
        }
        if self.config is not None:
            obj["config"] = self.config.to_json()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> GenSpec:
        try:
            cfg = PlaneConfiguration.from_json(obj["config"]) if "config" in obj else None
            return cls.make(
                obj["family"], obj["params"], FieldSpec.from_json(obj["field"]),
                obj["seed"], cfg,
            )
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed GenSpec JSON: {type(exc).__name__}: {exc}") from exc


def generate(spec: GenSpec):
    """Run the family generator; returns (PointSet, PlaneConfiguration | None)."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    return FAMILIES[spec.family][1](spec.param_dict(), spec)


def _run_on_configuration(counts, spec: GenSpec):
    if spec.config is None:
        raise ValueError("on_configuration needs an embedded config")
    return gen_on_configuration(spec.config, counts, spec.field, spec.seed), spec.config


# ---------------------------------------------------------------------------
# Shared sampling helpers
# ---------------------------------------------------------------------------


def _rand_element(field: FieldSpec, rng: random.Random):
    if field.kind == PRIME:
        return rng.randrange(field.p)
    return field.coerce(rng.randint(-99, 99))


def _rand_point(field: FieldSpec, n: int, rng: random.Random) -> ProjPoint:
    while True:
        coords = tuple(_rand_element(field, rng) for _ in range(n + 1))
        if any(c != 0 for c in coords):
            return ProjPoint(field, coords)


def _distinct_params(field: FieldSpec, count: int, rng: random.Random):
    """count distinct scalars, seeded (field elements or small integers)."""
    if field.kind == PRIME:
        if count > field.p:
            raise FieldTooSmallError(f"need {count} distinct elements of {field}")
        return rng.sample(range(field.p), count)
    lo, hi = -5 * count - 5, 5 * count + 5
    return [field.coerce(t) for t in rng.sample(range(lo, hi + 1), count)]


# ---------------------------------------------------------------------------
# Rational normal curves
# ---------------------------------------------------------------------------


def gen_rnc(k: int, m: int, field: FieldSpec, seed: int) -> PointSet:
    """m distinct points on the degree-k rational normal curve in P^k.

    Certificate: distinct parameter values (hence distinct points).  Over
    GF(p) the curve has p+1 rational points; the point at infinity is used
    only when m = p+1.
    """
    if k < 1 or m < 1:
        raise ValueError("need k >= 1 and m >= 1")
    rng = random.Random(seed)
    infinity = False
    if field.kind == PRIME:
        if m > field.p + 1:
            raise FieldTooSmallError(f"the curve has only {field.p + 1} points over {field}")
        if m == field.p + 1:
            ts = list(range(field.p))
            infinity = True
        else:
            ts = rng.sample(range(field.p), m)
    else:
        ts = _distinct_params(field, m, rng)
    pts = [ProjPoint(field, [t**i for i in range(k + 1)]) for t in ts]
    if infinity:
        pts.append(ProjPoint(field, [0] * k + [1]))
    return PointSet(field, k, tuple(pts))


# ---------------------------------------------------------------------------
# Skew lines
# ---------------------------------------------------------------------------


def _line_point(basis, t, field: FieldSpec) -> ProjPoint:
    """b0 + t*b1 on the line with basis rows (b0, b1); over GF(p), t = p is b1,
    so t = 0..p runs through P^1(GF(p)) in lex order without listing it."""
    coeffs = (0, 1) if field.kind == PRIME and t == field.p else (1, t)
    return ProjPoint(field, linalg.combine(coeffs, basis, field))


def _line_points(line: Flat, count: int, rng: random.Random):
    """count distinct points on a line, at distinct parameters of _line_point."""
    field = line.field
    if field.kind == PRIME:
        total = field.p + 1
        if count > total:
            raise FieldTooSmallError(f"a line has only {total} points over {field}")
        ts = rng.sample(range(total), count)
    else:
        ts = _distinct_params(field, count, rng)
    return [_line_point(line.basis, t, field) for t in ts]


def gen_skew_lines(d: int, counts, field: FieldSpec, seed: int):
    """d pairwise-skew lines in P^(2d-1) and counts[i] sampled points on line i.

    Certificate: every line has dimension one and the configuration is split
    (for d = 1 a single line is trivially split).  Skewness makes the sampled
    points automatically distinct across lines.
    """
    counts = tuple(int(c) for c in counts)
    if d < 1 or len(counts) != d or any(c < 1 for c in counts):
        raise ValueError("need d >= 1 and one positive count per line")
    n = 2 * d - 1
    rng = random.Random(seed)
    for _ in range(RESAMPLE_BUDGET):
        lines = []
        for _i in range(d):
            a, b = _rand_point(field, n, rng), _rand_point(field, n, rng)
            if a.coords == b.coords:
                break
            lines.append(span([a, b]))
        if len(lines) < d or any(ln.dim != 1 for ln in lines):
            continue
        if len(set(lines)) != d:
            continue
        cfg = PlaneConfiguration(tuple(lines))
        if d > 1 and not is_split(cfg):
            continue
        pts = []
        for ln, cnt in zip(lines, counts):
            pts.extend(_line_points(ln, cnt, rng))
        return PointSet(field, n, tuple(pts)), cfg
    raise ResampleBudgetExceededError("could not sample a split line configuration")


# ---------------------------------------------------------------------------
# Conics
# ---------------------------------------------------------------------------


def _conic_through_origin_point(field: FieldSpec, rng: random.Random):
    """A smooth plane conic through (1:0:0), as a function from an index to a point.

    The conic is x^T G x = 0 with G = [[0,b,c],[b,dd,e],[c,e,f]]; smoothness
    is det(G) != 0 (needs odd characteristic).  Index 0 is the base point;
    index i >= 1 is the second point on the line {base + t v} for the
    (i-1)-th direction v = (0, v1, v2), the tangent direction b*v1 + c*v2 = 0
    skipped.  Over GF(p) the directions are (1, s) for s < p, then (0, 1),
    so indices 0..p give the p+1 points; over Q they are (1, s) for the
    slopes s = 0, 1, -1, 2, -2, ... and every index gives a new point.
    """
    if field.kind == PRIME and field.p == 2:
        raise FieldTooSmallError("smooth-conic sampling needs odd characteristic")
    b, c = _rand_element(field, rng), _rand_element(field, rng)
    dd, e, f = (_rand_element(field, rng) for _ in range(3))
    if field.coerce(2 * b * c * e - b * b * f - c * c * dd) == 0:
        raise DegenerateConicError("singular Gram matrix")
    base = ProjPoint(field, (1, 0, 0))
    if field.kind == PRIME:
        p = field.p

        def direction(j):
            return (1, j) if j < p else (0, 1)

        tangent = -b * pow(c, p - 2, p) % p if c else p
    else:

        def direction(j):
            s = (j + 1) // 2
            return (1, s if j % 2 else -s)

        slope = -b / c if c else None
        if slope is None or slope.denominator != 1:
            tangent = None  # the tangent direction is not in the list
        else:
            tangent = 2 * int(slope) - 1 if slope > 0 else -2 * int(slope)

    def point(i):
        if i == 0:
            return base
        j = i - 1 if tangent is None or i - 1 < tangent else i
        v1, v2 = direction(j)
        # Roots in t of t * (2 b.G.v + t v.G.v), with v.G.v and b.G.v at v0 = 0.
        fv = field.coerce(dd * v1 * v1 + 2 * e * v1 * v2 + f * v2 * v2)
        if fv == 0:
            return ProjPoint(field, (0, v1, v2))  # the direction itself lies on the conic
        t = field.coerce(-2 * (b * v1 + c * v2) * field.inv(fv))
        return ProjPoint(field, (1, t * v1, t * v2))

    return point


def gen_two_plane_conics(points_per_conic: int, field: FieldSpec, seed: int):
    """Sampled points on smooth conics inside a split pair of 2-planes in P^5.

    Certificate: both planes have dimension two and are disjoint (skew, hence
    split for two planes); each conic has a nonsingular Gram matrix; points
    are distinct.  With 8 points per conic the output has 16 points.
    """
    if points_per_conic < 1:
        raise ValueError("need at least one point per conic")
    if field.kind == PRIME and points_per_conic > field.p + 1:
        raise FieldTooSmallError(f"a conic has only {field.p + 1} points over {field}")
    n = 5
    rng = random.Random(seed)
    for _ in range(RESAMPLE_BUDGET):
        planes = []
        for _i in range(2):
            tri = [_rand_point(field, n, rng) for _ in range(3)]
            fl = span(tri)
            if fl.dim == 2:
                planes.append(fl)
        if len(planes) != 2 or planes[0] == planes[1]:
            continue
        if intersect(planes[0], planes[1]) is not None:
            continue
        try:
            all_pts = []
            for plane in planes:
                point = _conic_through_origin_point(field, rng)
                if field.kind == PRIME:
                    indices = rng.sample(range(field.p + 1), points_per_conic)
                else:
                    indices = range(points_per_conic)
                for lp in map(point, indices):
                    all_pts.append(ProjPoint(field, linalg.combine(lp.coords, plane.basis, field)))
            cfg = PlaneConfiguration(tuple(planes))
            return PointSet(field, n, tuple(all_pts)), cfg
        except DegenerateConicError:
            continue
    raise ResampleBudgetExceededError("could not sample split planes with smooth conics")


# ---------------------------------------------------------------------------
# Plane curve complete intersections
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _plane_rows(field: FieldSpec, r: int):
    """Degree-r evaluation rows for every point of P^2(GF(p)), cached."""
    pts = enumerate_points(field, 2)
    basis = monomial_basis(2, r)
    return tuple(pts), tuple(evaluation_row(pt.coords, basis, field) for pt in pts)


def _pencil_ci(deg: int, field: FieldSpec, rng: random.Random):
    """Common zeros of two members of the pencil through deg*deg - 1 base points."""
    pts, rows = _plane_rows(field, deg)
    nbase = deg * deg - 1
    base_idx = rng.sample(range(len(pts)), nbase)
    basis = monomial_basis(2, deg)
    ker = linalg.kernel([rows[i] for i in base_idx], len(basis), field)
    if len(ker) < 2:
        return None
    f_vec, g_vec = ker[0], ker[1]
    zeros = []
    for pt, row in zip(pts, rows):
        if linalg.dot(f_vec, row, field) == 0 and linalg.dot(g_vec, row, field) == 0:
            zeros.append(pt)
    return zeros


def _curve_then_points(deg_lo: int, deg_hi: int, field: FieldSpec, rng: random.Random):
    """Points on a degree-deg_lo curve, cut out exactly by a degree-deg_hi form.

    The line, or the smooth conic of _conic_through_origin_point, is the
    image of a degree-deg_lo bijection from P^1 indexed by 0..p, so a
    degree-deg_hi form restricts to a binary form of degree need =
    deg_lo*deg_hi in the curve parameter.  A form vanishing at the need
    sampled points therefore vanishes on the whole curve or nowhere else on
    it.  Restriction to the curve is onto the binary forms of degree need,
    so some form through the sample restricts to the product of its need
    linear factors and cuts out exactly the sample, which is returned in
    index order.  A sample of every curve point leaves no point to tell such
    a form from one containing the curve, so that draw is rejected.
    """
    need = deg_lo * deg_hi
    if deg_lo == 1:
        vec = tuple(_rand_element(field, rng) for _ in range(3))
        if all(v == 0 for v in vec):
            return None
        line = linalg.kernel([vec], 3, field)

        def point(i):
            return _line_point(line, i, field)
    else:
        try:
            point = _conic_through_origin_point(field, rng)
        except DegenerateConicError:
            return None
    if field.p + 1 < need:
        return None
    chosen = rng.sample(range(field.p + 1), need)
    if field.p + 1 == need:
        return None  # every curve point is sampled: no form cuts out exactly these
    return [point(i) for i in sorted(chosen)]


def gen_plane_curve_ci(deg_d: int, deg_e: int, field: FieldSpec, seed: int) -> PointSet:
    """The deg_d * deg_e distinct intersection points of two plane curves.

    Transversality certificate: the common zero count over GF(p) equals
    deg_d * deg_e exactly; otherwise the draw is resampled.  Such a set is
    CB(deg_d + deg_e - 3) classically.
    """
    lo, hi = sorted((int(deg_d), int(deg_e)))
    if lo + hi - 3 < 0:
        raise ValueError(f"degrees ({deg_d},{deg_e}) give a negative CB degree")
    if (lo, hi) not in SUPPORTED_CI_DEGREES:
        raise ValueError(f"unsupported degree pair ({deg_d},{deg_e})")
    if field.kind != PRIME:
        raise InvalidFieldError("plane-curve intersections need a prime field")
    need = lo * hi
    npts = field.p * field.p + field.p + 1
    if lo == hi and npts < need - 1:
        raise FieldTooSmallError(
            f"a degree-{lo} pencil needs {need - 1} base points; P^2 has {npts} over {field}"
        )
    rng = random.Random(seed)
    for _ in range(RESAMPLE_BUDGET):
        zeros = _pencil_ci(lo, field, rng) if lo == hi else _curve_then_points(lo, hi, field, rng)
        if zeros is not None and len(zeros) == need:
            return PointSet(field, 2, tuple(zeros))
    raise ResampleBudgetExceededError(
        f"no transverse ({deg_d},{deg_e}) intersection within budget"
    )


# ---------------------------------------------------------------------------
# Elliptic quartic in P^3
# ---------------------------------------------------------------------------


def _sqrt_table(p: int) -> dict:
    table = {}
    for x in range((p + 1) // 2 + 1):
        table.setdefault(x * x % p, x)
    return table


def _split_quadric(q, x0, x1, x2):
    """(alpha, beta, gamma) with q(x0, x1, x2, w) = alpha*w^2 + beta*w + gamma.

    q holds the coefficients of monomial_basis(3, 2) in its graded-lex order
    x0^2, x0x1, x0x2, x0x3, x1^2, x1x2, x1x3, x2^2, x2x3, x3^2; the values
    are unreduced ints.
    """
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = q
    beta = c3 * x0 + c6 * x1 + c8 * x2
    gamma = x0 * (c0 * x0 + c1 * x1 + c2 * x2) + x1 * (c4 * x1 + c5 * x2) + c7 * x2 * x2
    return c9, beta, gamma


def _quadric_points(q_vec, field: FieldSpec, sqrts: dict):
    """Rational points of one quadric in P^3, by solving for the last coordinate.

    Each prefix (x0:x1:x2) of P^2(GF(p)) gives the quadratic
    alpha*w^2 + beta*w + gamma in w; needs odd p.
    """
    p = field.p
    inv2 = (p + 1) // 2
    alpha = q_vec[-1]
    pts = []
    for pre in _prime_coeff_tuples(p, 3):
        _, beta, gamma = _split_quadric(q_vec, *pre)
        beta, gamma = beta % p, gamma % p
        if alpha == 0:
            if beta == 0:
                roots = range(p) if gamma == 0 else ()
            else:
                roots = ((-gamma * pow(beta, p - 2, p)) % p,)
        else:
            disc = (beta * beta - 4 * alpha * gamma) % p
            if disc == 0:
                roots = ((-beta * inv2 * pow(alpha, p - 2, p)) % p,)
            elif disc in sqrts:
                rt = sqrts[disc]
                denom = inv2 * pow(alpha, p - 2, p)
                roots = (((-beta + rt) * denom) % p, ((-beta - rt) * denom) % p)
            else:
                roots = ()
        for w in roots:
            pts.append(pre + (w,))
    if alpha == 0:
        pts.append((0, 0, 0, 1))
    return pts


def _line_key(a, b, p: int) -> tuple:
    """The line through two distinct points of P^3(GF(p)): its Pluecker
    coordinates a_i*b_j - a_j*b_i (i < j), first nonzero one scaled to 1."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    minors = (a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0,
              a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2)
    for m in minors:
        if m % p:
            inv = pow(m, p - 2, p)
            return tuple(x * inv % p for x in minors)
    raise ValueError("a line needs two distinct points")


def _has_three_collinear(pts, field: FieldSpec) -> bool:
    counts = {}
    coords = [pt.coords for pt in pts]
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            key = _line_key(coords[i], coords[j], field.p)
            counts[key] = counts.get(key, 0) + 1
            if counts[key] >= 3:  # C(3,2) pairs on one line
                return True
    return False


def gen_elliptic_quartic(m: int, field: FieldSpec, seed: int) -> PointSet:
    """m points on the intersection curve of two random quadrics in P^3.

    Certificate: at least m distinct rational points and no three collinear
    (a line in the curve would put p+1 collinear points in it).  The CB(2)
    verdict of the sampled points is the caller's final genericity signal.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if field.kind != PRIME or field.p < 3:
        raise InvalidFieldError("elliptic-quartic sampling needs an odd prime field")
    rng = random.Random(seed)
    sqrts = _sqrt_table(field.p)
    nmono = len(monomial_basis(3, 2))
    for _ in range(RESAMPLE_BUDGET):
        q1 = tuple(rng.randrange(field.p) for _ in range(nmono))
        q2 = tuple(rng.randrange(field.p) for _ in range(nmono))
        if all(c == 0 for c in q1) or all(c == 0 for c in q2):
            continue
        curve = []
        for coords in _quadric_points(q1, field, sqrts):
            alpha, beta, gamma = _split_quadric(q2, *coords[:3])
            w = coords[3]
            if (w * (alpha * w + beta) + gamma) % field.p == 0:
                curve.append(ProjPoint(field, coords))
        if len(curve) < m:
            continue
        if _has_three_collinear(curve, field):
            continue
        chosen = rng.sample(curve, m)
        return PointSet(field, 3, tuple(chosen))
    raise ResampleBudgetExceededError("no usable quadric-pair curve within budget")


# ---------------------------------------------------------------------------
# Sampling on a given configuration
# ---------------------------------------------------------------------------


def gen_on_configuration(
    cfg: PlaneConfiguration, counts, field: FieldSpec, seed: int
) -> PointSet:
    """counts[i] distinct points on plane i of cfg (distinct globally)."""
    counts = tuple(int(c) for c in counts)
    if len(counts) != cfg.length or any(c < 1 for c in counts):
        raise ValueError("need one positive count per plane")
    if field != cfg.field:
        raise InvalidFieldError("field must match the configuration's field")
    rng = random.Random(seed)
    seen = set()
    out = []
    for plane, cnt in zip(cfg.planes, counts):
        rows = plane.basis
        k = len(rows)
        if field.kind == PRIME:
            total = (field.p ** k - 1) // (field.p - 1)
            if cnt > total:
                raise FieldTooSmallError(f"plane has only {total} points over {field}")
        placed = 0
        for _ in range(INNER_BUDGET * cnt):
            coeffs = tuple(_rand_element(field, rng) for _ in range(k))
            if all(c == 0 for c in coeffs):
                continue
            pt = ProjPoint(field, linalg.combine(coeffs, rows, field))
            if pt.coords in seen:
                continue
            seen.add(pt.coords)
            out.append(pt)
            placed += 1
            if placed == cnt:
                break
        if placed < cnt:
            raise FieldTooSmallError("could not place the requested distinct points")
    return PointSet(field, cfg.ambient_dim, tuple(out))
