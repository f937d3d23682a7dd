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

Plane-curve intersections are found by root finding over GF(p) (gfpoly), not
by scanning the plane: a draw costs O(deg^4 log p) field operations for the
degree-deg^2 resultant and its roots, against the p^2 + p + 1 points of
P^2(GF(p)), so every p < 2^31 is practical (only a draw whose two curves
share a component, or are both unions of lines through (0:0:1), visits all p
slices).  An elliptic-quartic draw lists the curve along the p + 1 lines of
one ruling of a smooth split quadric in its pencil, one binary quadratic per
line, O(p) field operations, not a solve at each of the p^2 + p + 1 prefixes
of P^3.  A pencil with no such member (all cones or plane pairs, or some
over the tiniest fields) is projected from (0:0:0:1) instead, and the zeros
of the plane quartic Res_w(q1, q2) are found slice by slice: p + 1 root
findings on a quartic.  A draw whose pencil is smooth (for p >= 5, its
discriminant det(q1 + l q2) has four distinct roots) skips the
no-three-collinear scan.  Both resultants are one Bezout determinant whose
entries are forms (_resultant).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import mul

from . import gfpoly, linalg
from .errors import (
    DegenerateConicError,
    FieldTooSmallError,
    InvalidFieldError,
    ResampleBudgetExceededError,
)
from .fields import PRIME, FieldSpec
from .forms import monomial_basis, monomial_columns
from .projective import (
    Flat,
    PlaneConfiguration,
    PointSet,
    ProjPoint,
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
        norm = []
        for key in sorted(params):
            val = params[key]
            is_list = isinstance(val, (list, tuple))
            # type(v) is int: a float or bool is rejected, not truncated
            if is_list != (key in LIST_PARAMS) or any(
                    type(v) is not int for v in (val if is_list else [val])):
                shape = "a list of ints" if key in LIST_PARAMS else "an int"
                raise ValueError(
                    f"param {key!r} of family {family!r} must be {shape}, got {val!r}")
            norm.append((key, tuple(val) if is_list else val))
        if type(seed) is not int:
            raise ValueError(f"seed must be an int, got {seed!r}")
        return cls(family, tuple(norm), field, seed, config)

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


def _distinct_params(count: int, rng: random.Random):
    """count distinct small plain ints, seeded: the curve and line parameters
    over Q (a ProjPoint built from them coerces its coordinates)."""
    lo, hi = -5 * count - 5, 5 * count + 5
    return rng.sample(range(lo, hi + 1), count)


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
        ts = _distinct_params(m, rng)
    # The powers t**i as a running product, over GF(p) reduced at each step.
    step = (lambda a, b: a * b % field.p) if field.kind == PRIME else mul
    pts = [ProjPoint(field, list(accumulate(repeat(t, k), step, initial=1))) for t in ts]
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
        ts = _distinct_params(count, rng)
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

    Certificate: both planes have dimension two and the configuration is
    split (for two planes, the same as disjoint); each conic has a
    nonsingular Gram matrix; points are distinct.  With 8 points per conic
    the output has 16 points.
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
        cfg = PlaneConfiguration(tuple(planes))
        if not is_split(cfg):
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
            return PointSet(field, n, tuple(all_pts)), cfg
        except DegenerateConicError:
            continue
    raise ResampleBudgetExceededError("could not sample split planes with smooth conics")


# ---------------------------------------------------------------------------
# Plane curve complete intersections
# ---------------------------------------------------------------------------


def _plane_point(i: int, p: int) -> tuple:
    """The i-th point of P^2(GF(p)) in enumerate_points order."""
    if i < p * p:
        return (1, i // p, i % p)
    if i < p * p + p:
        return (0, 1, i - p * p)
    return (0, 0, 1)


def _slice_table(vec, deg: int):
    """table[k][j]: the coefficient of x1^j x2^k in the degree-deg form with
    coefficient vector vec over monomial_basis(2, deg); so f(1, a, y) has
    y^k coefficient sum_j table[k][j] a^j, and f(0, 1, y) has table[k][deg-k]."""
    table = [[0] * (deg - k + 1) for k in range(deg + 1)]
    for c, (_, e1, e2) in zip(vec, monomial_basis(2, deg).monomials):
        table[e2][e1] = c
    return table


def _form_mul(s, t):
    """The product of two ternary forms given as slice tables (see _slice_table).

    A table may stop before its last row when the rows it leaves out are zero:
    a form free of x2 can be the single row of its x1-coefficients."""
    deg = len(s[0]) + len(t[0]) - 2
    out = [[0] * (deg - k + 1) for k in range(len(s) + len(t) - 1)]
    for k1, row1 in enumerate(s):
        for j1, c1 in enumerate(row1):
            if c1:
                for k2, row2 in enumerate(t):
                    for j2, c2 in enumerate(row2):
                        out[k1 + k2][j1 + j2] += c1 * c2
    return out


def _form_add(s, t, c=1):
    """s + c*t for two slice tables of one degree and one number of rows."""
    return [[x + c * y for x, y in zip(row1, row2)] for row1, row2 in zip(s, t)]


def _resultant(f, g):
    """The slice table of Res(f, g), up to sign, for two polynomials of one
    formal degree n (constant term first, n + 1 entries each) whose
    coefficients are ternary forms given as slice tables, coefficient i of
    degree D - i for a fixed D.

    It is the determinant of the n x n Bezout matrix, whose entry (i, j) is
    sum_k f[j+k+1] g[i-k] - f[i-k] g[j+k+1] (Cox, Little and O'Shea, Using
    Algebraic Geometry, 3.1), expanded by the first row: a form of degree
    n(2D - n).  Res_{n,n} = +-det Bez is an identity in the coefficients, so
    it vanishes wherever the two polynomials share a root.  While n > 1 and
    both leading coefficients are identically zero, they are dropped: the
    resultant at that formal degree is zero, and the one at n - 1 still
    vanishes at every shared root.
    """
    n = len(f) - 1
    while n > 1 and not any(map(any, f[n])) and not any(map(any, g[n])):
        n -= 1
    bez = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(min(i, n - 1 - j) + 1):
                term = _form_add(_form_mul(f[j + k + 1], g[i - k]),
                                 _form_mul(f[i - k], g[j + k + 1]), -1)
                bez[i][j] = term if k == 0 else _form_add(bez[i][j], term)
    return _det(bez)


def _det(m):
    """The determinant of a square matrix of slice tables, expanded by the
    first row."""
    if len(m) == 1:
        return m[0][0]
    out = None
    for j, entry in enumerate(m[0]):
        term = _form_mul(entry, _det([row[:j] + row[j + 1:] for row in m[1:]]))
        out = term if j == 0 else _form_add(out, term, (-1) ** j)
    return out


def _restrict(tables, a: int, p: int) -> list:
    """The restrictions y -> f(1, a, y) of the forms with the given slice tables."""
    return [[gfpoly.evaluate(row, a, p) for row in table] for table in tables]


def _sliced_zeros(tables, p: int, res=()):
    """The common zeros in P^2(GF(p)) of forms of one degree, given by their
    slice tables, in enumerate_points order.

    The lines through (0:0:1) slice the plane: slice a holds the points
    (1, a, y), then come the points (0, 1, y) and (0:0:1) itself.  The zeros
    on a slice are the roots in y of the gcd of the restrictions (every y when
    they all vanish).  Only the slices at the roots of res are visited, every
    slice when res is empty.
    """
    deg = len(tables[0]) - 1

    def common_roots(polys):
        h = []
        for f in polys:
            h = gfpoly.gcd(h, f, p)
        return gfpoly.roots(h, p) if h else range(p)

    for a in gfpoly.roots(res, p) if res else range(p):
        for y in common_roots(_restrict(tables, a, p)):
            yield (1, a, y)
    for y in common_roots([[row[deg - k] for k, row in enumerate(t)] for t in tables]):
        yield (0, 1, y)
    if all(t[deg][0] == 0 for t in tables):
        yield (0, 0, 1)


def _common_zeros(f_vec, g_vec, deg: int, p: int):
    """Coordinates of the common zeros in P^2(GF(p)) of two degree-deg forms,
    in enumerate_points order, without visiting the plane.

    Only the slices through (0:0:1) (see _sliced_zeros) at the roots of
    R(a) = Res_y(f(1,a,y), g(1,a,y)) hold common zeros.  R, of degree <=
    deg^2, is the Bezout determinant of _resultant on the y-coefficients of f
    and g, forms in (x0, x1) alone, with the leading ones dropped while both
    are zero (as for two curves through (0:0:1)).  It is zero only when f
    and g share a component other than a line through (0:0:1), or neither
    involves x2 (both are unions of lines through (0:0:1)); then every
    slice is visited.
    """
    tables = [_slice_table(f_vec, deg), _slice_table(g_vec, deg)]
    res = _resultant(*([[row] for row in t] for t in tables))[0]
    return _sliced_zeros(tables, p, gfpoly.trim(res, p))


def _pencil_ci(deg: int, field: FieldSpec, rng: random.Random):
    """Common zeros of two members of the pencil through deg*deg - 1 base points.

    Stops after deg*deg + 1 zeros, which is enough to reject the draw.
    """
    p = field.p
    need = deg * deg
    base_idx = rng.sample(range(p * p + p + 1), need - 1)
    basis = monomial_basis(2, deg)
    rows = linalg.transpose(monomial_columns([_plane_point(i, p) for i in base_idx], basis, p))
    ker = linalg.kernel(rows, len(basis), field)
    if len(ker) < 2:
        return None
    zeros = islice(_common_zeros(ker[0], ker[1], deg, p), need + 1)
    return [ProjPoint(field, coords) for coords in zeros]


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


def _w_roots(q, pre, p: int, sqrts: dict):
    """The roots w of q(pre, w) = alpha*w^2 + beta*w + gamma, in quadratic-formula
    order (every w when q vanishes on the line through pre and (0:0:0:1)); odd p."""
    alpha, beta, gamma = _split_quadric(q, *pre)
    beta, gamma = beta % p, gamma % p
    if alpha == 0:
        if beta == 0:
            return range(p) if gamma == 0 else ()
        return ((-gamma * pow(beta, p - 2, p)) % p,)
    inv2 = (p + 1) // 2
    disc = (beta * beta - 4 * alpha * gamma) % p
    if disc == 0:
        return ((-beta * inv2 * pow(alpha, p - 2, p)) % p,)
    if disc not in sqrts:
        return ()
    rt = sqrts[disc]
    denom = inv2 * pow(alpha, p - 2, p)
    return (((-beta + rt) * denom) % p, ((-beta - rt) * denom) % p)


def _quadric_curve(q1, q2, p: int, sqrts: dict) -> list:
    """The rational points of q1 = q2 = 0 in P^3 (odd p), in the order of a
    scan of every prefix: by the enumerate_points index of (x0:x1:x2), then
    by the place of w in _w_roots(q1, prefix), with (0:0:0:1) last.

    When the pencil has a smooth split member (_split_member), the points are
    listed along one ruling of it (_ruling_points) and sorted into that
    order: p + 1 binary quadratics.  Otherwise, as for pencils whose members
    are all cones or plane pairs, and for some over the tiniest fields, the
    plane quartic Res_w(q1, q2) is sliced (_sliced_curve).
    """
    split = _split_member(q1, q2, p, sqrts)
    if split is None:
        return _sliced_curve(q1, q2, p, sqrts)
    pts = _ruling_points(*split, p, sqrts)
    pts.sort(key=lambda x: _scan_place(q1, x, p))
    return pts


def _scan_place(q1, x, p: int) -> int:
    """The place of the point x (leading 1) in the prefix scan of
    _quadric_curve.  Two points share a prefix only as two roots of
    _w_roots(q1, prefix), whose first is -beta plus the least square root of
    the discriminant (2 alpha w + beta)^2 over 2 alpha, or as every w in
    order when q1 vanishes on the line through the prefix and (0:0:0:1)."""
    x0, x1, x2, w = x
    if x0:
        index = x1 * p + x2
    elif x1:
        index = p * p + x2
    elif x2:
        index = p * p + p
    else:
        return (p * p + p + 1) * p
    alpha = q1[9]
    beta = (q1[3] * x0 + q1[6] * x1 + q1[8] * x2) % p
    if alpha == 0 and beta == 0:
        return index * p + w
    return index * p + (2 * ((2 * alpha * w + beta) % p) > p)


def _polar(q, x, y, p: int) -> int:
    """q(x + y) - q(x) - q(y): the symmetric bilinear form of q, twice over."""
    return sum(a * b for a, b in zip(_gradient(q, x, p), y)) % p


def _gram_det(q, p: int) -> int:
    """det of the matrix of _polar for q, mod p: 16 times its Gram
    determinant, so a nonzero square exactly when that is."""
    a, b, c, d = (_gradient(q, unit, p) for unit in ((1, 0, 0, 0), (0, 1, 0, 0),
                                                      (0, 0, 1, 0), (0, 0, 0, 1)))
    m, n = _minors(a, b), _minors(c, d)
    # Laplace expansion along the first two rows
    return (m[0] * n[5] - m[1] * n[4] + m[2] * n[3] + m[3] * n[2] - m[4] * n[1]
            + m[5] * n[0]) % p


def _split_member(q1, q2, p: int, sqrts: dict):
    """(q, other): the first smooth split member q of the pencil in the order
    q1, q2, q1 + l q2 (l = 1, ..., p - 1), and a member other than q, so
    that q = other = 0 is the curve q1 = q2 = 0; None when there is none.

    A smooth quadric in P^3(GF(p)) is split, P^1 x P^1 with two rulings of
    p + 1 rational lines, exactly when its Gram determinant is a nonzero
    square (Hirschfeld, Finite Projective Spaces of Three Dimensions, 1985).
    """
    members = chain(((q1, q2), (q2, q1)),
                    ((tuple((a + lam * b) % p for a, b in zip(q1, q2)), q2) for lam in range(1, p)))
    for q, other in members:
        det = _gram_det(q, p)
        if det and det in sqrts:
            return q, other
    return None


def _p1(p: int):
    """The points (1, t), t = 0..p-1, then (0, 1) of P^1(GF(p))."""
    for t in range(p):
        yield 1, t
    yield 0, 1


def _binary_roots(a: int, b: int, c: int, p: int, sqrts: dict):
    """The zeros (s, t) in P^1(GF(p)) of a s^2 + b s t + c t^2 (reduced
    coefficients, odd p), one representative each; every point (_p1) when the
    form is zero."""
    if a == 0:
        if b == 0:
            return list(_p1(p)) if c == 0 else ((1, 0),)
        return ((1, 0), (-c, b))
    disc = (b * b - 4 * a * c) % p
    if disc not in sqrts:
        return ()
    rt = sqrts[disc]
    return ((-b + rt, 2 * a),) if rt == 0 else ((-b + rt, 2 * a), (-b - rt, 2 * a))


def _point_on(q, p: int, sqrts: dict) -> tuple:
    """A rational point of the quadric q: (0:0:0:1) when q holds it, else one
    on a line through it in the plane x2 = 0, whose conic has a rational
    point (Chevalley-Warning)."""
    if q[9] % p == 0:
        return (0, 0, 0, 1)
    for pre in _p1(p):
        ws = _w_roots(q, pre + (0,), p, sqrts)
        if ws:
            return pre + (0, ws[0])
    raise AssertionError("a ternary quadratic form over GF(p) has a zero")


def _ruling_points(q, other, p: int, sqrts: dict) -> list:
    """The rational points of q = other = 0, q smooth and split (odd p), each
    once, normalised to a leading 1, line by line along one ruling of q.

    From a point e of q: the tangent plane at e meets q in two lines through
    e, and the line where it meets x_i = 0 (e_i != 0) meets them in h1 and
    h2, the roots of one binary quadratic.  The line {x : h1.x = h2.x = 0}
    (dots taken by _polar) holds e and meets x_i = 0 in y, a cross product;
    Vieta on the line through e and y gives its second point k on q.  Then
    q(a e + d k + b h1 + c h2) = lam a d + mu b c with lam = e.k and
    mu = h1.h2 nonzero, so the lines through s e + t h2 and lam s h1 - mu t k,
    over (s:t) in P^1, are the p + 1 lines of one ruling; they cover q, each
    point once.  On the line at (s:t), other is a binary quadratic whose
    coefficients are binary quadratics in (s, t), computed once.
    """
    e = _point_on(q, p, sqrts)
    i = next(j for j, x in enumerate(e) if x)
    rest = [j for j in range(4) if j != i]
    v = _gradient(q, e, p)
    j = next(j for j in rest if v[j])
    f, g = ([v[j] if n == m else -v[m] if n == j else 0 for n in range(4)]
            for m in rest if m != j)
    (s1, t1), (s2, t2) = _binary_roots(_quadric_value(q, f, p), _polar(q, f, g, p),
                                       _quadric_value(q, g, p), p, sqrts)
    h1, h2 = ([(s * a + t * b) % p for a, b in zip(f, g)] for s, t in ((s1, t1), (s2, t2)))
    (u0, u1, u2), (v0, v1, v2) = ([u[n] for n in rest] for u in
                                  (_gradient(q, h1, p), _gradient(q, h2, p)))
    y = [u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0]
    y.insert(i, 0)
    qy, ey = _quadric_value(q, y, p), _polar(q, e, y, p)
    k = [(qy * a - ey * b) % p for a, b in zip(e, y)]
    lam, mu = _polar(q, e, k, p), _polar(q, h1, h2, p)
    lh1, mk = [lam * x % p for x in h1], [-mu * x % p for x in k]

    def restricted(x, y):
        return _quadric_value(other, x, p), _polar(other, x, y, p), _quadric_value(other, y, p)

    # other(sig (s e + t h2) + tau (s lh1 + t mk)) = A sig^2 + B sig tau + C tau^2
    (a0, a1, a2), (c0, c1, c2) = restricted(e, h2), restricted(lh1, mk)
    b0, b1, b2 = (_polar(other, e, lh1, p), _polar(other, e, mk, p) + _polar(other, h2, lh1, p),
                  _polar(other, h2, mk, p))
    pts = []
    for s, t in _p1(p):
        ss, st, tt = s * s, s * t, t * t
        roots = _binary_roots((a0 * ss + a1 * st + a2 * tt) % p, (b0 * ss + b1 * st + b2 * tt) % p,
                              (c0 * ss + c1 * st + c2 * tt) % p, p, sqrts)
        if roots:
            u = [s * a + t * b for a, b in zip(e, h2)]
            w = [s * a + t * b for a, b in zip(lh1, mk)]
            for sig, tau in roots:
                x = [sig * a + tau * b for a, b in zip(u, w)]
                inv = pow(next(c for c in x if c % p), p - 2, p)
                pts.append(tuple([c * inv % p for c in x]))
    return pts


def _sliced_curve(q1, q2, p: int, sqrts: dict) -> list:
    """_quadric_curve by projection from (0:0:0:1), for any pencil.

    Only the prefixes (x0:x1:x2) where Res_w(q1, q2) vanishes can carry a
    point: the _resultant of the w-coefficients (gamma, beta, alpha) of
    _split_quadric, a plane quartic, or the cubic beta1 gamma2 - beta2 gamma1
    when alpha1 = alpha2 = 0.  They are visited in enumerate_points order,
    each is solved for w on q1 in _w_roots order, and the points on q2 are
    kept.  (0:0:0:1) comes last, when it lies on both quadrics.  That is the
    order of a scan of every prefix, at p + 1 root findings on a quartic
    instead of p^2 + p + 1 solves.
    """
    res = _resultant(*(([[q[0], q[1], q[4]], [q[2], q[5]], [q[7]]], [[q[3], q[6]], [q[8]]],
                        [[q[9]]]) for q in (q1, q2)))
    pts = []
    for pre in _sliced_zeros([[[c % p for c in row] for row in res]], p):
        for w in _w_roots(q1, pre, p, sqrts):
            if _quadric_value(q2, pre + (w,), p) == 0:
                pts.append(pre + (w,))
    if q1[9] == q2[9] == 0:
        pts.append((0, 0, 0, 1))
    return pts


def _minors(a, b) -> tuple:
    """The 2 x 2 minors a_i*b_j - a_j*b_i (i < j) of two rows of four, in the
    order 01, 02, 03, 12, 13, 23."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0,
            a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2)


def _line_key(a, b, p: int) -> tuple:
    """The line through two distinct points of P^3(GF(p)): its Pluecker
    coordinates (_minors), first nonzero one scaled to 1."""
    minors = _minors(a, b)
    for m in minors:
        if m % p:
            inv = pow(m, p - 2, p)
            return tuple(x * inv % p for x in minors)
    raise ValueError("a line needs two distinct points")


def _quadric_value(q, x, p: int) -> int:
    alpha, beta, gamma = _split_quadric(q, *x[:3])
    w = x[3]
    return (w * (alpha * w + beta) + gamma) % p


def _gradient(q, x, p: int) -> tuple:
    """The gradient of the quadric q (monomial_basis(3, 2) order) at x."""
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = q
    x0, x1, x2, x3 = x
    return ((2 * c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3) % p,
            (c1 * x0 + 2 * c4 * x1 + c5 * x2 + c6 * x3) % p,
            (c2 * x0 + c5 * x1 + 2 * c7 * x2 + c8 * x3) % p,
            (c3 * x0 + c6 * x1 + c8 * x2 + 2 * c9 * x3) % p)


def _has_three_collinear(pts, q1, q2, field: FieldSpec) -> bool:
    """Whether three of pts, the coordinate tuples (each leading with 1) of all
    the rational points of q1 = q2 = 0, are collinear.

    A line meeting a quadric in three points lies in it, so three collinear
    points exist exactly when a rational line lies in both quadrics.  Such a
    line through a point a of the curve lies in both tangent planes u.x = 0
    and v.x = 0 (u, v the gradients at a), because q(a + t b) = q(a) +
    t (grad q(a) . b) + t^2 q(b).  When u and v are independent those planes
    meet in the only candidate line, which holds a (Euler: u.a = 2 q1(a) = 0)
    and lies in both quadrics iff both vanish at one more of its points b.
    With j the index of a's leading 1, b is the point where the line meets
    x_j = 0: the cross product of u and v with coordinate j dropped, a 0
    put back at j.  It is not a multiple of a (b_j = 0), and it is zero only
    when u and v are dependent (a combination of them vanishing off j would
    be nonzero at a, against Euler); then the lines through a and the other
    points are compared instead.  Each test is O(1) per point outside that
    case.

    That case holds at every point when q2 is a multiple of q1: the curve is
    the quadric q1 = 0, and the answer is read from q1 alone.  A quadric
    surface holds a rational line exactly when it is singular (a cone over a
    conic, two planes, or two conjugate planes through a rational line) or
    smooth and split, that is, when _gram_det(q1) is 0 or a nonzero square;
    a smooth non-split quadric holds none (Hirschfeld, Finite Projective
    Spaces of Three Dimensions, 1985).
    """
    p = field.p
    i = next(j for j, c in enumerate(q1) if c % p)
    if not any((q1[i] * b - q2[i] * a) % p for a, b in zip(q1, q2)):
        det = _gram_det(q1, p)
        return det == 0 or pow(det, (p - 1) // 2, p) == 1
    for a in pts:
        j = a.index(1)
        u = _gradient(q1, a, p)
        v = _gradient(q2, a, p)
        (u0, u1, u2), (v0, v1, v2) = u[:j] + u[j + 1:], v[:j] + v[j + 1:]
        b = [(u1 * v2 - u2 * v1) % p, (u2 * v0 - u0 * v2) % p, (u0 * v1 - u1 * v0) % p]
        if any(b):
            b.insert(j, 0)
            if _quadric_value(q1, b, p) == 0 and _quadric_value(q2, b, p) == 0:
                return True
            continue
        seen = set()
        for c in pts:
            if c != a:
                key = _line_key(a, c, p)
                if key in seen:
                    return True
                seen.add(key)
    return False


# 24 times the inverse of the Vandermonde matrix of the nodes 0, 1, 2, 3, 4:
# row j gives 24 times the t^j coefficient of a quartic from its five values.
_QUARTIC_FROM_VALUES = ((24, 0, 0, 0, 0), (-50, 96, -72, 32, -6), (35, -104, 114, -56, 11),
                        (-10, 36, -48, 28, -6), (1, -4, 6, -4, 1))


def _pencil_discriminant(q1, q2, p: int) -> list:
    """g(l) = det(M1 + l M2) mod p (p >= 5) as a trimmed coefficient list,
    M1 and M2 the matrices of _polar for q1 and q2: the degree-4 polynomial
    through the values _gram_det(q1 + l q2) at l = 0, ..., 4."""
    values = [_gram_det(tuple(a + lam * b for a, b in zip(q1, q2)), p) for lam in range(5)]
    inv24 = pow(24, p - 2, p)
    return gfpoly.trim([inv24 * sum(c * v for c, v in zip(row, values))
                        for row in _QUARTIC_FROM_VALUES], p)


def _is_smooth_pencil(q1, q2, p: int) -> bool:
    """Whether the curve q1 = q2 = 0 is certified smooth; never for p = 3.

    It is smooth exactly when det(l M1 + u M2) has four distinct roots (l:u)
    over the algebraic closure, Segre symbol [1111] (M. Reid, The complete
    intersection of two or more quadrics, 1972).  In g(l) =
    _pencil_discriminant, a degree below 3 is a multiple root at l = infinity,
    g = 0 makes every member singular, and otherwise the roots are distinct
    when gcd(g, g') is constant (p >= 5 > deg g).
    """
    if p < 5:
        return False
    g = _pencil_discriminant(q1, q2, p)
    return len(g) > 3 and len(gfpoly.gcd(g, [i * c for i, c in enumerate(g)][1:], p)) == 1


def _quartic_draw(m: int, field: FieldSpec, rng: random.Random, sqrts: dict):
    """One draw: m points sampled from the curve of two random quadrics, or
    None when the draw is rejected."""
    p = field.p
    nmono = len(monomial_basis(3, 2))
    q1 = tuple(rng.randrange(p) for _ in range(nmono))
    q2 = tuple(rng.randrange(p) for _ in range(nmono))
    if not any(q1) or not any(q2):
        return None
    curve = _quadric_curve(q1, q2, p, sqrts)
    if len(curve) < m:
        return None
    if not _is_smooth_pencil(q1, q2, p) and _has_three_collinear(curve, q1, q2, field):
        return None
    return [ProjPoint(field, x) for x in rng.sample(curve, m)]


def gen_elliptic_quartic(m: int, field: FieldSpec, seed: int) -> PointSet:
    """m points on the intersection curve of two random quadrics in P^3.

    Certificate: at least m distinct rational points and no three collinear
    (a line in the curve would put p+1 collinear points in it).  For p >= 5
    a smooth pencil is certified by its discriminant (_is_smooth_pencil): a
    smooth curve is irreducible of genus 1 and holds no line.  The
    collinearity scan (_has_three_collinear) runs only for singular pencils
    and for p = 3.  The CB(2) verdict of the sampled points is the caller's
    final genericity signal.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if field.kind != PRIME or field.p < 3:
        raise InvalidFieldError("elliptic-quartic sampling needs an odd prime field")
    rng = random.Random(seed)
    sqrts = _sqrt_table(field.p)
    for _ in range(RESAMPLE_BUDGET):
        chosen = _quartic_draw(m, field, rng, sqrts)
        if chosen is not None:
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
            if pt.ints in seen:
                continue
            seen.add(pt.ints)
            out.append(pt)
            placed += 1
            if placed == cnt:
                break
        if placed < cnt:
            raise FieldTooSmallError("could not place the requested distinct points")
    return PointSet(field, cfg.ambient_dim, tuple(out))
