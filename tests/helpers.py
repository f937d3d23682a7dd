"""Independent oracles and small utilities shared by the test modules.

These deliberately avoid the library's fast paths: rank via determinant
minors, CB via the per-point rank definition, covers via exhaustive
combinations, intersections via the direct common-cone linear system.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from cb_lab import (
    FieldSpec,
    Flat,
    PointSet,
    ProjPoint,
    eval_matrix,
    monomial_basis,
    span,
)
from cb_lab.cb import CbReport, CbWitness, _witness_for
from cb_lab.errors import DegenerateConicError, ResampleBudgetExceededError
from cb_lab.forms import MonomialBasis, evaluation_row
from cb_lab.gfpoly import trim
from cb_lab.generators import (
    RESAMPLE_BUDGET,
    _conic_through_origin_point,
    _line_key,
    _quadric_value,
    _rand_element,
    _split_quadric,
)
from cb_lab.linalg import (
    combine,
    dot,
    echelon,
    in_row_space,
    kernel,
    reduce_against,
    rref,
    transpose,
)
from cb_lab.projective import _prime_coeff_tuples, enumerate_points


def det_oracle(rows, field):
    """Determinant by Laplace expansion (exact, slow, independent)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = field.zero()
    sign = field.one()
    for j in range(n):
        if rows[0][j] != 0:
            minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
            term = field.mul(rows[0][j], det_oracle(minor, field))
            acc = field.add(acc, field.mul(sign, term))
        sign = field.neg(sign)
    return acc


def sylvester_resultant(f, g, field):
    """Res of two polynomials over GF(p) given at one formal degree n (constant
    term first, n + 1 entries each): the Sylvester determinant, by det_oracle."""
    n = len(f) - 1
    rows = [[0] * i + list(f[::-1]) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(g[::-1]) + [0] * (n - 1 - i) for i in range(n)]
    return det_oracle(rows, field)


def poly_mul(f, g, p: int) -> list:
    """Schoolbook product of two GF(p) polynomials, constant term first."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out, p)


def rank_oracle(rows, field):
    """Rank as the size of the largest nonsingular square minor."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    for size in range(min(nrows, ncols), 0, -1):
        for ris in itertools.combinations(range(nrows), size):
            for cis in itertools.combinations(range(ncols), size):
                sub = [[rows[i][j] for j in cis] for i in ris]
                if det_oracle(sub, field) != 0:
                    return size
    return 0


def fraction_ge_rref(rows):
    """Plain Gaussian elimination with Fractions (oracle for the Bareiss path)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    piv_cols = []
    pr = 0
    for c in range(ncols):
        pivot = next((i for i in range(pr, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        lead = m[pr][c]
        m[pr] = [x / lead for x in m[pr]]
        for i in range(nrows):
            if i != pr and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
        piv_cols.append(c)
        pr += 1
        if pr == nrows:
            break
    return [tuple(r) for r in m[:pr]], piv_cols


def in_span_by_fractions(vec, rows) -> bool:
    """Whether vec lies in the row space of rows: appending it leaves the
    Fraction elimination's rank unchanged (oracle for the integer membership
    path of Flat.contains)."""
    rows = [list(r) for r in rows]
    return len(fraction_ge_rref(rows + [list(vec)])[0]) == len(fraction_ge_rref(rows)[0])


def two_rref_kernel(rows, ncols, field):
    """The kernel built from the rref's free columns and then row-reduced a
    second time (oracle for the single-rref linalg.kernel)."""
    basis, piv = rref(rows, field)
    free = [c for c in range(ncols) if c not in piv]
    if not free:
        return []
    vecs = []
    for f in free:
        v = [field.zero()] * ncols
        v[f] = field.one()
        for i, pc in enumerate(piv):
            v[pc] = field.neg(basis[i][f])
        vecs.append(v)
    return rref(vecs, field)[0]


def is_cb_by_definition(gamma: PointSet, r: int) -> bool:
    """The definitional rank characterization, one elimination per point."""
    if len(gamma) == 0 or r == 0:
        return True
    full = rank_oracle_fast(eval_matrix(gamma, r).rows, gamma.field)
    for i in range(len(gamma)):
        sub = eval_matrix(gamma.without(i), r).rows
        if rank_oracle_fast(sub, gamma.field) != full:
            return False
    return True


def monomial_values(coords, basis: MonomialBasis, one=1) -> list:
    """Unreduced native products: every basis monomial at coords, starting
    each product from one (int coordinates give int values)."""
    pows = []
    for c in coords:
        col = [one]
        for _ in range(basis.r):
            col.append(col[-1] * c)
        pows.append(col)
    row = []
    for expo in basis.monomials:
        val = one
        for col, e in zip(pows, expo):
            if e:
                val *= col[e]
        row.append(val)
    return row


def evaluation_rows(gamma: PointSet, r: int) -> list:
    """The point-major evaluation matrix from each point's ints: one unreduced
    monomial_values row per point (over Q a nonzero multiple of its Fraction
    row)."""
    basis = monomial_basis(gamma.ambient_dim, r)
    return [monomial_values(pt.ints, basis) for pt in gamma]


def is_cb_by_rows(gamma: PointSet, r: int) -> CbReport:
    """is_cb by the row path: evaluation_rows, one echelon of their transpose,
    the failing points read off its unit rows, and the witness from the
    unreduced rows."""
    if len(gamma) == 0 or r == 0:
        return CbReport(r, True)
    rows = evaluation_rows(gamma, r)
    basis, piv = echelon(transpose(rows), gamma.field)
    failing = [c for row, c in zip(basis, piv) if not any(row[c + 1:])]
    if not failing:
        return CbReport(r, True)
    form = _witness_for(rows, failing[0], gamma.field, len(rows[0]))
    return CbReport(r, False, CbWitness(failing[0], form))


def rank_oracle_fast(rows, field):
    """Rank via rref but through its own call (distinct from the left-kernel path)."""
    return len(rref(rows, field)[0])


def intersection_dim_oracle(f1, f2):
    """dim of the cone intersection by solving [A^T | -B^T] for common vectors."""
    field = f1.field
    ncols = f1.ambient_dim + 1
    a, b = len(f1.basis), len(f2.basis)
    sys_rows = []
    for i in range(ncols):
        row = [f1.basis[k][i] for k in range(a)]
        row += [field.neg(f2.basis[k][i]) for k in range(b)]
        sys_rows.append(row)
    from cb_lab.linalg import kernel

    sols = kernel(sys_rows, a + b, field)
    # common vectors x = u . basis1; their span is the intersection cone
    vecs = []
    for sol in sols:
        x = [field.zero()] * ncols
        for k in range(a):
            if sol[k] != 0:
                for j in range(ncols):
                    x[j] = field.add(x[j], field.mul(sol[k], f1.basis[k][j]))
        vecs.append(x)
    basis, _ = rref(vecs, field)
    return len(basis) - 1 if basis else -1


def cover_oracle(gamma: PointSet, candidates, d: int, max_length: int) -> bool:
    """Exhaustive multisets-of-candidates cover check (repetition never helps)."""
    usable = [c for c in candidates if c.flat.dim <= d]
    full = (1 << len(gamma)) - 1
    if full == 0:
        return True
    for size in range(1, max_length + 1):
        for combo in itertools.combinations(usable, size):
            if sum(c.flat.dim for c in combo) > d:
                continue
            mask = 0
            for c in combo:
                mask |= c.mask
            if mask == full:
                return True
    return False


def rank_by_field_ops(rows, field) -> int:
    """Rank by forward Gaussian elimination on the FieldSpec element ops
    (independent of linalg's elimination bodies)."""
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.inv(m[rank][c])
        for i in range(rank + 1, len(m)):
            f = field.mul(m[i][c], inv)
            if f != 0:
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@functools.lru_cache(maxsize=4)
def _subset_ranks(gamma: PointSet) -> list:
    """The rank of the cone over every subset of gamma, indexed by point mask
    (kept for the last few sets, which both cover oracles read)."""
    rows = [pt.coords for pt in gamma]
    return [rank_by_field_ops([row for i, row in enumerate(rows) if mask >> i & 1], gamma.field)
            for mask in range(1 << len(rows))]


def components_by_separators(gamma: PointSet):
    """(rank, parts) of gamma's point matroid by brute force over subset
    ranks, the reference for cover._components: a separator is a nonempty
    S with r(S) + r(gamma - S) = r(gamma), the components are the minimal
    separators, and parts lists them as (mask, rank) by lowest point."""
    rk = _subset_ranks(gamma)
    full = len(rk) - 1
    seps = [s for s in range(1, full + 1) if rk[s] + rk[full ^ s] == rk[full]]
    minimal = [s for s in seps if not any(t != s and t & s == t for t in seps)]
    return rk[full], sorted(((s, rk[s]) for s in minimal), key=lambda part: part[0] & -part[0])


def candidate_levels_unsplit(gamma: PointSet, max_dim: int) -> list:
    """Per candidate level, its (mask, raw basis) pairs sorted by mask, from
    the level loop run on the whole of gamma as one part: the reference for
    the levels that cover._grow builds per component of a direct sum."""
    from cb_lab import cover

    full = (1 << len(gamma)) - 1
    rank = rank_by_field_ops([pt.coords for pt in gamma], gamma.field)
    return [sorted((mask, level.basis(j)[0]) for j, mask in enumerate(level.masks))
            for level in cover._grow(gamma, max_dim, [(full, rank)])]


def min_cover_dim_by_partitions(gamma: PointSet) -> int:
    """The least dimension of a plane configuration covering a nonempty gamma,
    as the least sum of max(rank - 1, 1) over the set partitions of gamma: a
    part costs the dimension of its span, a single point a line through it.
    Computed by a DP over masks, each part holding the lowest point left;
    practical up to about 10 points."""
    rk = _subset_ranks(gamma)
    best = [0] * len(rk)
    for mask in range(1, len(rk)):
        low = mask & -mask
        rest = sub = mask ^ low
        got = None
        while True:
            part = sub | low
            cost = max(rk[part] - 1, 1) + best[mask ^ part]
            if got is None or cost < got:
                got = cost
            if sub == 0:
                break
            sub = (sub - 1) & rest
        best[mask] = got
    return best[-1]


def min_cover_dim_by_rich_flats(gamma: PointSet) -> int:
    """The least covering dimension of a nonempty gamma by the rich-flat
    formula: the minimum, over sets C of rich flats (of dim k >= 1 holding at
    least 2k + 1 points of gamma), of sum(dim F for F in C) + ceil(m / 2),
    where the m points outside every flat of C are paired on lines.  The
    flats are the spans of every subset, their points read off brute-force
    ranks."""
    rk = _subset_ranks(gamma)
    full = len(rk) - 1
    rich = set()
    for mask in range(1, full + 1):
        k = rk[mask] - 1
        closure = sum(1 << i for i in range(len(gamma)) if rk[mask | 1 << i] == rk[mask])
        if k >= 1 and closure.bit_count() >= 2 * k + 1:
            rich.add((closure, k))
    best = {0: 0}  # union of the flats of C -> least sum of their dims
    for flat_mask, k in sorted(rich):
        for union, cost in list(best.items()):
            grown = union | flat_mask
            if cost + k < best.get(grown, cost + k + 1):
                best[grown] = cost + k
    return min(cost + ((full & ~union).bit_count() + 1) // 2 for union, cost in best.items())


def first_containing_plane(gamma: PointSet, cfg):
    """Per point of gamma, the index of the first plane of cfg containing it."""
    return tuple(next(j for j, pl in enumerate(cfg.planes) if pl.contains(pt)) for pt in gamma)


def single_point_line_by_rank_scan(gamma: PointSet):
    """The line through gamma's one point and the first unit vector off it,
    one rank test per unit vector; None in P^0."""
    pt, fld, n = gamma[0], gamma.field, gamma.ambient_dim
    for j in range(n + 1):
        unit = tuple(fld.one() if k == j else fld.zero() for k in range(n + 1))
        if rank_oracle([list(pt.coords), list(unit)], fld) == 2:
            return span([pt, Flat(fld, n, (unit,))])
    return None


def candidate_flats_oracle(gamma: PointSet, max_dim: int):
    """(dim, basis, mask) of every flat of dim 1..max_dim
    spanned by a subset of gamma: one rref per subset of size 2..max_dim+1,
    deduplicated by basis, masks by membership, in (dim, basis) order."""
    fld = gamma.field
    coords = [pt.coords for pt in gamma]
    found = {}
    for size in range(2, min(max_dim, gamma.ambient_dim) + 2):
        for subset in itertools.combinations(coords, size):
            basis, piv = rref(subset, fld)
            key = tuple(basis)
            if key in found:
                continue
            mask = sum(1 << i for i, c in enumerate(coords) if in_row_space(c, basis, piv, fld))
            found[key] = (len(key) - 1, key, mask)
    return sorted(found.values(), key=lambda t: (t[0], t[1]))


def candidate_flats_by_fractions(gamma: PointSet, max_dim: int):
    """(dim, basis, mask) of the candidate flats of a point set over Q, grown
    level by level on Fraction rows: each skipped-or-reduced point's residual
    scaled to a leading 1, the children grouped by residual and built by a
    Fraction pivot insert, sorted by the Fraction basis (reference for the
    integer path of cover.candidate_flats)."""
    from bisect import bisect_left

    fld = gamma.field
    coords = [pt.coords for pt in gamma]
    level = [((c,), (c.index(1),), 1 << i) for i, c in enumerate(coords)]
    found = []
    for _dim in range(min(max_dim, gamma.ambient_dim)):
        holding = [[] for _ in coords]
        grown = []
        for basis, piv, mask in level:
            done = mask
            for g in holding[(mask & -mask).bit_length() - 1]:
                if g & mask == mask:
                    done |= g
            groups = {}
            for i, c in enumerate(coords):
                if not done >> i & 1:
                    v = reduce_against(c, basis, piv, fld)
                    lead = next(x for x in v if x)
                    r = tuple(x / lead for x in v)
                    groups[r] = groups.get(r, mask) | 1 << i
            for r, child in groups.items():
                lead = r.index(1)
                pos = bisect_left(piv, lead)
                rows = [tuple(a - row[lead] * b for a, b in zip(row, r)) for row in basis]
                rows.insert(pos, r)
                grown.append((tuple(rows), piv[:pos] + (lead,) + piv[pos:], child))
                for i in range(len(coords)):
                    if child >> i & 1:
                        holding[i].append(child)
        level = grown
        found.extend((len(basis) - 1, basis, mask) for basis, _piv, mask in level)
    return sorted(found, key=lambda t: (t[0], t[1]))


@functools.lru_cache(maxsize=16)
def _plane_rows(field, deg):
    """Every point of P^2(GF(p)) and its degree-deg evaluation row, cached."""
    pts = enumerate_points(field, 2)
    basis = monomial_basis(2, deg)
    return tuple(pts), tuple(evaluation_row(pt.coords, basis, field) for pt in pts)


def pencil_ci_by_scan(deg, field, rng):
    """One draw of the equal-degree plane-curve sampler by a whole-plane scan:
    deg*deg - 1 base points sampled by index from all of P^2(GF(p)), the first
    two kernel forms through them, and all of their common zeros, in
    enumeration order (reference for the slice-by-slice root finder)."""
    pts, rows = _plane_rows(field, deg)
    base_idx = rng.sample(range(len(pts)), deg * deg - 1)
    ker = kernel([rows[i] for i in base_idx], len(rows[0]), field)
    if len(ker) < 2:
        return None
    return common_zeros_by_scan(ker[0], ker[1], deg, field)


def common_zeros_by_scan(f, g, deg, field):
    """The points of P^2(GF(p)) where two degree-deg forms both vanish, in
    enumeration order, by evaluating them at every point."""
    pts, rows = _plane_rows(field, deg)
    return [pt for pt, row in zip(pts, rows)
            if dot(f, row, field) == 0 and dot(g, row, field) == 0]


def has_three_collinear_by_pairs(pts, field):
    """Whether three of the points of P^3(GF(p)) are collinear, by counting
    the Pluecker key of the line through every pair (reference for the
    gradient test of the elliptic-quartic generator)."""
    counts = {}
    coords = [pt.coords for pt in pts]
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            key = _line_key(coords[i], coords[j], field.p)
            counts[key] = counts.get(key, 0) + 1
            if counts[key] >= 3:  # C(3,2) pairs on one line
                return True
    return False


def pencil_discriminant_by_leibniz(q1, q2, p: int) -> list:
    """det(M1 + l M2) mod p, trimmed, constant term first: M is the symmetric
    matrix with 2 c_ii on the diagonal and c_ij off it, c_ij the coefficient
    of x_i x_j (monomial_basis(3, 2) order), and the determinant is the
    Leibniz sum over the 24 permutations of products of linear polynomials
    (reference for the interpolated discriminant of the elliptic-quartic
    generator)."""
    pairs = itertools.combinations_with_replacement(range(4), 2)
    m1, m2 = [[0] * 4 for _ in range(4)], [[0] * 4 for _ in range(4)]
    for (i, j), a, b in zip(pairs, q1, q2):
        for m, c in ((m1, a), (m2, b)):
            m[i][j] += c
            m[j][i] += c
    total = [0] * 5
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(4), 2))
        term = [(-1) ** inversions]
        for i, j in enumerate(perm):
            term = poly_mul(term, [m1[i][j], m2[i][j]], p)
        for k, c in enumerate(term):
            total[k] += c
    return trim(total, p)


def _whole_curve_zeros(deg_lo, deg_hi, field, rng):
    """One draw of the unequal-degree plane-curve sampler by a whole-curve scan:
    list all p+1 points of the line or conic, sample deg_lo*deg_hi of them,
    take the first form through the sample that is nonzero somewhere on the
    curve and return all of its zeros on the curve, in curve order."""
    need = deg_lo * deg_hi
    if deg_lo == 1:
        vec = tuple(_rand_element(field, rng) for _ in range(3))
        if all(v == 0 for v in vec):
            return None
        line = kernel([vec], 3, field)
        curve_pts = [ProjPoint(field, combine(c, line, field))
                     for c in _prime_coeff_tuples(field.p, 2)]
    else:
        try:
            point = _conic_through_origin_point(field, rng)
        except DegenerateConicError:
            return None
        curve_pts = [point(i) for i in range(field.p + 1)]
    if len(curve_pts) < need:
        return None
    chosen = rng.sample(curve_pts, need)
    basis = monomial_basis(2, deg_hi)
    rows = {pt.coords: evaluation_row(pt.coords, basis, field) for pt in curve_pts}
    ker = kernel([rows[pt.coords] for pt in chosen], len(basis), field)
    for vec in ker:
        if any(dot(vec, rows[pt.coords], field) != 0 for pt in curve_pts):
            return [pt for pt in curve_pts if dot(vec, rows[pt.coords], field) == 0]
    return None


def plane_curve_ci_by_scan(deg_d: int, deg_e: int, field: FieldSpec, seed: int) -> PointSet:
    """gen_plane_curve_ci over GF(p) by whole-curve and whole-plane scans
    (reference for the generator, which visits neither)."""
    lo, hi = sorted((deg_d, deg_e))
    rng = random.Random(seed)
    for _ in range(RESAMPLE_BUDGET):
        if lo == hi:
            zeros = pencil_ci_by_scan(lo, field, rng)
        else:
            zeros = _whole_curve_zeros(lo, hi, field, rng)
        if zeros is not None and len(zeros) == lo * hi:
            return PointSet(field, 2, tuple(zeros))
    raise ResampleBudgetExceededError(
        f"no transverse ({deg_d},{deg_e}) intersection within budget"
    )


def quadric_points_by_scan(q_vec, field):
    """Rational points of one quadric in P^3 (odd p), by solving for the last
    coordinate over every prefix (x0:x1:x2) of P^2(GF(p)) in enumeration order:
    alpha*w^2 + beta*w + gamma in w, roots in quadratic-formula order, and
    (0:0:0:1) last when alpha = 0."""
    p = field.p
    sqrts = {}
    for x in range(p):  # the least square root of every square, by brute force
        sqrts.setdefault(x * x % p, x)
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


def quadric_curve_by_scan(q1, q2, field):
    """The points of q1 = q2 = 0 in P^3: every point of q1 from the prefix scan
    that lies on q2 (reference for the slice-by-slice root finder)."""
    return [x for x in quadric_points_by_scan(q1, field) if _quadric_value(q2, x, field.p) == 0]


def _check_count(field: FieldSpec, n: int, count: int) -> None:
    """Raise ValueError when count exceeds the number of points of P^n:
    (p^(n+1) - 1) / (p - 1) over GF(p), one for P^0 over Q."""
    if field.is_prime_field:
        have = (field.p ** (n + 1) - 1) // (field.p - 1)
    elif n == 0:
        have = 1
    else:
        return
    if count > have:
        raise ValueError(f"P^{n} has only {have} points over {field}, asked for {count}")


def random_point_set(field: FieldSpec, n: int, count: int, rng: random.Random) -> PointSet:
    """count distinct uniformly drawn points of P^n (coordinates in -9..9 over
    Q); a count above the number of points of P^n raises ValueError."""
    _check_count(field, n, count)
    pts = []
    seen = set()
    while len(pts) < count:
        if field.is_prime_field:
            coords = tuple(rng.randrange(field.p) for _ in range(n + 1))
        else:
            coords = tuple(Fraction(rng.randint(-9, 9)) for _ in range(n + 1))
        if all(c == 0 for c in coords):
            continue
        pt = ProjPoint(field, coords)
        if pt.coords in seen:
            continue
        seen.add(pt.coords)
        pts.append(pt)
    return PointSet(field, n, tuple(pts))


def clustered_point_set(field: FieldSpec, n: int, count: int, rng: random.Random) -> PointSet:
    """count distinct points of P^n (a count above the number of points of P^n
    raises ValueError): past the first two, about half are nonzero
    combinations of two or three earlier points, so lines and planes hold
    more points than their generators."""
    _check_count(field, n, count)
    pts, seen = [], set()
    while len(pts) < count:
        if len(pts) < 2 or rng.random() < 0.5:
            if field.is_prime_field:
                coords = [rng.randrange(field.p) for _ in range(n + 1)]
            else:
                coords = [rng.randint(-9, 9) for _ in range(n + 1)]
        else:
            gens = rng.sample(pts, rng.randint(2, min(3, len(pts))))
            coeffs = [rng.randint(1, field.p - 1) if field.is_prime_field
                      else rng.choice((-3, -1, 1, 2)) for _ in gens]
            coords = combine(coeffs, [pt.coords for pt in gens], field)
        if not any(coords):
            continue
        pt = ProjPoint(field, coords)
        if pt.coords not in seen:
            seen.add(pt.coords)
            pts.append(pt)
    return PointSet(field, n, tuple(pts))


_MIXED = (Fraction(10**30, 7), Fraction(1, 3), Fraction(-5, 2), Fraction(-(10**30), 7),
          Fraction(7), Fraction(-1), Fraction(0))


def mixed_rational_point_set(n: int, count: int, rng: random.Random) -> PointSet:
    """Distinct points of P^n over Q with large and mixed denominators
    (10^30/7 next to 1/3), negative entries and leading zeros.  Past the
    first two, most points are drawn on the line through two earlier ones,
    so spans hold more points than their generators."""
    q = FieldSpec.rational()
    pts, seen = [], set()
    while len(pts) < count:
        if len(pts) < 2 or rng.random() < 0.4:
            coords = [rng.choice(_MIXED) for _ in range(n + 1)]
            zeros = rng.randint(0, n)
            coords[:zeros] = [Fraction(0)] * zeros
        else:
            a, b = rng.sample(pts, 2)
            c = rng.choice(_MIXED[:4])
            coords = [x + c * y for x, y in zip(a.coords, b.coords)]
        if not any(coords):
            continue
        pt = ProjPoint(q, coords)
        if pt.coords not in seen:
            seen.add(pt.coords)
            pts.append(pt)
    return PointSet(q, n, tuple(pts))


def random_invertible_matrix(field: FieldSpec, n: int, rng: random.Random):
    from cb_lab.linalg import rank

    while True:
        rows = [
            [
                rng.randrange(field.p)
                if field.is_prime_field
                else Fraction(rng.randint(-5, 5))
                for _ in range(n + 1)
            ]
            for _ in range(n + 1)
        ]
        if rank(rows, field) == n + 1:
            return rows


def record_cover_flats(monkeypatch) -> list:
    """The list of every Flat that cb_lab.cover builds from here on."""
    import cb_lab.cover

    built = []
    make = cb_lab.cover.Flat

    def recorded(*args):
        built.append(make(*args))
        return built[-1]

    monkeypatch.setattr(cb_lab.cover, "Flat", recorded)
    return built


class EagerCoverSearch:
    """The cover branch and bound with every candidate built, sorted and
    indexed before the search starts: the reference for the library's
    search, which reads candidate levels only when it tries them.

    triples are (mask, cost, item) in branching order; by_point lists each
    target point's triples in that order.  The pick, the bound, the memo and
    the node count follow the library's search step for step, so the two
    agree on nodes_explored as well as on the cover.
    """

    def __init__(self, triples, target: int, node_budget):
        self.target = target
        self.node_budget = node_budget
        self.by_point = {i: [c for c in triples if c[0] >> i & 1]
                         for i in range(target.bit_length()) if target >> i & 1}
        self.best = {}
        for mask, cost, _item in triples:
            self.best[cost] = max(self.best.get(cost, 0), mask.bit_count())
        self.max_cost = max(self.best, default=0)

    def _coverage_bound(self, d: int, length: int):
        best_at = [0] * (d + 1)
        for cost, cnt in self.best.items():
            if cost <= d:
                best_at[cost] = cnt
        for k in range(1, d + 1):
            best_at[k] = max(best_at[k], best_at[k - 1])
        table = [[0] * (length + 1) for _ in range(d + 1)]
        for b in range(1, d + 1):
            for l in range(1, length + 1):
                table[b][l] = max(best_at[k] + table[b - k][l - 1] for k in range(1, b + 1))
        return table

    def run(self, d: int, max_length: int):
        from cb_lab.errors import BudgetExceededError

        self.nodes = 0
        length = min(max_length, d, self.target.bit_count())
        d = min(d, length * self.max_cost)
        bound = self._coverage_bound(d, length)
        memo = set()

        def dfs(uncovered, cost_left, len_left, stack):
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise BudgetExceededError(f"cover search exceeded {self.node_budget} nodes")
            if uncovered == 0:
                return list(stack)
            if cost_left < 1 or len_left < 1 or bound[cost_left][len_left] < uncovered.bit_count():
                return None
            if (uncovered, cost_left, len_left) in memo:
                return None
            options = {i: sum(1 for c in cands if c[1] <= cost_left)
                       for i, cands in self.by_point.items() if uncovered >> i & 1}
            pick = min(options, key=options.__getitem__)
            for mask, cost, item in self.by_point[pick]:
                if cost <= cost_left:
                    got = dfs(uncovered & ~mask, cost_left - cost, len_left - 1, stack + [item])
                    if got is not None:
                        return got
            memo.add((uncovered, cost_left, len_left))
            return None

        return dfs(self.target, d, length, [])


def eager_point_search(gamma: PointSet, max_dim: int, node_budget=10**7) -> EagerCoverSearch:
    """The cover search of gamma (two points at least) for dim budgets <=
    max_dim over candidate_flats up to dim max_dim - 1 and span(gamma), all
    built first."""
    from cb_lab.cover import CandidateFlat, candidate_flats

    cap = min(max_dim - 1, gamma.ambient_dim)
    full = (1 << len(gamma)) - 1
    triples = [(c.mask, c.dim, c) for c in (candidate_flats(gamma, cap) if cap >= 1 else [])]
    top = span(list(gamma))
    if cap < top.dim <= max_dim:
        triples.append((full, top.dim, CandidateFlat(top.field, top.basis, full, top)))
    return EagerCoverSearch(triples, full, node_budget)


def exists_cover_eager(gamma: PointSet, d: int, max_length: int, node_budget=10**7):
    """exists_cover over an EagerCoverSearch."""
    from cb_lab import cover

    if d <= 0 or len(gamma) < 2:
        return cover.exists_cover(gamma, d, max_length, node_budget)
    search = eager_point_search(gamma, d, node_budget)
    chosen = search.run(d, max_length)
    if chosen is None:
        return cover.CoverResult(False, None, 0, 0, search.nodes, True)
    return cover._result_from_chosen(gamma, chosen, search.nodes, minimal=False)


def min_cover_eager(gamma: PointSet, node_budget=10**7):
    """min_cover over one EagerCoverSearch for its whole (dim, length) sweep."""
    from cb_lab import cover

    if len(gamma) < 2:
        return cover.min_cover(gamma, node_budget)
    top = span(list(gamma)).dim
    search = eager_point_search(gamma, top, node_budget)
    total = 0
    for dim in range(1, top + 1):
        for length in range(1, dim + 1):
            chosen = search.run(dim, length)
            total += search.nodes
            if chosen is not None:
                return cover._result_from_chosen(gamma, chosen, total, minimal=True)
    raise AssertionError("the span of gamma always covers it")


def is_mcb_eager(m, r: int):
    """is_mcb with an EagerCoverSearch over the hyperplanes avoiding x for
    every element x, none settled by size first."""
    from cb_lab.matroid import McbReport, _elements, flats

    rk = m.full_rank
    hyperplanes = flats(m, rk - 1).get(rk - 1, ())
    ground = (1 << m.size) - 1
    for x in range(m.size):
        candidates = [h for h in hyperplanes if not h >> x & 1]
        got = EagerCoverSearch([(h, 1, h) for h in candidates], ground & ~(1 << x),
                               float("inf")).run(r, r)
        if got is not None:
            if not got and candidates:
                got = (candidates[0],)
            return McbReport(r, False, tuple(tuple(_elements(f)) for f in got), x)
    return McbReport(r, True)
