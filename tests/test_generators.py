"""Example-family generators: determinism, certificates, structural checks."""

import hashlib
import itertools
import json
import random
import time
from functools import reduce

import pytest

from cb_lab import (
    FieldSpec,
    GenSpec,
    PlaneConfiguration,
    PointSet,
    ProjPoint,
    enumerate_points,
    eval_matrix,
    evaluate_form,
    exists_cover,
    gen_elliptic_quartic,
    gen_on_configuration,
    gen_plane_curve_ci,
    gen_rnc,
    gen_skew_lines,
    gen_two_plane_conics,
    generate,
    is_cb,
    is_split,
    monomial_basis,
    span,
    verify_cover,
)
from cb_lab import generators, gfpoly
from cb_lab.errors import (
    CbLabError,
    DegenerateConicError,
    FieldTooSmallError,
    InvalidFieldError,
)
from cb_lab.forms import evaluation_row
from cb_lab.generators import (
    _common_zeros,
    _conic_through_origin_point,
    _form_mul,
    _gram_det,
    _has_three_collinear,
    _is_smooth_pencil,
    _line_key,
    _pencil_ci,
    _pencil_discriminant,
    _quadric_curve,
    _quartic_draw,
    _slice_table,
    _sliced_curve,
    _split_member,
    _split_quadric,
    _sqrt_table,
)
from cb_lab.linalg import combine, kernel, rank, rref
from cb_lab.projective import _prime_coeff_tuples

from helpers import (
    common_zeros_by_scan,
    has_three_collinear_by_pairs,
    pencil_ci_by_scan,
    pencil_discriminant_by_leibniz,
    plane_curve_ci_by_scan,
    quadric_curve_by_scan,
    quadric_points_by_scan,
    rank_oracle,
    sylvester_resultant,
)


def _pointset_bytes(ps: PointSet) -> str:
    return json.dumps(ps.to_json(), sort_keys=True)


def test_generators_deterministic(gf101):
    specs = [
        GenSpec.make("rnc", {"k": 3, "m": 8}, gf101, 7),
        GenSpec.make("skew_lines", {"d": 2, "counts": [5, 5]}, gf101, 7),
        GenSpec.make("two_plane_conics", {"points_per_conic": 8}, gf101, 7),
        GenSpec.make("plane_curve_ci", {"deg_d": 3, "deg_e": 3}, gf101, 7),
        GenSpec.make("elliptic_quartic", {"m": 9}, gf101, 7),
    ]
    for spec in specs:
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert _pointset_bytes(a) == _pointset_bytes(b), spec.family
        back = GenSpec.from_json(spec.to_json())
        c, _ = generate(back)
        assert _pointset_bytes(a) == _pointset_bytes(c)


def test_rnc_small(gf101):
    ps = gen_rnc(1, 3, gf101, seed=1)
    assert len(ps) == 3 and ps.ambient_dim == 1


def test_rnc_on_curve_structure(gf101):
    # 2x2 minors of [x0..x_{k-1}; x1..x_k] vanish exactly on the curve
    ps = gen_rnc(3, 8, gf101, seed=7)
    for pt in ps:
        c = pt.coords
        for i in range(3):
            for j in range(3):
                assert gf101.sub(
                    gf101.mul(c[i], c[j + 1]), gf101.mul(c[i + 1], c[j])
                ) == 0


def test_rnc_general_linear_position(gf101):
    ps = gen_rnc(3, 8, gf101, seed=7)
    rows = ps.coord_rows()
    for quad in itertools.combinations(range(8), 4):
        assert rank_oracle([rows[i] for i in quad], gf101) == 4


def test_rnc_conic_cb2(gf101):
    ps = gen_rnc(2, 6, gf101, seed=2)
    assert is_cb(ps, 2).verdict


def test_rnc_field_too_small():
    gf5 = FieldSpec.prime(5)
    assert len(gen_rnc(2, 6, gf5, seed=1)) == 6  # p + 1 points, uses infinity
    with pytest.raises(FieldTooSmallError):
        gen_rnc(2, 7, gf5, seed=1)


def test_rnc_rational():
    q = FieldSpec.rational()
    ps = gen_rnc(2, 10, q, seed=3)
    assert len(ps) == 10 and ps.ambient_dim == 2


@pytest.mark.parametrize("field", [FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.prime(101),
                                   FieldSpec.rational()], ids=str)
def test_rnc_powers_are_the_plain_powers(field):
    # Each point is (1 : t : ... : t^k), its powers taken mod p over GF(p);
    # m = p + 1 over GF(p) takes every t in range(p).
    mod = field.p if field.is_prime_field else None
    draws = ((field.p + 1, 0), (min(5, field.p), 1)) if mod else ((5, 0), (9, 1))
    for k in range(1, 7):
        for m, seed in draws:
            for pt in gen_rnc(k, m, field, seed=seed):
                if pt.coords[0] == 0:  # the point at infinity
                    continue
                t = int(pt.coords[1])
                assert pt.coords == tuple(t**i % mod if mod else t**i for i in range(k + 1))


def test_skew_lines_families(gf101):
    pts, cfg = gen_skew_lines(2, (5, 5), gf101, seed=3)
    assert len(pts) == 10 and is_split(cfg)
    assert is_cb(pts, 3).verdict
    single, cfg1 = gen_skew_lines(1, (4,), gf101, seed=2)
    assert span(list(single)).dim == 1  # collinear
    pts3, cfg3 = gen_skew_lines(3, (7, 7, 7), gf101, seed=5)
    assert len(pts3) == 21 and pts3.ambient_dim == 5
    assert is_cb(pts3, 5).verdict
    for pl, cnt in zip(cfg3.planes, (7, 7, 7)):
        assert sum(1 for pt in pts3 if pl.contains(pt)) == cnt


def test_two_plane_conics_structure(gf101):
    pts, cfg = gen_two_plane_conics(8, gf101, seed=4)
    assert len(pts) == 16 and is_split(cfg)
    assert is_cb(pts, 3).verdict
    for pl in cfg.planes:
        on_plane = PointSet(gf101, 5, tuple(pt for pt in pts if pl.contains(pt)))
        assert len(on_plane) == 8
        # conic certificate: 8 coplanar points imposing only 5 conditions on
        # quadrics, with no 3 collinear
        assert rank(eval_matrix(on_plane, 2).rows, gf101) == 5
        rows = on_plane.coord_rows()
        for tri in itertools.combinations(range(8), 3):
            assert rank([rows[i] for i in tri], gf101) == 3


def test_two_plane_conics_shapes(gf101):
    pts, cfg = gen_two_plane_conics(1, gf101, seed=9)
    assert len(pts) == 2 and is_split(cfg)


def test_plane_curve_ci_counts_and_cb(gf101):
    for (a, b), r in (((2, 2), 1), ((2, 3), 2), ((3, 3), 3), ((1, 3), 1)):
        ps = gen_plane_curve_ci(a, b, gf101, seed=11)
        assert len(ps) == a * b
        assert is_cb(ps, r).verdict, (a, b)


def test_plane_curve_ci_rejects(gf101):
    with pytest.raises(ValueError):
        gen_plane_curve_ci(1, 1, gf101, seed=0)  # degree r would be negative
    with pytest.raises(ValueError):
        gen_plane_curve_ci(4, 4, gf101, seed=0)  # no certificate at this size
    with pytest.raises(InvalidFieldError):
        gen_plane_curve_ci(2, 2, FieldSpec.rational(), seed=0)
    with pytest.raises(FieldTooSmallError):
        gen_plane_curve_ci(3, 3, FieldSpec.prime(2), seed=0)  # 8 base points, 7 in P^2


def _outcome(make):
    try:
        return make().to_json()
    except CbLabError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("pair", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 2), (3, 3)])
def test_plane_curve_ci_matches_whole_curve_scan(pair):
    # p = 2 has no smooth conics, p + 1 < lo*hi rejects before the draw, and
    # (1,4) at p = 3 and (2,4) at p = 7 have p + 1 == lo*hi: draw, then reject.
    # (3,3) over GF(2) fails its size check before any draw (test_plane_curve_ci_rejects).
    for p in (2, 3, 5, 7, 11, 13, 101):
        if pair == (3, 3) and p == 2:
            continue
        field = FieldSpec.prime(p)
        for seed in range(50):
            got = _outcome(lambda: gen_plane_curve_ci(*pair, field, seed))
            want = _outcome(lambda: plane_curve_ci_by_scan(*pair, field, seed))
            assert got == want, (pair, p, seed)


# sha256 of the output bytes, recorded from the whole-curve scan (about 2.5 s each).
_LARGE_PRIME_CI = {
    (2, 3): "f8ea016e87f3fafb03849488c13369ac294a875f8efab3c28f4a47c866afff20",
    (1, 4): "7fb0116cd6e0d3bbd4da79c97e194b3bd9caf09f2e74e7a6ee3e64255eaee87f",
}


@pytest.mark.parametrize("pair", list(_LARGE_PRIME_CI))
def test_plane_curve_ci_large_prime_is_fast(pair):
    start = time.perf_counter()
    ps = gen_plane_curve_ci(*pair, FieldSpec.prime(100003), seed=1)
    assert time.perf_counter() - start < 0.5
    assert hashlib.sha256(_pointset_bytes(ps).encode()).hexdigest() == _LARGE_PRIME_CI[pair]


def test_cubic_pencil_large_prime_is_fast():
    start = time.perf_counter()
    ps = gen_plane_curve_ci(3, 3, FieldSpec.prime(100003), seed=1)
    assert time.perf_counter() - start < 0.5
    assert len(ps) == 9 and is_cb(ps, 3).verdict


_PENCIL_SEEDS = {2: 150, 3: 150, 5: 150, 7: 150, 11: 150, 13: 150, 101: 30}


@pytest.mark.parametrize("deg", [2, 3])
def test_pencil_draws_match_whole_plane_scan(deg):
    # _pencil_ci stops after deg*deg + 1 zeros, enough to reject the draw.
    for p, seeds in _PENCIL_SEEDS.items():
        if deg == 3 and p == 2:
            continue
        field = FieldSpec.prime(p)
        for seed in range(seeds):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            for _ in range(2):
                got = _pencil_ci(deg, field, got_rng)
                want = pencil_ci_by_scan(deg, field, want_rng)
                if want is None:
                    assert got is None, (p, deg, seed)
                else:
                    assert got == want[: deg * deg + 1], (p, deg, seed)
                assert got_rng.getstate() == want_rng.getstate()


def _forms_through(coords, deg, field, rng):
    """Two random independent degree-deg forms vanishing at every listed point."""
    basis = monomial_basis(2, deg)
    ker = kernel([evaluation_row(c, basis, field) for c in coords], len(basis), field)
    assert len(ker) >= 2
    while True:
        f, g = (combine([rng.randrange(field.p) for _ in ker], ker, field) for _ in range(2))
        if rank([f, g], field) == 2:
            return f, g


def _points_of_line(a, b, field):
    return [combine(c, [a, b], field) for c in _prime_coeff_tuples(field.p, 2)]


@pytest.mark.parametrize("p", [5, 7, 11, 101])
@pytest.mark.parametrize("deg", [2, 3])
def test_common_zeros_forced_cases(p, deg):
    field = FieldSpec.prime(p)
    rng = random.Random(p * 10 + deg)
    cases = {
        # both curves through (0:0:1): R is identically zero
        "through-001": [(0, 0, 1), (1, 2, 3)],
        # a shared line, one not through (0:0:1) and one through it (the
        # slice x1 = 3 x0 is then zero on both curves)
        "shared-line": _points_of_line((1, 0, 4), (0, 1, 2), field),
        "shared-slice": _points_of_line((1, 3, 0), (0, 0, 1), field),
        # two common zeros on slice 3: the gcd there has degree two
        "two-on-a-slice": [(1, 3, 1), (1, 3, 4), (1, 4, 2)],
    }
    for name, coords in cases.items():
        for _ in range(3):
            f, g = _forms_through(coords, deg, field, rng)
            got = list(_common_zeros(f, g, deg, p))
            want = [pt.coords for pt in common_zeros_by_scan(f, g, deg, field)]
            assert got == want, (name, f, g)
            assert {tuple(c) for c in coords} <= set(got)
            if name == "through-001":
                assert _slice_table(f, deg)[deg][0] == _slice_table(g, deg)[deg][0] == 0


def _sliced_zeros_input(call):
    """The (tables, res) that call() hands to _sliced_zeros, which visits nothing."""
    got = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "_sliced_zeros",
                   lambda tables, p, res=(): got.append((tables, res)) or ())
        list(call())
    return got[0]


def _form_vec(table, deg):
    """The coefficient vector over monomial_basis(2, deg) of a slice table."""
    return [table[e2][e1] for _, e1, e2 in monomial_basis(2, deg).monomials]


def _random_form(deg, rng, p):
    return [[rng.randrange(p) for _ in range(deg - k + 1)] for k in range(deg + 1)]


def _stripped_degree(tables, deg):
    """The formal degree in y left once leading coefficients zero in both go (n >= 1)."""
    n = deg
    while n > 1 and not any(tables[0][n]) and not any(tables[1][n]):
        n -= 1
    return n


def _assert_equal_up_to_sign(got, want, p, label):
    assert got in (want, [-w % p for w in want]), (label, got, want)


def _pencil_resultant_cases(deg, rng, p):
    """Slice-table pairs: random, through (0:0:1), a shared line (through
    (0:0:1) or not), and leading forms in y that vanish on one or on both."""
    def rand():
        return _random_form(deg, rng, p)

    def times(line):
        return _form_mul(line, _random_form(deg - 1, rng, p))

    def without_rows(t, *ks):
        return [[0] * len(row) if k in ks else row for k, row in enumerate(t)]

    line = [[rng.randrange(p), rng.randrange(p)], [rng.randrange(p)]]
    slice_line = [[rng.randrange(p), 1], [0]]  # x1 = c x0, through (0:0:1)
    return {
        "random": (rand(), rand()),
        "through-001": (without_rows(rand(), deg), without_rows(rand(), deg)),
        "shared-line": (times(line), times(line)),
        "shared-slice-line": (times(slice_line), times(slice_line)),
        "one-leading-zero": (without_rows(rand(), deg), rand()),
        "two-leading-zero": (without_rows(rand(), deg, deg - 1),
                             without_rows(rand(), deg, deg - 1)),
        "x2-free": (without_rows(rand(), *range(1, deg + 1)),
                    without_rows(rand(), *range(1, deg + 1))),
    }


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101])
@pytest.mark.parametrize("deg", [2, 3])
def test_pencil_resultant_matches_sylvester(p, deg):
    # R(1, a) from the Bezout determinant against the Sylvester resultant of
    # the two restrictions at every a, at the formal degree left after
    # dropping the leading coefficients that vanish on both
    field = FieldSpec.prime(p)
    rng = random.Random(p * 10 + deg)
    stripped = set()
    for _ in range(3 if p > 11 else 8):
        for name, tables in _pencil_resultant_cases(deg, rng, p).items():
            f, g = (_form_vec(t, deg) for t in tables)
            tables, res = _sliced_zeros_input(lambda: _common_zeros(f, g, deg, p))
            n = _stripped_degree(tables, deg)
            stripped.add((name, n))
            got = [gfpoly.evaluate(res, a, p) for a in range(p)]
            want = [sylvester_resultant(*(r[:n + 1] for r in generators._restrict(tables, a, p)),
                                        field) for a in range(p)]
            _assert_equal_up_to_sign(got, want, p, (name, tables))
    assert {("through-001", deg - 1), ("two-leading-zero", 1), ("x2-free", 1),
            ("random", deg)} <= stripped


def test_cubic_pencil_through_001_restricts_few_slices(monkeypatch):
    # x0 (x0 - x2)(x0 - 2 x2) and x1 (x1 - x2)(x1 - 3 x2) meet in the 9 points
    # (a : b : 1), a in {0, 1, 2} and b in {0, 1, 3}, (0:0:1) among them.  Their
    # resultant at formal degree 3 is zero: without dropping its zero leading
    # coefficients the draw would restrict to all p slices
    p, deg = 100003, 3
    f, g = ([c % p for c in _form_vec(reduce(_form_mul, lines), deg)] for lines in (
        ([[1, 0], [0]], [[1, 0], [-1]], [[1, 0], [-2]]),
        ([[0, 1], [0]], [[0, 1], [-1]], [[0, 1], [-3]])))
    calls = {}
    _count_calls(monkeypatch, generators, "_restrict", calls)
    got = list(_common_zeros(f, g, deg, p))
    assert calls["_restrict"] <= deg * deg + 1
    field = FieldSpec.prime(p)
    want = {ProjPoint(field, (a, b, 1)).coords for a in (0, 1, 2) for b in (0, 1, 3)}
    assert len(got) == 9 and set(got) == want


def _form_value(table, x, p):
    """The form with the given full slice table at x = (x0, x1, x2), mod p."""
    deg = len(table) - 1
    x0, x1, x2 = x
    return sum(c * x0 ** (deg - k - j) * x1 ** j * x2 ** k
               for k, row in enumerate(table) for j, c in enumerate(row)) % p


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_quartic_resultant_matches_sylvester(p):
    # Res_w(q1, q2) from the Bezout determinant against the Sylvester resultant
    # in w of q1(x, w) and q2(x, w) at random prefixes x, at formal degree 2,
    # or 1 when alpha1 = alpha2 = 0 (with beta1 = beta2 = 0 too in two-cones-0001)
    field = FieldSpec.prime(p)
    sqrts = _sqrt_table(p)
    rng = random.Random(p)
    for _ in range(10):
        for name, (q1, q2) in _quadric_pair_cases(p, rng).items():
            [table], _ = _sliced_zeros_input(lambda: _sliced_curve(q1, q2, p, sqrts))
            n = 1 if q1[9] == q2[9] == 0 else 2
            prefixes = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(20)]
            got = [_form_value(table, x, p) for x in prefixes]
            want = [sylvester_resultant(*([c % p for c in _split_quadric(q, *x)[::-1][:n + 1]]
                                          for q in (q1, q2)), field) for x in prefixes]
            _assert_equal_up_to_sign(got, want, p, (name, q1, q2))


def test_elliptic_quartic(gf101):
    ps = gen_elliptic_quartic(9, gf101, seed=2)
    assert len(ps) == 9 and ps.ambient_dim == 3
    small = gen_elliptic_quartic(4, gf101, seed=2)
    assert len(small) == 4
    rows = ps.coord_rows()
    for tri in itertools.combinations(range(9), 3):
        assert rank([rows[i] for i in tri], gf101) == 3  # no 3 collinear


def test_elliptic_quartic_points_on_two_quadrics(gf101):
    # the sampled points impose dependent conditions: two independent
    # quadrics (the defining pair) survive in the kernel
    ps = gen_elliptic_quartic(9, gf101, seed=2)
    m = eval_matrix(ps, 2)
    assert len(kernel(m.rows, m.ncols, gf101)) >= 2


def test_on_configuration(gf101):
    line = span([p for p in PointSet.from_coords(gf101, [[1, 0, 0], [0, 1, 0]])])
    cfg = PlaneConfiguration((line,))
    ps = gen_on_configuration(cfg, (4,), gf101, seed=6)
    assert len(ps) == 4 and span(list(ps)).dim == 1
    pts, cfg2 = gen_skew_lines(2, (2, 2), gf101, seed=3)
    sampled = gen_on_configuration(cfg2, (2, 2), gf101, seed=8)
    assert verify_cover(sampled, cfg2)
    plane = span(list(PointSet.from_coords(gf101, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])))
    cfg3 = PlaneConfiguration((plane,))
    a = gen_on_configuration(cfg3, (7,), gf101, seed=5)
    b = gen_on_configuration(cfg3, (7,), gf101, seed=5)
    assert _pointset_bytes(a) == _pointset_bytes(b)


def test_on_configuration_field_too_small():
    gf3 = FieldSpec.prime(3)
    line = span(list(PointSet.from_coords(gf3, [[1, 0, 0], [0, 1, 0]])))
    with pytest.raises(FieldTooSmallError):
        gen_on_configuration(PlaneConfiguration((line,)), (5,), gf3, seed=1)


def test_tightness_pair_quick(gf101):
    # (d, r) = (1, 2): 6 points on a conic are CB(2) but never on one line
    gamma = gen_rnc(2, 6, gf101, seed=13)
    assert is_cb(gamma, 2).verdict
    res = exists_cover(gamma, 1, 1)
    assert not res.found and res.proof_of_minimality


def test_genspec_validation(gf101):
    with pytest.raises(ValueError):
        GenSpec.make("unknown_family", {}, gf101, 0)
    spec = GenSpec.make("on_configuration", {"counts": [2]}, gf101, 0)
    with pytest.raises(ValueError):
        generate(spec)  # missing embedded configuration


def _brute_quadric_points(q, field):
    basis = monomial_basis(3, 2)
    return {pt.coords for pt in enumerate_points(field, 3) if evaluate_form(q, basis, pt) == 0}


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_quadric_points_closed_form_matches_brute_force(p):
    field = FieldSpec.prime(p)
    rng = random.Random(p)
    quadrics = [tuple(rng.randrange(p) for _ in range(10)) for _ in range(6)]
    # alpha = q[9] = 0; beta = 0 (no x0x3, x1x3, x2x3 terms); and both
    quadrics += [q[:9] + (0,) for q in quadrics[:3]]
    quadrics += [q[:3] + (0,) + q[4:6] + (0,) + q[7:8] + (0,) + q[9:] for q in quadrics[:3]]
    quadrics += [(0, 1, 0, 0, 0, 0, 0, 1, 0, 0), (0,) * 9 + (1,), (0, 0, 0, 1) + (0,) * 6]
    for q in quadrics:
        pts = quadric_points_by_scan(q, field)
        assert len(pts) == len(set(pts))
        assert set(pts) == _brute_quadric_points(q, field), q


def _product_quadric(u, v):
    """The coefficients of the quadric u.x * v.x in monomial_basis(3, 2) order."""
    return tuple(u[i] * v[j] + (u[j] * v[i] if i != j else 0)
                 for i, j in itertools.combinations_with_replacement(range(4), 2))


def _no_beta(q):
    """q without its x0x3, x1x3, x2x3 terms (beta = 0)."""
    return q[:3] + (0,) + q[4:6] + (0,) + q[7:8] + (0,) + q[9:]


def _quadric_pair_cases(p, rng):
    """Random quadric pairs, and pairs forced into each special case of the
    resultant and of the solve for w."""
    def rand():
        return tuple(rng.randrange(p) for _ in range(10))

    def lin():
        return [rng.randrange(p) for _ in range(4)]

    def combined(q, c, r):
        return tuple((a + c * b) % p for a, b in zip(q, r))

    q, plane = rand(), lin()
    # u1 u2 - u3 u4 is smooth and split when the u_i are independent; it holds
    # the lines u1 = u3 = 0 and u1 = u4 = 0, one of each ruling
    u1, u2, u3, u4 = (lin() for _ in range(4))
    split = combined(_product_quadric(u1, u2), -1, _product_quadric(u3, u4))
    return {
        "random": (rand(), rand()),
        "alpha1-zero": (rand()[:9] + (0,), rand()),
        "alpha2-zero": (rand(), rand()[:9] + (0,)),
        "both-alpha-zero": (rand()[:9] + (0,), rand()[:9] + (0,)),
        "beta1-zero": (_no_beta(rand()), rand()),
        "proportional": (q, tuple(c * 3 % p for c in q)),
        "shared-plane": (_product_quadric(plane, lin()), _product_quadric(plane, lin())),
        # cones with vertex (0:0:0:1) (no x3 terms) and (1:0:0:0) (no x0 terms)
        "cone-0001": (_no_beta(rand()[:9] + (0,)), rand()),
        "two-cones-0001": (_no_beta(rand()[:9] + (0,)), _no_beta(rand()[:9] + (0,))),
        "cone-1000": ((0, 0, 0, 0) + rand()[4:], rand()),
        # two cones: only some q1 + l q2 with l != 0 can be smooth
        "split-only-at-lambda": (_no_beta(rand()[:9] + (0,)), (0, 0, 0, 0) + rand()[4:]),
        # q2 = u1 l + c u3 u4 holds both lines of split, so the curve does
        "ruling-line": (split, combined(_product_quadric(u1, lin()), rng.randrange(1, p),
                                        _product_quadric(u3, u4))),
        "split-proportional": (split, tuple(c * 3 % p for c in split)),
    }


_QUADRIC_PAIRS = {3: 30, 5: 30, 7: 20, 11: 15, 13: 10, 31: 3, 101: 1}


@pytest.mark.parametrize("p", list(_QUADRIC_PAIRS))
def test_quadric_curve_matches_prefix_scan(p):
    field = FieldSpec.prime(p)
    sqrts = _sqrt_table(p)
    rng = random.Random(p)
    for _ in range(_QUADRIC_PAIRS[p]):
        for name, (q1, q2) in _quadric_pair_cases(p, rng).items():
            assert _quadric_curve(q1, q2, p, sqrts) == quadric_curve_by_scan(q1, q2, field), (
                name, q1, q2)


def _count_calls(monkeypatch, module, name, calls):
    """Count the calls of module.name in calls[name]; the last call's
    arguments go to calls[name + "-args"]."""
    real = getattr(module, name)
    calls[name] = 0

    def counted(*args):
        calls[name] += 1
        calls[name + "-args"] = args
        return real(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 101])
def test_elliptic_quartic_matches_prefix_scan(p, monkeypatch):
    # the generator as it is, then with its curve from the prefix scan: the
    # same bytes (or error) and the same state of its rng after the draws.
    # The smallest fields have few curve points: m = 4 gets past the count.
    field = FieldSpec.prime(p)
    m = 4 if p < 11 else 9
    calls = {}
    _count_calls(monkeypatch, generators, "_quartic_draw", calls)

    def runs():
        out = []
        for seed in range(50):
            result = _outcome(lambda: gen_elliptic_quartic(m, field, seed))
            out.append((result, calls["_quartic_draw-args"][2].getstate()))
        return out

    got = runs()
    monkeypatch.setattr(generators, "_quadric_curve",
                        lambda q1, q2, p, sqrts: quadric_curve_by_scan(q1, q2, field))
    for seed, (g, w) in enumerate(zip(got, runs())):
        assert g == w, (p, seed)
    assert dict in {type(result) for result, _ in got}


# sha256 of the output bytes, recorded from the prefix scan.
_LARGE_PRIME_QUARTIC = "f24530241991f2e4ae23d89acc97c91febf97ca52c28b22183281be72ad28d4a"


def test_elliptic_quartic_large_prime_is_fast(monkeypatch):
    # every draw's pencil has a smooth split member, so each curve is listed
    # along a ruling with p + 1 binary quadratics: no root finding, and no
    # solve for w over the p^2 + p + 1 prefixes
    p = 1009
    sqrts = _sqrt_table(p)
    pencils = []
    real_curve = generators._quadric_curve

    def curve(q1, q2, p, sqrts):
        pencils.append((q1, q2))
        return real_curve(q1, q2, p, sqrts)

    monkeypatch.setattr(generators, "_quadric_curve", curve)
    calls = {}
    for module, name in ((generators, "_w_roots"), (gfpoly, "roots")):
        _count_calls(monkeypatch, module, name, calls)
    ps = gen_elliptic_quartic(9, FieldSpec.prime(p), seed=1)
    assert pencils and all(_split_member(q1, q2, p, sqrts) for q1, q2 in pencils)
    assert calls["roots"] == 0
    assert calls["_w_roots"] <= (p + 1) * len(pencils)
    assert hashlib.sha256(_pointset_bytes(ps).encode()).hexdigest() == _LARGE_PRIME_QUARTIC


def test_quadric_curve_path_follows_the_pencil(monkeypatch):
    # a pencil with a smooth split member is listed along a ruling, without
    # root finding, and one with none (all members cones or plane pairs) is
    # sliced; a line of the ruling in the curve is a vanishing binary quadratic
    p = 101
    sqrts = _sqrt_table(p)
    cases = _quadric_pair_cases(p, random.Random(p))
    calls, full_lines = {}, []
    for module, name in ((gfpoly, "roots"), (generators, "_sliced_zeros")):
        _count_calls(monkeypatch, module, name, calls)
    real_roots = generators._binary_roots

    def binary_roots(a, b, c, p, sqrts):
        roots = real_roots(a, b, c, p, sqrts)
        full_lines.append(len(roots) == p + 1)
        return roots

    monkeypatch.setattr(generators, "_binary_roots", binary_roots)

    def run(name):
        calls.update(roots=0, _sliced_zeros=0)
        full_lines.clear()
        _quadric_curve(*cases[name], p, sqrts)
        return calls["roots"], calls["_sliced_zeros"]

    for name in ("random", "split-only-at-lambda", "ruling-line", "split-proportional"):
        assert run(name) == (0, 0), name
        assert any(full_lines) == (name in ("ruling-line", "split-proportional")), name
    assert _split_member(*cases["split-only-at-lambda"], p, sqrts)[0] not in cases[
        "split-only-at-lambda"]
    for name in ("shared-plane", "two-cones-0001"):
        assert _split_member(*cases[name], p, sqrts) is None
        assert run(name)[1] == 1, name


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_three_collinear_matches_pair_scan(p):
    field = FieldSpec.prime(p)
    sqrts = _sqrt_table(p)
    rng = random.Random(p)
    outcomes = set()
    leads = set()  # the index of each curve point's leading 1, where the cross product drops it
    for i in range(120):
        q1, q2 = (tuple(rng.randrange(p) for _ in range(10)) for _ in range(2))
        if i % 3 == 0:  # no x0^2, x0x1, x1^2 terms: both contain the line x2 = x3 = 0
            q1, q2 = ((0, 0) + q[2:4] + (0,) + q[5:] for q in (q1, q2))
        elif i % 3 == 1:  # no x3 terms in q1: a cone with vertex (0:0:0:1)
            q1 = q1[:3] + (0,) + q1[4:6] + (0,) + q1[7:8] + (0, 0)
        if not any(q1) or not any(q2):
            continue
        curve = [ProjPoint(field, x) for x in _quadric_curve(q1, q2, p, sqrts)]
        got = _has_three_collinear([pt.coords for pt in curve], q1, q2, field)
        assert got == has_three_collinear_by_pairs(curve, field), (q1, q2)
        outcomes.add(got)
        leads.update(pt.coords.index(1) for pt in curve)
    assert outcomes == {True, False}
    assert leads > {0}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_proportional_pencil_collinearity_is_read_from_the_quadric(p):
    # q2 = c q1 makes the curve the whole quadric q1 = 0: smooth ones, cones
    # (no x3 terms) and plane pairs, against every c
    field = FieldSpec.prime(p)
    sqrts = _sqrt_table(p)
    rng = random.Random(27 + p)
    outcomes = set()
    for i in range(30):
        q1 = tuple(rng.randrange(p) for _ in range(10))
        if i % 3 == 1:
            q1 = _no_beta(q1[:9] + (0,))
        elif i % 3 == 2:
            q1 = tuple(c % p for c in _product_quadric(*([rng.randrange(p) for _ in range(4)]
                                                          for _ in range(2))))
        if not any(q1):
            continue
        curve = [ProjPoint(field, x) for x in _quadric_curve(q1, q1, p, sqrts)]
        expect = has_three_collinear_by_pairs(curve, field)
        for c in range(1, p):
            q2 = tuple(c * a % p for a in q1)
            got = _has_three_collinear([pt.coords for pt in curve], q1, q2, field)
            assert got == expect, (q1, c)
        outcomes.add((expect, _gram_det(q1, p) == 0))
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_proportional_pencils_at_p101_are_decided_at_once():
    # the scan would compare the lines through each of ~p^2 points
    p = 101
    cases = _quadric_pair_cases(p, random.Random(p))
    for name, expect in (("proportional", False), ("split-proportional", True)):
        q1, q2 = cases[name]
        curve = _quadric_curve(q1, q2, p, _sqrt_table(p))
        start = time.perf_counter()
        assert _has_three_collinear(curve, q1, q2, FieldSpec.prime(p)) is expect
        assert time.perf_counter() - start < 1.0, name


def _pencils(p, rng, rounds, randoms):
    """(name, (q1, q2)): the _quadric_pair_cases of rounds draws, each with
    u a + v b and the plane pair u v (both hold the line u = v = 0, and
    det(M1 + l M2) has a multiple root at l = infinity), then randoms random
    pencils."""
    for _ in range(rounds):
        yield from _quadric_pair_cases(p, rng).items()
        u, v, a, b = ([rng.randrange(p) for _ in range(4)] for _ in range(4))
        q1 = tuple(x + y for x, y in zip(_product_quadric(u, a), _product_quadric(v, b)))
        yield "line-in-plane-pair", (q1, _product_quadric(u, v))
    for _ in range(randoms):
        yield "random", tuple(tuple(rng.randrange(p) for _ in range(10)) for _ in range(2))


@pytest.mark.parametrize("p", [5, 7, 101])
def test_pencil_discriminant_matches_leibniz(p):
    # also a pencil with a plane pair q2 = u.x v.x, of rank 2: a double root
    # at l = infinity, so deg g = 2
    rng = random.Random(p)
    degrees = set()
    for name, (q1, q2) in _pencils(p, rng, 5, 20):
        pair = _product_quadric(*([rng.randrange(p) for _ in range(4)] for _ in range(2)))
        for pencil in ((q1, q2), (q1, pair)):
            g = _pencil_discriminant(*pencil, p)
            assert g == pencil_discriminant_by_leibniz(*pencil, p), (name, pencil)
            degrees.add(len(g) - 1)
            if len(g) < 4:  # a multiple root at infinity
                assert not _is_smooth_pencil(*pencil, p), (name, pencil)
    assert {-1, 2, 3, 4} <= degrees


@pytest.mark.parametrize("p", [5, 7, 101])
def test_smooth_pencil_curve_has_no_three_collinear(p):
    field = FieldSpec.prime(p)
    sqrts = _sqrt_table(p)
    smooth_seen = set()
    for name, (q1, q2) in _pencils(p, random.Random(p), *((4, 60) if p < 101 else (1, 8))):
        smooth = _is_smooth_pencil(q1, q2, p)
        smooth_seen.add(smooth)
        if smooth:
            curve = [ProjPoint(field, x) for x in _quadric_curve(q1, q2, p, sqrts)]
            assert not has_three_collinear_by_pairs(curve, field), (name, q1, q2)
    assert smooth_seen == {True, False}


class _ScriptedPencil(random.Random):
    """A Random whose randrange draws are the coefficients of q1, then q2."""

    def __init__(self, q1, q2):
        super().__init__(0)
        self._coeffs = iter(q1 + q2)

    def randrange(self, *args):
        return next(self._coeffs)


def test_collinearity_scan_runs_where_smoothness_is_not_certified(monkeypatch):
    # singular pencils at p = 11
    calls = {}
    _count_calls(monkeypatch, generators, "_has_three_collinear", calls)
    for p, names in ((11, ("shared-plane", "two-cones-0001", "proportional", "ruling-line",
                           "split-proportional")), (101, ("random",))):
        cases = _quadric_pair_cases(p, random.Random(p))
        for name in names:
            calls["_has_three_collinear"] = 0
            _quartic_draw(1, FieldSpec.prime(p), _ScriptedPencil(*cases[name]), _sqrt_table(p))
            assert calls["_has_three_collinear"] == (name != "random"), (p, name)
    # over GF(3) every draw whose curve has m = 4 points reaches the scan
    reached = []
    real_curve = generators._quadric_curve

    def curve(q1, q2, p, sqrts):
        pts = real_curve(q1, q2, p, sqrts)
        reached.append(len(pts) >= 4)
        return pts

    monkeypatch.setattr(generators, "_quadric_curve", curve)
    calls["_has_three_collinear"] = 0
    for seed in range(20):
        _outcome(lambda: gen_elliptic_quartic(4, FieldSpec.prime(3), seed))
    assert calls["_has_three_collinear"] == sum(reached) > 0


@pytest.mark.parametrize("p", [5, 7, 101])
def test_smooth_pencil_skip_keeps_the_bytes(p, monkeypatch):
    # the draws with the scan run on every pencil give the same points
    field = FieldSpec.prime(p)
    m = 4 if p < 11 else 9

    def runs():
        return [_outcome(lambda: gen_elliptic_quartic(m, field, seed)) for seed in range(30)]

    got = runs()
    monkeypatch.setattr(generators, "_is_smooth_pencil", lambda q1, q2, p: False)
    assert got == runs()


def test_line_key_matches_rref_key():
    field = FieldSpec.prime(5)
    rng = random.Random(3)
    pts = enumerate_points(field, 3)
    pairs = [tuple(rng.sample(pts, 2)) for _ in range(150)]
    # pairs on a few shared lines, so that equal keys occur
    for a, b in pairs[:10]:
        on_line = [ProjPoint(field, combine((1, t), [a.coords, b.coords], field)) for t in range(5)]
        pairs += list(itertools.combinations(on_line, 2))
    pk = [_line_key(a.coords, b.coords, field.p) for a, b in pairs]
    rk = [tuple(rref([a.coords, b.coords], field)[0]) for a, b in pairs]
    assert len(set(pk)) == len(set(rk)) < len(pairs)
    for i, j in itertools.combinations(range(len(pairs)), 2):
        assert (pk[i] == pk[j]) == (rk[i] == rk[j])


def _assert_distinct_points_of_one_conic(point, count, field):
    pts = [point(i) for i in range(count)]
    assert pts[0].coords == (1, 0, 0)
    gamma = PointSet(field, 2, tuple(pts))  # rejects repeated points
    m = eval_matrix(gamma, 2)
    assert len(kernel(m.rows, m.ncols, field)) == 1


@pytest.mark.parametrize("field", [FieldSpec.prime(7), FieldSpec.prime(11), FieldSpec.rational()],
                         ids=str)
def test_conic_indices_are_distinct_points_of_one_conic(field):
    count = field.p + 1 if field.is_prime_field else 12
    for seed in range(6):
        try:
            point = _conic_through_origin_point(field, random.Random(seed))
        except DegenerateConicError:
            continue
        _assert_distinct_points_of_one_conic(point, count, field)


class _ScriptedRandom:
    """Hands out the given values as the next randint draws."""

    def __init__(self, values):
        self._values = iter(values)

    def randint(self, lo, hi):
        return next(self._values)


# (b, c, dd, e, f) with the tangent slope -b/c = 2, -3, 0 and none (c = 0)
@pytest.mark.parametrize("gram", [(2, -1, 1, 0, 1), (3, 1, 1, 0, 1), (0, 1, 1, 0, 1),
                                  (1, 0, 1, 0, 1)])
def test_conic_indices_skip_the_tangent_over_q(gram):
    field = FieldSpec.rational()
    point = _conic_through_origin_point(field, _ScriptedRandom(gram))
    _assert_distinct_points_of_one_conic(point, 12, field)


def test_two_plane_conics_large_prime_is_fast():
    start = time.perf_counter()
    pts, cfg = gen_two_plane_conics(3, FieldSpec.prime(100003), seed=1)
    assert time.perf_counter() - start < 1.0
    assert len(pts) == 6 and is_split(cfg)


def test_genspec_rejects_unknown_params(gf101):
    with pytest.raises(ValueError, match="typo_seed"):
        GenSpec.make("rnc", {"k": 2, "m": 3, "typo_seed": 4}, gf101, 0)
