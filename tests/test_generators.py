"""Example-family generators: determinism, certificates, structural checks."""

import hashlib
import itertools
import json
import random
import time

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
    rank_kernel,
    span,
    verify_cover,
)
from cb_lab.errors import (
    CbLabError,
    DegenerateConicError,
    FieldTooSmallError,
    InvalidFieldError,
)
from cb_lab.generators import (
    _conic_through_origin_point,
    _line_key,
    _quadric_points,
    _sqrt_table,
)
from cb_lab.linalg import combine, rank, rref

from helpers import plane_curve_ci_by_scan, rank_oracle


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
        assert rank_kernel(eval_matrix(on_plane, 2)).rank == 5
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


@pytest.mark.parametrize("pair", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
def test_plane_curve_ci_matches_whole_curve_scan(pair):
    # p = 2 has no smooth conics, p + 1 < lo*hi rejects before the draw, and
    # (1,4) at p = 3 and (2,4) at p = 7 have p + 1 == lo*hi: draw, then reject.
    for p in (2, 3, 5, 7, 11, 13, 101):
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
    assert rank_kernel(eval_matrix(ps, 2)).corank >= 2


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
    sqrts = _sqrt_table(p)
    for q in quadrics:
        pts = _quadric_points(q, field, sqrts)
        assert len(pts) == len(set(pts))
        assert set(pts) == _brute_quadric_points(q, field), q


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
    assert rank_kernel(eval_matrix(gamma, 2)).corank == 1


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
