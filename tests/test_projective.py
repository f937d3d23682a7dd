"""Points, flats, spans, intersections, configurations, hyperplane extension."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from cb_lab import (
    FieldSpec,
    Flat,
    PlaneConfiguration,
    PointSet,
    ProjPoint,
    apply_matrix,
    enumerate_points,
    extend_to_hyperplane,
    gen_rnc,
    intersect,
    is_skew,
    is_split,
    merge_intersecting,
    span,
)
from cb_lab.errors import DuplicatePointError, EmptyInputError, FieldTooSmallError
from cb_lab.linalg import in_row_space, primitive, reduce_against

from helpers import (
    in_span_by_fractions,
    intersection_dim_oracle,
    mixed_rational_point_set,
    random_point_set,
    rank_oracle,
)


def _line(field, a, b):
    return span([ProjPoint(field, a), ProjPoint(field, b)])


def test_point_normalization(gf7):
    pt = ProjPoint(gf7, (0, 3, 5))
    assert pt.coords[1] == 1  # scaled by inv(3) = 5
    assert pt.coords == (0, 1, 4)
    q = FieldSpec.rational()
    pt2 = ProjPoint(q, (Fraction(2), Fraction(4), Fraction(-6)))
    assert pt2.coords == (1, 2, -3)
    with pytest.raises(ValueError):
        ProjPoint(gf7, (0, 0, 0))


def _big_fraction(rng):
    return Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))


def test_point_ints_is_the_primitive_vector(gf7):
    q = FieldSpec.rational()
    for raw, want in (
        ((2, 4, 6), (1, 2, 3)),
        ((-2, 4, 6), (1, -2, -3)),
        ((Fraction(-1, 2), 1), (1, -2)),
        ((0, Fraction(-3, 4), Fraction(9, 8)), (0, 2, -3)),
        (("0", "-5/3", "10"), (0, 1, -6)),
    ):
        assert ProjPoint(q, raw).ints == want
    rng = random.Random(17)
    for _ in range(300):
        raw = [_big_fraction(rng) if rng.random() < 0.8 else 0 for _ in range(rng.randint(1, 6))]
        if not any(raw):
            continue
        pt = ProjPoint(q, raw)
        ints = pt.ints
        assert all(type(x) is int for x in ints)
        assert ints == primitive(pt.coords)
        assert math.gcd(*ints) == 1 and next(x for x in ints if x) > 0
        # Scaled by a negative or fractional factor, or given as ints: one point.
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
        for again in (ProjPoint(q, [scale * x for x in raw]),
                      ProjPoint(q, [-3 * x for x in ints])):
            assert again == pt and again.ints == ints
    assert ProjPoint(gf7, (0, 3, 5)).ints == (0, 1, 4)  # over GF(p), the residues
    assert ProjPoint(gf7, (0, -4, Fraction(5))).ints == (0, 1, 4)


def test_flat_contains_on_integers_matches_fraction_oracle():
    q = FieldSpec.rational()
    rng = random.Random(29)
    seen = set()
    for n in range(1, 6):
        for dim in range(n):
            for _ in range(6):
                gens = [[_big_fraction(rng) for _ in range(n + 1)] for _ in range(dim + 1)]
                flat = Flat.from_generators(q, n, gens)
                ints, piv = flat._int_basis, flat.pivot_cols
                d = ints[0][piv[0]]
                assert all(row[c] == d for row, c in zip(ints, piv))
                coeffs = [_big_fraction(rng) or 1 for _ in gens]
                on = [sum(c * row[j] for c, row in zip(coeffs, gens)) for j in range(n + 1)]
                off = [[_big_fraction(rng) for _ in range(n + 1)] for _ in range(2)]
                for v in [on, *gens, *off]:
                    if not any(v):
                        continue
                    pt = ProjPoint(q, v)
                    want = in_span_by_fractions(pt.coords, gens)
                    seen.add(want)
                    assert flat.contains(pt) == want
                    assert in_row_space(pt.ints, ints, piv, q) == want
                    assert in_row_space(pt.coords, flat.basis, piv, q) == want
                    # The integer residual is D times the Fraction one.
                    assert reduce_against(pt.ints, ints, piv, q) == [
                        d * x for x in reduce_against(pt.ints, flat.basis, piv, q)
                    ]
                assert flat.contains_flat(span([ProjPoint(q, on), ProjPoint(q, gens[0])]))
    assert seen == {True, False}


def test_point_set_rejects_duplicates(gf7):
    q = FieldSpec.rational()
    for field, a, b in ((gf7, (1, 2, 3), (2, 4, 6)), (q, (1, 2, 3), (2, 4, 6)),
                        (q, (1, -2), (Fraction(-1, 2), 1))):
        with pytest.raises(DuplicatePointError):
            PointSet.from_coords(field, [a, b])  # same point scaled


def test_span_two_points_is_line(gf101):
    fl = _line(gf101, (1, 0, 0, 0), (0, 1, 0, 0))
    assert fl.dim == 1


def test_span_idempotent_on_contained_point(gf101):
    fl = _line(gf101, (1, 0, 0, 0), (0, 1, 0, 0))
    pt = ProjPoint(gf101, (1, 5, 0, 0))
    assert fl.contains(pt)
    assert span([pt, fl]) == fl


def test_span_twisted_cubic_points(gf101):
    # 4 points on the twisted cubic; oracle: minor rank of the 4x4 matrix
    gamma = gen_rnc(3, 4, gf101, seed=12)
    rows = gamma.coord_rows()
    assert rank_oracle(rows, gf101) == 4
    assert span(list(gamma)).dim == 3


def test_intersect_self(gf101):
    fl = _line(gf101, (1, 0, 0, 0), (0, 1, 0, 0))
    assert intersect(fl, fl) == fl


def test_intersect_generic_lines_empty(gf101):
    rng = random.Random(77)
    empties = 0
    for _ in range(20):
        l1 = _line(gf101, [rng.randrange(101) for _ in range(4)],
                   [rng.randrange(101) for _ in range(4)])
        l2 = _line(gf101, [rng.randrange(101) for _ in range(4)],
                   [rng.randrange(101) for _ in range(4)])
        if l1.dim != 1 or l2.dim != 1:
            continue
        got = intersect(l1, l2)
        # oracle: solve the 8-variable system for common cone vectors
        dim = intersection_dim_oracle(l1, l2)
        assert (got is None) == (dim == -1)
        if got is not None:
            assert got.dim == dim
        else:
            empties += 1
    assert empties >= 15  # generic lines in P^3 are disjoint


def test_two_lines_in_plane_meet(gf7):
    l1 = _line(gf7, (1, 0, 0), (0, 1, 0))
    l2 = _line(gf7, (1, 1, 1), (0, 1, 2))
    got = intersect(l1, l2)
    assert got is not None and got.dim == 0


def test_skew_not_split_three_lines_p4(gf101):
    rng = random.Random(5)
    while True:
        lines = []
        for _ in range(3):
            a = [rng.randrange(101) for _ in range(5)]
            b = [rng.randrange(101) for _ in range(5)]
            fl = span([ProjPoint(gf101, a), ProjPoint(gf101, b)])
            if fl.dim == 1:
                lines.append(fl)
        if len(lines) == 3 and len(set(lines)) == 3:
            cfg = PlaneConfiguration(tuple(lines))
            if is_skew(cfg):
                break
    assert is_skew(cfg)
    assert not is_split(cfg)  # their span would need dim 5 inside P^4


def test_two_disjoint_lines_split(gf101):
    l1 = _line(gf101, (1, 0, 0, 0), (0, 1, 0, 0))
    l2 = _line(gf101, (0, 0, 1, 0), (0, 0, 0, 1))
    cfg = PlaneConfiguration((l1, l2))
    assert is_skew(cfg) and is_split(cfg)


def test_meeting_lines_not_skew(gf101):
    l1 = _line(gf101, (1, 0, 0, 0), (0, 1, 0, 0))
    l2 = _line(gf101, (1, 0, 0, 0), (0, 0, 1, 0))
    cfg = PlaneConfiguration((l1, l2))
    assert not is_skew(cfg)


def test_merge_two_meeting_lines(gf101):
    l1 = _line(gf101, (1, 0, 0, 0), (0, 1, 0, 0))
    l2 = _line(gf101, (1, 0, 0, 0), (0, 0, 1, 0))
    merged = merge_intersecting(PlaneConfiguration((l1, l2)))
    assert merged.length == 1
    assert merged.planes[0].dim == 2
    assert merged.planes[0] == span([l1, l2])


def test_merge_already_skew_is_identity(gf101):
    l1 = _line(gf101, (1, 0, 0, 0), (0, 1, 0, 0))
    l2 = _line(gf101, (0, 0, 1, 0), (0, 0, 0, 1))
    cfg = PlaneConfiguration((l1, l2))
    assert merge_intersecting(cfg) == cfg


def test_merge_three_concurrent_lines(gf7):
    # all through [1:0:0] in P^2; pairwise spans are the whole plane
    l1 = _line(gf7, (1, 0, 0), (0, 1, 0))
    l2 = _line(gf7, (1, 0, 0), (0, 0, 1))
    l3 = _line(gf7, (1, 0, 0), (0, 1, 1))
    assert span([l1, l2]).dim == 2
    merged = merge_intersecting(PlaneConfiguration((l1, l2, l3)))
    assert merged.length == 1 and merged.dim == 2


def test_span_canonical_under_permutation(gf101):
    rng = random.Random(31)
    for _ in range(40):
        pts = list(random_point_set(gf101, 4, 5, rng))
        base = span(pts)
        rng.shuffle(pts)
        assert span(pts) == base
    q = FieldSpec.rational()
    for _ in range(20):
        pts = list(random_point_set(q, 3, 4, rng))
        base = span(pts)
        rng.shuffle(pts)
        assert span(pts) == base


def test_span_monotone(gf101):
    rng = random.Random(13)
    for _ in range(40):
        pts = list(random_point_set(gf101, 3, 6, rng))
        small = span(pts[:3])
        big = span(pts)
        assert big.contains_flat(small)


def test_dimension_formula_fuzz(gf7):
    # dim span(F1,F2) = dim F1 + dim F2 - dim(F1 meet F2), empty counted -1
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(2, 4)
        f1 = span(list(random_point_set(gf7, n, rng.randint(1, 3), rng)))
        f2 = span(list(random_point_set(gf7, n, rng.randint(1, 3), rng)))
        meet = intersect(f1, f2)
        meet_dim = -1 if meet is None else meet.dim
        assert span([f1, f2]).dim == f1.dim + f2.dim - meet_dim
        if meet is not None:
            assert f1.contains_flat(meet) and f2.contains_flat(meet)


def test_extend_to_hyperplane_basic(gf101):
    line = _line(gf101, (1, 0, 0, 0), (0, 1, 0, 0))
    gamma = PointSet.from_coords(
        gf101, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]]
    )
    h = extend_to_hyperplane(line, gamma)
    assert h.dim == 2  # hyperplane of P^3
    assert h.contains_flat(line)
    for pt in gamma:
        assert h.contains(pt) == line.contains(pt)


def test_extend_to_hyperplane_exhaustive_check_small_field():
    gf5 = FieldSpec.prime(5)
    rng = random.Random(8)
    for _ in range(25):
        pts = random_point_set(gf5, 3, 5, rng)
        line = span(list(pts)[:2])
        if line.dim != 1:
            continue
        try:
            h = extend_to_hyperplane(line, pts)
        except FieldTooSmallError:
            # oracle: confirm every hyperplane through the line hits the rest
            found = _hyperplane_scan(line, pts)
            assert found is None
            continue
        for pt in pts:
            assert h.contains(pt) == line.contains(pt)


def _hyperplane_scan(flat, gamma):
    """Exhaustive scan over hyperplanes through flat (small prime fields)."""
    from cb_lab.linalg import dot, kernel

    field = flat.field
    n = flat.ambient_dim
    ann = kernel(flat.basis, n + 1, field)
    outside = [pt for pt in gamma if not flat.contains(pt)]
    for coeffs in itertools.product(range(field.p), repeat=len(ann)):
        if all(c == 0 for c in coeffs):
            continue
        f = [field.zero()] * (n + 1)
        for c, row in zip(coeffs, ann):
            for j in range(n + 1):
                f[j] = field.add(f[j], field.mul(c, row[j]))
        if all(dot(f, pt.coords, field) != 0 for pt in outside):
            return f
    return None


def test_extend_to_hyperplane_field_too_small():
    gf2 = FieldSpec.prime(2)
    # point [1:0:0] in P^2(GF(2)); pick one extra point on each of the 3
    # hyperplanes (lines) through it: every extension must hit gamma.
    flat = Flat.from_generators(gf2, 2, [[1, 0, 0]])
    gamma = PointSet.from_coords(gf2, [[0, 1, 0], [0, 0, 1], [0, 1, 1]])
    assert _hyperplane_scan(flat, gamma) is None
    with pytest.raises(FieldTooSmallError):
        extend_to_hyperplane(flat, gamma)


def test_extend_to_hyperplane_rational():
    q = FieldSpec.rational()
    line = _line(q, (1, 0, 0, 0), (0, 1, 0, 0))
    gamma = PointSet.from_coords(q, [[0, 0, 1, 0], [0, 0, 1, 1], [1, 2, 3, 4]])
    h = extend_to_hyperplane(line, gamma)
    assert h.dim == 2 and h.contains_flat(line)
    for pt in gamma:
        assert h.contains(pt) == line.contains(pt)


def test_extend_hyperplane_empty_gamma(gf7):
    line = _line(gf7, (1, 0, 0), (0, 1, 0))
    h = extend_to_hyperplane(line, PointSet(gf7, 2, ()))
    assert h.dim == 1  # hyperplane of P^2 is a line
    assert h == line  # the only hyperplane containing a P^2-line is itself


def test_point_set_json_round_trip(gf101):
    rng = random.Random(44)
    gamma = random_point_set(gf101, 3, 6, rng)
    blob = json.dumps(gamma.to_json(), sort_keys=True)
    back = PointSet.from_json(json.loads(blob))
    assert back == gamma
    assert json.dumps(back.to_json(), sort_keys=True) == blob
    q = FieldSpec.rational()
    gq = random_point_set(q, 2, 5, rng)
    blob2 = json.dumps(gq.to_json(), sort_keys=True)
    assert json.dumps(PointSet.from_json(json.loads(blob2)).to_json(), sort_keys=True) == blob2



def test_json_rows_must_be_lists(gf101):
    # A string row would be read character by character, an object row key by key.
    q = FieldSpec.rational()
    for field, rows in ((gf101, ["123", "456"]), (q, [{"1": 0, "2": 0}])):
        obj = {"field": field.to_json(), "ambient_dim": 1 if field is q else 2, "points": rows}
        with pytest.raises(ValueError, match="malformed point set JSON"):
            PointSet.from_json(obj)
    with pytest.raises(ValueError, match="malformed flat JSON"):
        Flat.from_json(gf101, {"ambient_dim": 2, "basis": ["123"]})
    assert Flat.from_json(gf101, {"ambient_dim": 2, "basis": [["1", "2", "3"]]}).dim == 0


def test_flat_and_configuration_json_errors_are_typed(gf101):
    basis = [[1, 0, 0], [0, 1, 0]]
    for obj in ({"ambient_dim": 2}, {"basis": basis}, {"ambient_dim": "2", "basis": basis},
                {"ambient_dim": -1, "basis": basis}, {"ambient_dim": True, "basis": basis},
                {"ambient_dim": 2, "basis": 5}, 5):
        with pytest.raises(ValueError, match="malformed flat JSON"):
            Flat.from_json(gf101, obj)
    field = gf101.to_json()
    for obj in ({"field": field, "planes": 5}, {"field": field, "planes": "ab"},
                {"planes": []}, {"field": 5, "planes": []}, 5):
        with pytest.raises(ValueError, match="malformed plane configuration JSON"):
            PlaneConfiguration.from_json(obj)
    good = {"field": field, "planes": [{"ambient_dim": 2, "basis": basis}]}
    assert PlaneConfiguration.from_json(good).to_json()["planes"][0]["basis"] == basis


def test_enumerate_points_counts():
    assert len(enumerate_points(FieldSpec.prime(3), 2)) == 13
    assert len(enumerate_points(FieldSpec.prime(2), 3)) == 15
    assert len(enumerate_points(FieldSpec.prime(5), 1)) == 6
    pts = enumerate_points(FieldSpec.prime(3), 2)
    assert len({pt.coords for pt in pts}) == 13


def test_apply_matrix_invariance_shape(gf101):
    rng = random.Random(15)
    gamma = random_point_set(gf101, 2, 5, rng)
    from helpers import random_invertible_matrix

    mat = random_invertible_matrix(gf101, 2, rng)
    out = apply_matrix(gamma, mat)
    assert len(out) == len(gamma)
    with pytest.raises(ValueError):
        apply_matrix(gamma, [[1, 0, 0], [2, 0, 0], [0, 0, 1]])  # singular


def test_configuration_invariants(gf101):
    l1 = _line(gf101, (1, 0, 0, 0), (0, 1, 0, 0))
    pt_flat = Flat.from_generators(gf101, 3, [[1, 1, 1, 1]])
    with pytest.raises(ValueError):
        PlaneConfiguration((l1, pt_flat))  # 0-dimensional component
    with pytest.raises(ValueError):
        PlaneConfiguration((l1, l1))  # repeated plane
    with pytest.raises(EmptyInputError):
        PlaneConfiguration(())
    cfg = PlaneConfiguration((l1,))
    assert cfg.dim == 1 and cfg.length == 1


def test_span_empty_input():
    with pytest.raises(EmptyInputError):
        span([])


def test_span_errors_come_in_input_order_and_rows_are_the_integer_forms(gf7, gf101):
    a, b = ProjPoint(gf7, (1, 2, 3)), ProjPoint(gf101, (1, 2, 3))
    for objs, exc in (([a, "x"], TypeError), (["x", a], TypeError), ([a, b], ValueError),
                      ([a, ProjPoint(gf7, (1, 2)), "x"], ValueError), ([a, b, "x"], ValueError)):
        with pytest.raises(exc):
            span(objs)
    # Over Q a span of points and flats is the span of their Fraction rows.
    q = FieldSpec.rational()
    rng = random.Random(59)
    for _ in range(20):
        pts = list(mixed_rational_point_set(4, rng.randint(2, 5), rng))
        flat = span(pts[:2])
        rows = [pt.coords for pt in pts[2:]] + list(flat.basis)
        assert span(pts[2:] + [flat]) == Flat.from_generators(q, 4, rows)


def test_dimension_formula_rational():
    q = FieldSpec.rational()
    rng = random.Random(47)
    for _ in range(25):
        f1 = span(list(random_point_set(q, 3, rng.randint(1, 3), rng)))
        f2 = span(list(random_point_set(q, 3, rng.randint(1, 3), rng)))
        meet = intersect(f1, f2)
        meet_dim = -1 if meet is None else meet.dim
        assert span([f1, f2]).dim == f1.dim + f2.dim - meet_dim


def test_extend_to_hyperplane_deterministic(gf101):
    line = _line(gf101, (1, 2, 3, 4), (0, 1, 1, 1))
    gamma = PointSet.from_coords(gf101, [[1, 0, 0, 1], [0, 0, 1, 5], [1, 1, 0, 0]])
    assert extend_to_hyperplane(line, gamma) == extend_to_hyperplane(line, gamma)


def test_merge_collapses_duplicate_products(gf101):
    # two crossing pairs inside one plane plus that plane itself: everything
    # merges to the single plane without tripping the distinctness invariant
    l1 = _line(gf101, (1, 0, 0, 0), (0, 1, 0, 0))
    l2 = _line(gf101, (1, 0, 0, 0), (0, 0, 1, 0))
    plane = span([l1, l2])
    merged = merge_intersecting(PlaneConfiguration((l1, l2, plane)))
    assert merged.length == 1 and merged.planes[0] == plane


@pytest.mark.parametrize("p", [2, 3, 101, None], ids=["gf2", "gf3", "gf101", "q"])
def test_split_needs_no_pairwise_skew_check(p):
    # dim span = dim + length - 1 alone decides splitness: it agrees with the
    # pairwise skew scan plus the same dimension test, on configurations that
    # are split, skew but not split, and intersecting
    field = FieldSpec.rational() if p is None else FieldSpec.prime(p)
    rng = random.Random(53)
    kinds = set()
    tested = 0
    while tested < 60:
        n = rng.randint(2, 4)
        planes = []
        for _ in range(rng.randint(2, 3)):
            fl = span(list(random_point_set(field, n, rng.randint(2, 3), rng)))
            if fl.dim >= 1 and fl not in planes:
                planes.append(fl)
        if len(planes) < 2:
            continue
        cfg = PlaneConfiguration(tuple(planes))
        skew = is_skew(cfg)
        by_dimension = span(planes).dim == cfg.dim + cfg.length - 1
        assert is_split(cfg) == (skew and by_dimension)
        kinds.add((skew, by_dimension))
        tested += 1
    assert kinds == {(True, True), (True, False), (False, False)}


def test_split_characterizations_agree(gf101):
    # skew + span-dimension identity must match "each plane misses the span
    # of the others" on random line/plane mixes
    rng = random.Random(71)
    tested = 0
    while tested < 40:
        n = rng.randint(3, 5)
        k = rng.randint(2, 3)
        planes = []
        for _ in range(k):
            size = rng.randint(2, 3)
            fl = span(list(random_point_set(gf101, n, size, rng)))
            if fl.dim >= 1:
                planes.append(fl)
        if len(planes) != k or len(set(planes)) != k:
            continue
        cfg = PlaneConfiguration(tuple(planes))
        direct = is_split(cfg)
        eachwise = is_skew(cfg) and all(
            intersect(
                planes[i], span([planes[j] for j in range(k) if j != i])
            ) is None
            for i in range(k)
        )
        assert direct == eachwise
        tested += 1
