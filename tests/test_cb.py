"""The CB(r) engine: verdicts, witnesses, excision, conventions."""

import random

import pytest

from cb_lab import (
    FieldSpec,
    PlaneConfiguration,
    PointSet,
    ProjPoint,
    apply_matrix,
    excise,
    gen_plane_curve_ci,
    gen_rnc,
    gen_skew_lines,
    is_cb,
    max_cb,
    monomial_basis,
    eval_matrix,
    evaluate_form,
    span,
)
from cb_lab.cb import _failing_indices, is_cb_rows
from helpers import (
    is_cb_by_definition,
    random_invertible_matrix,
    random_point_set,
    rank_oracle_fast,
)


def test_nine_cubic_intersection_points_cb3(gf101):
    for seed in range(3):
        gamma = gen_plane_curve_ci(3, 3, gf101, seed=seed)
        assert len(gamma) == 9
        assert is_cb(gamma, 3).verdict


def test_single_point_fails_cb1(gf101):
    gamma = PointSet.from_coords(gf101, [[1, 4, 9]])
    rep = is_cb(gamma, 1)
    assert not rep.verdict
    w = rep.witness
    assert w.omitted_point_index == 0
    basis = monomial_basis(2, 1)
    assert evaluate_form(w.form_coefficients, basis, gamma[0]) != 0


def test_seven_general_plane_points_cb2(gf101):
    rng = random.Random(70)
    found = 0
    for _ in range(10):
        gamma = random_point_set(gf101, 2, 7, rng)
        # genericity certificate: every 6-subset imposes independent
        # conditions on conics (kernel of its evaluation matrix is trivial)
        from cb_lab import eval_matrix, rank_kernel

        if all(
            rank_kernel(eval_matrix(gamma.without(i), 2)).rank == 6
            for i in range(7)
        ):
            found += 1
            assert is_cb(gamma, 2).verdict
    assert found >= 8  # random draws over GF(101) are almost always general


def test_six_conic_points_cb2(gf101):
    gamma = gen_rnc(2, 6, gf101, seed=5)
    assert is_cb(gamma, 2).verdict


def test_verdicts_match_definition_oracle(gf101):
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        gamma = random_point_set(gf101, n, rng.randint(1, 7), rng)
        r = rng.randint(0, 3)
        assert is_cb(gamma, r).verdict == is_cb_by_definition(gamma, r)


def _failing_by_definition(rows, field):
    full = rank_oracle_fast(rows, field)
    return [i for i in range(len(rows))
            if rank_oracle_fast(rows[:i] + rows[i + 1:], field) < full]


@pytest.mark.parametrize("p", [2, 3, 101, None], ids=["gf2", "gf3", "gf101", "q"])
def test_failing_indices_match_rank_definition(p):
    # the whole failing list, not just the verdict, on evaluation matrices and
    # on raw rows with zero and repeated rows mixed in
    field = FieldSpec.rational() if p is None else FieldSpec.prime(p)
    rng = random.Random(37)
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 3)  # P^n(GF(2)) has 2^(n+1) - 1 points
        gamma = random_point_set(field, n, rng.randint(1, min(7, 2 ** (n + 1) - 1)), rng)
        rows = eval_matrix(gamma, rng.randint(1, 3)).rows
        want = _failing_by_definition(rows, field)
        assert _failing_indices(rows, field) == want
        seen.add(bool(want))

        ncols = rng.randint(1, 5)
        raw = [[field.coerce(rng.randint(-3, 3)) for _ in range(ncols)]
               for _ in range(rng.randint(1, 6))]
        raw.insert(rng.randint(0, len(raw)), [field.zero()] * ncols)
        raw.insert(rng.randint(0, len(raw)), list(rng.choice(raw)))
        want = _failing_by_definition(raw, field)
        assert _failing_indices(raw, field) == want
        assert is_cb_rows(raw, field) == (not want)
        seen.add(bool(want))
    assert seen == {True, False}


def test_witness_validity_fuzz(gf101):
    rng = random.Random(99)
    checked = 0
    for _ in range(60):
        gamma = random_point_set(gf101, rng.randint(1, 3), rng.randint(1, 6), rng)
        r = rng.randint(1, 3)
        rep = is_cb(gamma, r)
        if rep.verdict:
            continue
        checked += 1
        basis = monomial_basis(gamma.ambient_dim, r)
        w = rep.witness
        for i, pt in enumerate(gamma):
            val = evaluate_form(w.form_coefficients, basis, pt)
            if i == w.omitted_point_index:
                assert val != 0
            else:
                assert val == 0
    assert checked >= 20


def test_empty_and_degree_zero_conventions(gf101):
    empty = PointSet(gf101, 2, ())
    for r in range(4):
        assert is_cb(empty, r).verdict
    rng = random.Random(1)
    gamma = random_point_set(gf101, 2, 4, rng)
    assert is_cb(gamma, 0).verdict


def test_excise_examples(gf101):
    pts, cfg = gen_skew_lines(2, (5, 5), gf101, seed=3)
    # excising everything
    assert len(excise(pts, cfg)) == 0
    # excising one line keeps the other five, order preserved
    line_a = PlaneConfiguration((cfg.planes[0],))
    rest = excise(pts, line_a)
    assert len(rest) == 5
    assert tuple(rest) == tuple(pts)[5:]
    # configuration disjoint from gamma changes nothing
    far = span([ProjPoint(gf101, (1, 7, 7, 7)), ProjPoint(gf101, (1, 9, 3, 2))])
    if all(not far.contains(pt) for pt in pts):
        assert tuple(excise(pts, PlaneConfiguration((far,)))) == tuple(pts)


def test_excision_property_fuzz(gf101):
    rng = random.Random(37)
    trials = 0
    for _ in range(60):
        r = rng.randint(2, 4)
        k = rng.randint(1, 2)
        m = rng.randint(k * r + 2, k * r + 4)
        if m > 102:
            continue
        gamma = gen_rnc(k, m, gf101, seed=rng.randrange(2**32))
        assert is_cb(gamma, r).verdict
        ell = rng.randint(1, min(r, 2))
        flats = []
        guard = 0
        while len(flats) < ell and guard < 30:
            guard += 1
            idx = rng.sample(range(len(gamma)), 2)
            fl = span([gamma[i] for i in idx])
            if fl.dim >= 1 and fl not in flats:
                flats.append(fl)
        if len(flats) < ell:
            continue
        survivors = excise(gamma, PlaneConfiguration(tuple(flats)))
        assert is_cb(survivors, r - ell).verdict
        trials += 1
    assert trials >= 30


def test_downward_monotonicity_fuzz(gf101):
    rng = random.Random(53)
    for _ in range(25):
        k = rng.randint(1, 3)
        r = rng.randint(1, 3)
        gamma = gen_rnc(k, k * r + 2, gf101, seed=rng.randrange(2**32))
        assert is_cb(gamma, r).verdict
        for rr in range(r + 1):
            assert is_cb(gamma, rr).verdict


def test_split_equivalence(gf101):
    pts, cfg = gen_skew_lines(2, (5, 5), gf101, seed=8)
    parts = [
        PointSet(gf101, 3, tuple(pt for pt in pts if pl.contains(pt)))
        for pl in cfg.planes
    ]
    for r in (1, 2, 3, 4):
        whole = is_cb(pts, r).verdict
        split_verdict = all(is_cb(part, r).verdict for part in parts)
        assert whole == split_verdict
    # unbalanced counts: 4 < r+2 for r=3 makes one side (hence the union) fail
    pts2, cfg2 = gen_skew_lines(2, (4, 6), gf101, seed=9)
    parts2 = [
        PointSet(gf101, 3, tuple(pt for pt in pts2 if pl.contains(pt)))
        for pl in cfg2.planes
    ]
    assert not is_cb(pts2, 3).verdict
    assert not all(is_cb(part, 3).verdict for part in parts2)


def test_projective_invariance(gf101):
    rng = random.Random(61)
    for _ in range(10):
        gamma = gen_rnc(2, rng.randint(5, 8), gf101, seed=rng.randrange(2**32))
        r = rng.randint(1, 3)
        base = is_cb(gamma, r).verdict
        mat = random_invertible_matrix(gf101, 2, rng)
        assert is_cb(apply_matrix(gamma, mat), r).verdict == base


def test_max_cb(gf101):
    empty = PointSet(gf101, 2, ())
    assert max_cb(empty, 5) == 5
    gamma = gen_plane_curve_ci(3, 3, gf101, seed=4)
    assert max_cb(gamma, 3) == 3
    one = PointSet.from_coords(gf101, [[1, 2, 3]])
    assert max_cb(one, 3) == 0


def test_cb_report_json(gf101):
    gamma = PointSet.from_coords(gf101, [[1, 4, 9]])
    rep = is_cb(gamma, 1)
    obj = rep.to_json(gf101)
    assert obj["r"] == 1 and obj["verdict"] is False
    assert obj["witness"]["omitted"] == 0
    assert isinstance(obj["witness"]["form"], list)
    ok = is_cb(gen_rnc(2, 6, gf101, seed=1), 2).to_json(gf101)
    assert ok == {"r": 2, "verdict": True}


def test_negative_degree_rejected(gf101):
    gamma = PointSet.from_coords(gf101, [[1, 0, 0]])
    with pytest.raises(ValueError):
        is_cb(gamma, -1)


def test_rational_field_full_pipeline():
    # the whole stack over Q: exact Bareiss elimination end to end
    q = FieldSpec.rational()
    gamma = gen_rnc(3, 8, q, seed=5)          # 8 = 3*2+2 points, P^3
    assert is_cb(gamma, 2).verdict
    assert not is_cb(gen_rnc(3, 7, q, seed=5), 2).verdict
    rep = is_cb(gen_rnc(2, 5, q, seed=1), 2)  # 5 < 2*2+2 on a conic
    assert not rep.verdict
    basis = monomial_basis(2, 2)
    gamma2 = gen_rnc(2, 5, q, seed=1)
    for i, pt in enumerate(gamma2):
        val = evaluate_form(rep.witness.form_coefficients, basis, pt)
        assert (val != 0) == (i == rep.witness.omitted_point_index)
