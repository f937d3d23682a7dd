"""The CB(r) engine: verdicts, witnesses, excision, conventions."""

import itertools
import random
from fractions import Fraction

import pytest

from cb_lab import (
    FieldSpec,
    PlaneConfiguration,
    PointSet,
    ProjPoint,
    apply_matrix,
    enumerate_points,
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
from cb_lab.cb import _failing_points
from cb_lab.linalg import dot, kernel, transpose
from helpers import (
    clustered_point_set,
    is_cb_by_definition,
    is_cb_by_rows,
    mixed_rational_point_set,
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
        from cb_lab import eval_matrix, linalg

        if all(
            linalg.rank(eval_matrix(gamma.without(i), 2).rows, gf101) == 6
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
        assert _failing_points(transpose(rows), field) == want
        seen.add(bool(want))

        ncols = rng.randint(1, 5)
        raw = [[field.coerce(rng.randint(-3, 3)) for _ in range(ncols)]
               for _ in range(rng.randint(1, 6))]
        raw.insert(rng.randint(0, len(raw)), [field.zero()] * ncols)
        raw.insert(rng.randint(0, len(raw)), list(rng.choice(raw)))
        want = _failing_by_definition(raw, field)
        assert _failing_points(transpose(raw), field) == want
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


def test_witness_builds_kernel_vectors_only_up_to_the_first_separating_one(monkeypatch):
    # three points of P^1 fail CB(r) for every r >= 1, and the punctured
    # kernel has r - 1 vectors of length r + 1: the witness is the first
    # vector that separates the omitted point, and no vector after it is built
    from cb_lab import linalg

    field = FieldSpec.prime(7)
    gamma = PointSet(field, 1, tuple(ProjPoint(field, c) for c in [(1, 0), (0, 1), (1, 1)]))
    built = []
    kernel_vectors = linalg._kernel_vectors

    def counting(rows, ncols, fld):
        for vec in kernel_vectors(rows, ncols, fld):
            built.append(vec)
            yield vec

    monkeypatch.setattr(linalg, "_kernel_vectors", counting)
    for r in (2, 30, 4000):
        built.clear()
        rep = is_cb(gamma, r)
        assert not rep.verdict
        assert len(built) == 1
        rows = eval_matrix(gamma, r).rows
        omit = rep.witness.omitted_point_index
        if r <= 30:
            punctured = rows[:omit] + rows[omit + 1:]
            want = next(v for v in kernel(punctured, r + 1, field) if dot(v, rows[omit], field))
            assert rep.witness.form_coefficients == want
        assert dot(rep.witness.form_coefficients, rows[omit], field) != 0


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


@pytest.mark.parametrize("p, n", [(3, 1), (2, 2)])
def test_cb_verdicts_are_downward_closed(p, n):
    # every subset of P^1(GF(3)) and of P^2(GF(2)): CB(r) implies CB(r - 1),
    # so max_cb's scan may stop at the first false verdict
    field = FieldSpec.prime(p)
    pts = enumerate_points(field, n)
    for size in range(len(pts) + 1):
        for subset in itertools.combinations(pts, size):
            gamma = PointSet(field, n, subset)
            verdicts = [is_cb(gamma, r).verdict for r in range(5)]
            assert verdicts == sorted(verdicts, reverse=True), (subset, verdicts)
            for cap in range(5):
                assert max_cb(gamma, cap) == max(r for r in range(cap + 1) if verdicts[r])


@pytest.mark.parametrize("field", [FieldSpec.prime(7), FieldSpec.rational()], ids=str)
def test_one_point_of_p0(field):
    # P^0 is one point; the only degree-r monomial is x0^r, so CB(0) holds and
    # CB(r >= 1) fails with the witness form x0^r
    gamma = PointSet.from_coords(field, [[1]])
    assert gamma.ambient_dim == 0 and len(monomial_basis(0, 3)) == 1
    assert is_cb(gamma, 0).verdict
    for r in (1, 2, 5):
        rep = is_cb(gamma, r)
        assert not rep.verdict
        assert rep.witness.omitted_point_index == 0 and rep.witness.form_coefficients == (1,)
    assert max_cb(gamma, 4) == 0


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


def test_rational_is_cb_matches_fraction_rows():
    # is_cb over Q works on rows of primitive integer coordinates; its
    # verdict, omitted point and witness form equal those read off
    # eval_matrix's Fraction rows: the first point whose removal drops the
    # rank and the first kernel vector of the rest that is nonzero there.
    q = FieldSpec.rational()
    rng = random.Random(53)
    seen = set()
    for _ in range(30):
        n = rng.randint(1, 3)
        gamma = mixed_rational_point_set(n, rng.randint(2, 7), rng)
        r = rng.randint(1, 3)
        rep = is_cb(gamma, r)
        rows = eval_matrix(gamma, r).rows
        failing = _failing_by_definition(rows, q)
        assert rep.verdict == (not failing)
        seen.add(rep.verdict)
        if failing:
            omit = failing[0]
            punctured = rows[:omit] + rows[omit + 1:]
            form = next(v for v in kernel(punctured, len(rows[0]), q)
                        if dot(v, rows[omit], q) != 0)
            assert rep.witness.omitted_point_index == omit
            assert rep.witness.form_coefficients == tuple(form)
            assert all(type(c) is Fraction for c in rep.witness.form_coefficients)
    assert seen == {True, False}


@pytest.mark.parametrize("p", [2, 3, 101, None], ids=["gf2", "gf3", "gf101", "q"])
def test_is_cb_matches_the_row_path(p):
    # the monomial-major matrix gives the bytes of the point-major rows and
    # their transpose, witness included
    field = FieldSpec.rational() if p is None else FieldSpec.prime(p)
    rng = random.Random(29)
    seen = set()
    for _ in range(30):
        n, r = rng.randint(1, 3), rng.randint(1, 4)
        most = (p ** (n + 1) - 1) // (p - 1) if p else 9
        for make in (random_point_set, clustered_point_set):
            gamma = make(field, n, rng.randint(1, min(9, most)), rng)
            got = is_cb(gamma, r)
            assert got.to_json(field) == is_cb_by_rows(gamma, r).to_json(field)
            seen.add(got.verdict)
    assert seen == {True, False}


@pytest.mark.parametrize("make", [random_point_set, clustered_point_set])
def test_point_set_helpers_refuse_more_points_than_the_space_has(make):
    rng = random.Random(3)
    for field, n, count in ((FieldSpec.prime(2), 2, 8), (FieldSpec.prime(3), 1, 5),
                            (FieldSpec.rational(), 0, 2)):
        with pytest.raises(ValueError, match="has only"):
            make(field, n, count, rng)
    assert len(make(FieldSpec.prime(2), 2, 7, rng)) == 7
    assert len(make(FieldSpec.rational(), 0, 1, rng)) == 1
