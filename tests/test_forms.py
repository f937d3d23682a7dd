"""Monomial bases, evaluation matrices, and their ranks and kernels."""

import random
from fractions import Fraction
from math import comb

import pytest

from cb_lab import (
    FieldSpec,
    PointSet,
    apply_matrix,
    eval_matrix,
    evaluate_form,
    gen_plane_curve_ci,
    monomial_basis,
)
from cb_lab import forms, linalg
from cb_lab.forms import EvalMatrix, evaluation_row, monomial_columns

from helpers import monomial_values, random_invertible_matrix, random_point_set


def test_monomial_counts():
    assert len(monomial_basis(2, 2)) == 6
    assert len(monomial_basis(3, 0)) == 1
    assert monomial_basis(0, 4).monomials == ((4,),)  # P^0: one monomial per degree
    assert len(monomial_basis(3, 3)) == 20
    for n, r in [(1, 4), (4, 2), (5, 3)]:
        assert len(monomial_basis(n, r)) == comb(n + r, r)


def test_monomial_order_and_uniqueness():
    basis = monomial_basis(2, 3)
    monos = basis.monomials
    assert monos[0] == (3, 0, 0)  # leading variable first
    assert monos[-1] == (0, 0, 3)
    assert len(set(monos)) == len(monos)
    assert all(sum(e) == 3 for e in monos)
    # graded-lex within the fixed degree: strictly decreasing tuples
    assert all(monos[i] > monos[i + 1] for i in range(len(monos) - 1))


def test_eval_matrix_empty(gf101):
    m = eval_matrix(PointSet(gf101, 2, ()), 2)
    assert m.nrows == 0 and m.ncols == 6
    assert linalg.rank(m.rows, gf101) == 0
    assert linalg.kernel(m.rows, m.ncols, gf101) == [
        tuple(int(i == j) for j in range(6)) for i in range(6)
    ]


def test_eval_matrix_coordinate_point(gf101):
    gamma = PointSet.from_coords(gf101, [[1, 0, 0, 0]])
    for r in (1, 2, 3):
        m = eval_matrix(gamma, r)
        assert m.rows[0][0] == 1
        assert all(x == 0 for x in m.rows[0][1:])


def test_five_generic_points_rank_three(gf101):
    rng = random.Random(6)
    while True:
        gamma = random_point_set(gf101, 2, 5, rng)
        m = eval_matrix(gamma, 1)
        if linalg.rank(m.rows, gf101) == 3:
            break
    assert linalg.rank(m.rows, gf101) == 3  # 5 rows, 3 columns, generic


def test_coordinate_simplex_rank(gf101):
    gamma = PointSet.from_coords(
        gf101, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    m = eval_matrix(gamma, 1)
    assert linalg.rank(m.rows, gf101) == 4
    assert linalg.kernel(m.rows, m.ncols, gf101) == []


def test_nine_point_kernel_contains_two_cubics(gf101):
    gamma = gen_plane_curve_ci(3, 3, gf101, seed=9)
    m = eval_matrix(gamma, 3)
    ker = linalg.kernel(m.rows, m.ncols, gf101)
    assert len(ker) >= 2
    basis = monomial_basis(2, 3)
    for vec in ker:
        for pt in gamma:
            assert evaluate_form(vec, basis, pt) == 0


def test_zero_matrix_rank():
    gf = FieldSpec.prime(7)
    m = EvalMatrix(gf, monomial_basis(2, 1), ((0, 0, 0), (0, 0, 0)))
    assert linalg.rank(m.rows, gf) == 0


def test_rank_bounded(gf101):
    rng = random.Random(10)
    for _ in range(30):
        n = rng.randint(1, 3)
        r = rng.randint(0, 3)
        count = rng.randint(1, 6)
        gamma = random_point_set(gf101, n, count, rng)
        m = eval_matrix(gamma, r)
        assert linalg.rank(m.rows, gf101) <= min(count, m.ncols)


def test_kernel_vanishes_on_points_fuzz(gf101):
    rng = random.Random(11)
    for _ in range(25):
        gamma = random_point_set(gf101, 2, rng.randint(2, 7), rng)
        r = rng.randint(1, 3)
        m = eval_matrix(gamma, r)
        basis = monomial_basis(2, r)
        for vec in linalg.kernel(m.rows, m.ncols, gf101):
            assert all(evaluate_form(vec, basis, pt) == 0 for pt in gamma)


def test_rank_invariant_under_reorder_and_transform(gf101):
    rng = random.Random(12)
    for _ in range(15):
        gamma = random_point_set(gf101, 3, 6, rng)
        r = rng.randint(1, 2)
        base = linalg.rank(eval_matrix(gamma, r).rows, gf101)
        order = list(range(len(gamma)))
        rng.shuffle(order)
        assert linalg.rank(eval_matrix(gamma.subset(order), r).rows, gf101) == base
        mat = random_invertible_matrix(gf101, 3, rng)
        moved = apply_matrix(gamma, mat)
        assert linalg.rank(eval_matrix(moved, r).rows, gf101) == base


def test_deterministic_profiles(gf101):
    gamma = random_point_set(gf101, 2, 6, random.Random(77))
    a = eval_matrix(gamma, 2)
    b = eval_matrix(gamma, 2)
    assert a == b
    assert linalg.kernel(a.rows, a.ncols, gf101) == linalg.kernel(b.rows, b.ncols, gf101)


@pytest.mark.parametrize("p", [2, 3, 101, None], ids=["gf2", "gf3", "gf101", "q"])
def test_eval_matrix_rows_are_the_reference_rows(p):
    # eval_matrix (one column build, transposed) and evaluation_row (its
    # one-point read) against monomial_values reduced mod p; over Q every
    # entry is a Fraction, r = 0 included
    field = FieldSpec.rational() if p is None else FieldSpec.prime(p)
    rng = random.Random(61)
    for r in range(4):
        for n, count in ((1, 0), (1, 3), (2, 5), (3, 7)):
            gamma = random_point_set(field, n, count, rng)
            basis = monomial_basis(n, r)
            ref = [monomial_values(pt.coords, basis, field.one()) for pt in gamma]
            want = tuple(tuple(x % p if p else x for x in row) for row in ref)
            m = eval_matrix(gamma, r)
            assert m.rows == want and m.basis == basis and m.nrows == count
            assert tuple(evaluation_row(pt.coords, basis, field) for pt in gamma) == want
            if p is None:
                assert all(type(x) is Fraction for row in m.rows for x in row)


# Reference results built from the FieldSpec element ops alone, to check the
# native arithmetic of evaluation_row, dot and combine against.
def _ops_evaluation_row(coords, basis, field):
    row = []
    for expo in basis.monomials:
        val = field.one()
        for c, e in zip(coords, expo):
            for _ in range(e):
                val = field.mul(val, c)
        row.append(val)
    return tuple(row)


def _ops_dot(u, v, field):
    acc = field.zero()
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def _ops_combine(coeffs, rows, field):
    out = [field.zero()] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [field.add(o, field.mul(c, x)) for o, x in zip(out, row)]
    return out


@pytest.mark.parametrize("p", [2, 7, 101, 2**31 - 1])
def test_prime_kernels_match_field_ops(p):
    field = FieldSpec.prime(p)
    rng = random.Random(p)
    for _ in range(40):
        n, r = rng.randint(1, 4), rng.randint(0, 4)
        # residues, plus unreduced and negative ints that the kernels must reduce
        coords = [rng.choice((rng.randrange(p), rng.randint(-3 * p, 3 * p))) for _ in range(n + 1)]
        basis = monomial_basis(n, r)
        row = evaluation_row(coords, basis, field)
        assert row == _ops_evaluation_row(coords, basis, field)
        assert all(0 <= x < p for x in row)
        coeffs = [rng.randint(-p, 2 * p) for _ in range(len(basis))]
        assert linalg.dot(coeffs, row, field) == _ops_dot(coeffs, row, field)
        rows = [[rng.randint(-p, 2 * p) for _ in range(n + 1)] for _ in range(rng.randint(1, 4))]
        weights = [rng.choice((0, p, rng.randrange(p))) for _ in rows]
        # as drawn, with a zero first coefficient, and all zero
        for w in (weights, [0] + weights[1:], [0] * len(rows)):
            out = linalg.combine(w, rows, field)
            assert out == _ops_combine(w, rows, field) and len(out) == n + 1


def test_rational_kernels_match_field_ops():
    q = FieldSpec.rational()
    rng = random.Random(5)

    def rand_q():
        # large and mixed denominators, integers and zero among them
        return rng.choice((
            Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9)),
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 10**6 + 3))),
            Fraction(rng.randint(-5, 5)),
            Fraction(0),
        ))

    for r in range(5):
        for _ in range(12):
            n = rng.randint(1, 4)
            coords = [rand_q() for _ in range(n + 1)]
            basis = monomial_basis(n, r)
            row = evaluation_row(coords, basis, q)
            assert row == _ops_evaluation_row(coords, basis, q)
            coeffs = [rand_q() for _ in range(len(basis))]
            value = linalg.dot(coeffs, row, q)
            assert value == _ops_dot(coeffs, row, q)
            rows = [[rand_q() for _ in range(n + 1)] for _ in range(rng.randint(1, 4))]
            weights = [rand_q() for _ in rows]
            out = linalg.combine(weights, rows, q)
            assert out == _ops_combine(weights, rows, q)
            assert all(type(x) is Fraction for x in (*row, value, *out))
            # with a zero first coefficient, and all zero: same width and type
            for w in ([Fraction(0)] + weights[1:], [Fraction(0)] * len(rows)):
                out = linalg.combine(w, rows, q)
                assert out == _ops_combine(w, rows, q) and len(out) == n + 1
                assert all(type(x) is Fraction for x in out)


@pytest.mark.parametrize("p, n, r", [
    (2, 2, 3), (2, 3, 2), (3, 2, 4), (3, 3, 3), (101, 3, 4), (101, 1, 300),
    (None, 3, 4), (None, 2, 5), (None, 1, 300),
], ids=lambda x: str(x))
def test_monomial_columns_are_the_transposed_rows(p, n, r, monkeypatch):
    # the monomial-major matrix is the transpose of the monomial_values rows,
    # reduced mod p, on residues and on unreduced and negative ints alike;
    # it makes (n + 1) * r power columns and at most two products per monomial
    field = FieldSpec.rational() if p is None else FieldSpec.prime(p)
    basis = monomial_basis(n, r)
    products = []

    def counted(u, v, modulus):
        products.append(len(u))
        return real(u, v, modulus)

    real = forms._product
    monkeypatch.setattr(forms, "_product", counted)
    rng = random.Random(r * 31 + n)
    for count in (1, 2, 5):
        points = [pt.ints for pt in random_point_set(field, n, min(count, 2 ** (n + 1) - 1), rng)]
        points.append(tuple(rng.randint(-3 * (p or 3), 3 * (p or 3)) for _ in range(n + 1)))
        want = [[x % p if p else x for x in monomial_values(pt, basis)] for pt in points]
        del products[:]
        cols = monomial_columns(points, basis, p)
        assert len(cols) == len(basis) and linalg.transpose(cols) == want
        assert len(products) <= (n + 1) * r + 2 * len(basis)
        if n == 1:  # 2r power columns and one product per mixed monomial
            assert len(products) == 2 * r + r - 1
    assert monomial_columns([], basis, p) == [[]] * len(basis)
