"""Row reduction and kernels cross-checked against independent oracles."""

import random
from fractions import Fraction
from math import gcd

import pytest

from cb_lab import FieldSpec, cb, gen_rnc, gen_skew_lines, linalg
from cb_lab.forms import monomial_basis, monomial_columns
from cb_lab.linalg import dot, echelon, in_row_space, kernel, primitive, rank, rref, transpose

from helpers import evaluation_rows, fraction_ge_rref, rank_oracle, two_rref_kernel


def _random_rows(field, nrows, ncols, rng):
    if field.is_prime_field:
        return [[rng.randrange(field.p) for _ in range(ncols)] for _ in range(nrows)]
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_rank_matches_minor_oracle():
    rng = random.Random(3)
    gf5 = FieldSpec.prime(5)
    q = FieldSpec.rational()
    for field in (gf5, q):
        for _ in range(60):
            rows = _random_rows(field, rng.randint(1, 4), rng.randint(1, 4), rng)
            assert rank(rows, field) == rank_oracle(rows, field)


def test_rref_canonical_under_row_permutation():
    rng = random.Random(9)
    for field in (FieldSpec.prime(7), FieldSpec.rational()):
        for _ in range(80):
            rows = _random_rows(field, rng.randint(2, 5), rng.randint(2, 6), rng)
            base, piv = rref(rows, field)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            again, piv2 = rref(shuffled, field)
            assert base == again
            assert piv == piv2


def _low_rank_rows(nrows, ncols, rng):
    """A random product of nrows x k and k x ncols rational matrices, k <= both,
    with a zero row and a zero column mixed in and integral entries as ints."""
    q = FieldSpec.rational()
    k = rng.randint(0, min(nrows, ncols))
    left = _random_rows(q, nrows, k, rng)
    right = _random_rows(q, k, ncols, rng)
    rows = [[sum(lr[t] * right[t][j] for t in range(k)) for j in range(ncols)] for lr in left]
    if rng.random() < 0.5:
        rows.insert(rng.randint(0, nrows), [0] * ncols)
    if rng.random() < 0.5:
        zero_col = rng.randrange(ncols)
        rows = [[0 if j == zero_col else x for j, x in enumerate(row)] for row in rows]
    return [[int(x) if x.denominator == 1 else x for x in row] for row in rows]


def test_bareiss_agrees_with_fraction_ge():
    rng = random.Random(21)
    q = FieldSpec.rational()
    cases = [_random_rows(q, rng.randint(1, 5), rng.randint(1, 6), rng) for _ in range(100)]
    cases += [_low_rank_rows(rng.randint(1, 6), rng.randint(1, 6), rng) for _ in range(200)]
    ranks = set()
    for rows in cases:
        basis, piv = rref(rows, q)
        assert (basis, piv) == fraction_ge_rref(rows)
        assert all(type(x) is Fraction for row in basis for x in row)
        ranks.add(min(len(rows), len(rows[0])) - len(basis))
    assert {0, 1, 2} <= ranks  # full rank and deficient inputs both occur


def test_kernel_vectors_annihilate():
    rng = random.Random(4)
    for field in (FieldSpec.prime(13), FieldSpec.rational()):
        for _ in range(60):
            ncols = rng.randint(2, 6)
            rows = _random_rows(field, rng.randint(1, 5), ncols, rng)
            ker = kernel(rows, ncols, field)
            assert rank(rows, field) + len(ker) == ncols
            for vec in ker:
                for row in rows:
                    assert dot(row, vec, field) == 0


def _ranked_rows(field, nrows, ncols, k, rng):
    """A random nrows x ncols product of rank at most k (the zero matrix at k = 0)."""
    left = _random_rows(field, nrows, k, rng)
    right = _random_rows(field, k, ncols, rng)
    rows = [[sum((lr[t] * right[t][j] for t in range(k)), field.zero()) for j in range(ncols)]
            for lr in left]
    if field.is_prime_field:
        return [[x % field.p for x in row] for row in rows]
    return rows


@pytest.mark.parametrize(
    "field", [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(101), FieldSpec.rational()],
    ids=["gf2", "gf3", "gf101", "q"],
)
def test_kernel_matches_two_rref_oracle(field):
    rng = random.Random(31)
    cases = [([], ncols) for ncols in range(1, 5)]
    cases += [([[field.zero()] * ncols] * rng.randint(1, 3), ncols) for ncols in range(1, 5)]
    for _ in range(150):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        k = rng.randint(0, min(nrows, ncols))
        cases.append((_ranked_rows(field, nrows, ncols, k, rng), ncols))
    cases += [(_random_rows(field, n, n, rng), n) for n in range(1, 6)]
    ranks = set()
    for rows, ncols in cases:
        ker = kernel(rows, ncols, field)
        assert ker == two_rref_kernel(rows, ncols, field)
        ranks.add((rank(rows, field), ncols))
    assert any(r == 0 for r, _ in ranks)
    assert any(r == n for r, n in ranks)  # full column rank: empty kernel
    assert any(0 < r < n for r, n in ranks)


def test_kernel_of_empty_matrix():
    gf5 = FieldSpec.prime(5)
    ker = kernel([], 3, gf5)
    assert len(ker) == 3  # the whole space, canonical identity basis
    assert ker[0] == (1, 0, 0)


def test_rank_normalizes_pivots():
    gf7 = FieldSpec.prime(7)
    basis, piv = rref([[2, 4, 6], [3, 6, 2]], gf7)
    for row, c in zip(basis, piv):
        assert row[c] == 1
        for other_row in basis:
            if other_row is not row:
                assert other_row[c] == 0


def test_in_row_space():
    q = FieldSpec.rational()
    basis, piv = rref([[1, 0, 2], [0, 1, 3]], q)
    assert in_row_space([2, 1, 7], basis, piv, q)
    assert not in_row_space([0, 0, 1], basis, piv, q)


def test_transpose():
    assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]


def test_bareiss_handles_big_entries_exactly():
    q = FieldSpec.rational()
    rows = [
        [Fraction(10**12, 7), Fraction(1, 3), 5],
        [Fraction(-3, 11), Fraction(10**10), Fraction(2, 9)],
        [1, 1, 1],
    ]
    assert rref(rows, q) == fraction_ge_rref(rows)


def test_rref_int_with_planted_zero_repeated_and_proportional_rows():
    # Rows that are, or become, all zero skip the Bareiss update; the integer
    # rows must still be the reduced echelon form times one scale.
    q = FieldSpec.rational()
    rng = random.Random(53)
    kinds = set()
    for _ in range(120):
        ncols = rng.randint(1, 5)
        rows = _random_rows(q, rng.randint(1, 3), ncols, rng)
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("zero", "repeated", "proportional"))
            kinds.add(kind)
            if kind == "zero":
                row = [0] * ncols
            elif kind == "repeated":
                row = list(rng.choice(rows))
            else:
                row = [Fraction(rng.choice((-7, -2, 3, 5)), rng.randint(1, 9)) * x
                       for x in rng.choice(rows)]
            rows.insert(rng.randint(0, len(rows)), row)
        ints, piv = echelon(rows, q)
        scale = ints[0][piv[0]] if ints else 1
        basis, piv_oracle = fraction_ge_rref(rows)
        assert piv == piv_oracle
        assert all(type(x) is int for row in ints for x in row)
        assert [tuple(Fraction(x, scale) for x in row) for row in ints] == basis
        assert len(ints) == rank(rows, q) == rank_oracle(rows, q)
    assert kinds == {"zero", "repeated", "proportional"}


def test_primitive_scales_to_content_one_with_a_positive_lead():
    assert primitive((0, -4, 6, Fraction(-2))) == (0, 2, -3, 1)
    assert primitive([Fraction(1, 2), Fraction(-1, 3)]) == (3, -2)
    assert primitive((0, 0, 0)) == (0, 0, 0) and primitive(()) == ()
    rng = random.Random(41)
    for _ in range(200):
        row = [rng.choice((0, rng.randint(-50, 50))) for _ in range(rng.randint(1, 6))]
        got = primitive(row)
        assert all(type(x) is int for x in got)
        if not any(row):
            assert got == tuple(row)
            continue
        assert gcd(*got) == 1 and next(x for x in got if x) > 0
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))
        assert primitive([scale * x for x in row]) == got  # one point, any representative


def test_echelon_over_gf_p_takes_unreduced_ints():
    # cb feeds unreduced evaluation rows; echelon returns the residue form of
    # the reduced rows, every entry in range(p).
    rng = random.Random(43)
    for p in (2, 5, 101):
        field = FieldSpec.prime(p)
        for _ in range(60):
            rows = _random_rows(field, rng.randint(1, 5), rng.randint(1, 6), rng)
            lifted = [[x + p * rng.randint(-3, 3) for x in row] for row in rows]
            got = echelon(lifted, field)
            assert got == echelon(rows, field) == rref(rows, field)
            assert all(0 <= x < p for row in got[0] for x in row)


def test_echelon_rank_and_failing_indices_build_no_fraction_over_q(monkeypatch):
    q = FieldSpec.rational()
    rng = random.Random(47)
    cases = []
    for _ in range(60):
        rows = _random_rows(q, rng.randint(1, 5), rng.randint(1, 5), rng)
        if rng.random() < 0.5:
            rows = [[int(x * 12) for x in row] for row in rows]
        basis, piv = fraction_ge_rref(rows)
        cases.append((rows, basis, piv))
    gammas = [gen_rnc(2, 5, q, seed=1), gen_skew_lines(2, (3, 2), q, seed=2)[0]]
    evals = [evaluation_rows(gamma, r) for gamma in gammas for r in (1, 2, 3)]
    cols = [monomial_columns([pt.ints for pt in gamma], monomial_basis(gamma.ambient_dim, r))
            for gamma in gammas for r in (1, 2, 3)]
    failing = [[i for i in range(len(rows))
                if len(fraction_ge_rref(rows[:i] + rows[i + 1:])[0]) < len(fraction_ge_rref(rows)[0])]
               for rows in evals]
    assert any(failing) and not all(failing)

    def no_fraction(*args):
        raise AssertionError("linalg built a Fraction")

    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    for rows, basis, piv in cases:
        ints, got_piv = echelon(rows, q)
        assert got_piv == piv and rank(rows, q) == len(basis)
        assert all(row[c] == ints[0][piv[0]] for row, c in zip(ints, piv))
    for rows, col, want in zip(evals, cols, failing):
        assert cb._failing_points(transpose(rows), q) == want
        assert cb._failing_points(col, q) == want
    with pytest.raises(AssertionError, match="built a Fraction"):
        rref([[1, 2]], q)
