"""Row reduction and kernels cross-checked against independent oracles."""

import random
from fractions import Fraction

from cb_lab import FieldSpec
from cb_lab.linalg import dot, in_row_space, kernel, rank, rref, transpose

from helpers import fraction_ge_rref, rank_oracle


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
