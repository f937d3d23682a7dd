"""Exact field arithmetic: canonical forms, field axioms, JSON encoding."""

import random
from fractions import Fraction

import pytest

from cb_lab import FieldSpec, PointSet, ProjPoint
from cb_lab.errors import DivisionByZeroError, InvalidFieldError
from cb_lab.fields import is_prime


def brute_force_inverse(x: int, p: int) -> int:
    return next(y for y in range(1, p) if x * y % p == 1)


def test_gf7_inverse_examples(gf7):
    assert gf7.inv(gf7.coerce(1)) == 1
    # oracle: scan x in 1..6 for 3x == 1 mod 7
    assert brute_force_inverse(3, 7) == 5
    assert gf7.inv(gf7.coerce(3)) == 5


def test_rational_arithmetic():
    q = FieldSpec.rational()
    assert q.add(q.coerce(Fraction(1, 2)), q.coerce(Fraction(1, 3))) == Fraction(5, 6)
    assert q.mul(q.coerce(2), q.coerce(Fraction(3, 4))) == Fraction(3, 2)
    assert q.neg(q.coerce(Fraction(-2, 4))) == Fraction(1, 2)


def test_inverse_property_randomized(gf101):
    rng = random.Random(101)
    for _ in range(10_000):
        a = rng.randrange(1, 101)
        assert gf101.mul(a, gf101.inv(a)) == 1
    q = FieldSpec.rational()
    for _ in range(10_000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if a != 0:
            assert q.mul(a, q.inv(a)) == 1


def test_canonical_uniqueness(gf7):
    rng = random.Random(5)
    q = FieldSpec.rational()
    for _ in range(500):
        a = rng.randrange(-100, 100)
        b = rng.randrange(-100, 100)
        sa, sb = gf7.coerce(a), gf7.coerce(b)
        assert (sa == sb) == (gf7.encode(sa) == gf7.encode(sb))
        qa = q.coerce(Fraction(a, 7))
        qb = q.coerce(Fraction(b, 7))
        assert (qa == qb) == (q.encode(qa) == q.encode(qb))


def test_rational_reduces_to_prime_field(gf101):
    """mod-p reduction is a ring homomorphism wherever denominators invert."""
    rng = random.Random(17)
    q = FieldSpec.rational()
    for _ in range(2000):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        for op in ("add", "sub", "mul"):
            exact = getattr(q, op)(a, b)
            if exact.denominator % 101 == 0:
                continue
            assert gf101.coerce(exact) == getattr(gf101, op)(
                gf101.coerce(a), gf101.coerce(b)
            )


def test_mixed_fields_rejected(gf7, gf101):
    for other in (gf101, FieldSpec.rational()):
        with pytest.raises(InvalidFieldError):
            PointSet(gf7, 2, (ProjPoint(gf7, (1, 0, 0)), ProjPoint(other, (0, 1, 0))))


def test_division_by_zero(gf7):
    with pytest.raises(DivisionByZeroError):
        gf7.div(gf7.coerce(3), gf7.coerce(0))
    with pytest.raises(DivisionByZeroError):
        FieldSpec.rational().inv(FieldSpec.rational().coerce(0))


def test_field_spec_validation():
    with pytest.raises(InvalidFieldError):
        FieldSpec.prime(1)
    with pytest.raises(InvalidFieldError):
        FieldSpec.prime(91)  # 7 * 13
    with pytest.raises(InvalidFieldError):
        FieldSpec.prime(2**31 + 11)
    with pytest.raises(InvalidFieldError):
        FieldSpec("weird")
    assert FieldSpec.prime(2).p == 2
    assert FieldSpec.prime(2146435069).p == 2146435069  # prime below 2**31


def test_is_prime_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % k for k in range(2, int(n**0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == trial(n), n


def test_scalar_json_round_trip(gf101):
    q = FieldSpec.rational()
    assert gf101.encode(gf101.coerce(42)) == 42
    assert gf101.coerce(42) == 42
    assert q.encode(q.coerce(Fraction(-3, 4))) == "-3/4"
    assert q.encode(q.coerce(5)) == "5"
    assert q.coerce("-3/4") == Fraction(-3, 4)
    assert FieldSpec.from_json(gf101.to_json()) == gf101
    assert FieldSpec.from_json(q.to_json()) == q


def test_coerce_canonical_and_field_frozen(gf7):
    assert gf7.coerce(10) == gf7.coerce(3)  # 10 == 3 mod 7
    with pytest.raises(Exception):
        gf7.p = 11


def test_float_rejected():
    with pytest.raises(InvalidFieldError):
        FieldSpec.rational().coerce(0.5)
