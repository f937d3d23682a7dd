"""Exception types shared across the toolkit."""


class CbLabError(Exception):
    """Base class for all cb-lab errors."""


class InvalidFieldError(CbLabError, ValueError):
    """Field specification rejected (composite modulus, oversized prime, bad kind)."""


class DivisionByZeroError(CbLabError, ZeroDivisionError):
    """Division by, or inversion of, the zero element."""


class EmptyInputError(CbLabError, ValueError):
    """An operation that needs at least one generator received none."""


class DuplicatePointError(CbLabError, ValueError):
    """A point set contained repeated points after normalization.

    Cardinalities enter the bounds under test, so silent deduplication is
    never performed.
    """


class FieldTooSmallError(CbLabError):
    """The finite field has too few elements for the requested construction."""


class DegenerateConicError(CbLabError):
    """A sampled conic was singular; callers resample."""


class ResampleBudgetExceededError(CbLabError):
    """A randomized generator could not certify genericity within its retry budget."""


class BudgetExceededError(CbLabError):
    """A combinatorial search hit its node budget before exhausting the space."""


class GroundTooLargeError(CbLabError):
    """Matroid ground set exceeds the desk-scale enumeration cap."""
