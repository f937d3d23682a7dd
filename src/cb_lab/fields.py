"""Exact scalar arithmetic over prime fields GF(p) and arbitrary-precision rationals.

Every computation in the toolkit runs over a FieldSpec: either GF(p) for a
prime p < 2**31 (elements are canonical int residues in [0, p)) or the
rational numbers (elements are reduced fractions.Fraction values).  No
floating point appears anywhere: verdicts are exact rank statements.

Elements are raw values (int / Fraction) with no field tag.  The FieldSpec
element ops (add, mul, neg, inv, ...) are the reference arithmetic.  The hot
kernels in forms and linalg compute with native int or Fraction operations
instead (evaluation rows, dot and combine reduce mod p once per output
entry) and are tested against these ops.  Mixing fields is caught one level
up: a PointSet rejects a point from another field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZeroError, InvalidFieldError

PRIME = "prime"
RATIONAL = "rational"

# Residues and their pairwise products must stay machine-word sized.
MAX_PRIME = 2**31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; bases (2,3,5,7) certify all n < 3_215_031_751."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: GF(p) (kind="prime") or the rationals (kind="rational")."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == PRIME:
            if not isinstance(self.p, int) or self.p < 2:
                raise InvalidFieldError(f"prime field needs an integer p >= 2, got {self.p!r}")
            if self.p >= MAX_PRIME:
                raise InvalidFieldError(f"p = {self.p} exceeds the 2**31 residue limit")
            if not is_prime(self.p):
                raise InvalidFieldError(f"p = {self.p} is composite")
        elif self.kind == RATIONAL:
            if self.p is not None:
                raise InvalidFieldError("rational field takes no modulus")
        else:
            raise InvalidFieldError(f"unknown field kind {self.kind!r}")

    @classmethod
    def prime(cls, p: int) -> FieldSpec:
        return cls(PRIME, p)

    @classmethod
    def rational(cls) -> FieldSpec:
        return cls(RATIONAL)

    @property
    def is_prime_field(self) -> bool:
        return self.kind == PRIME

    def __str__(self) -> str:
        return f"GF({self.p})" if self.kind == PRIME else "Q"

    # ---- raw element arithmetic (int residues / Fractions) ----

    def zero(self):
        return 0 if self.kind == PRIME else Fraction(0)

    def one(self):
        return 1 if self.kind == PRIME else Fraction(1)

    def coerce(self, x):
        """Bring an int, Fraction or string (a JSON element: "num/den" over Q)
        into canonical element form; a float or bool is rejected, not truncated."""
        if isinstance(x, (float, bool)):
            raise InvalidFieldError(f"{x!r} is not an exact field element")
        if self.kind == PRIME:
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise DivisionByZeroError(f"denominator of {x} vanishes mod {self.p}")
                return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p
            return int(x) % self.p
        return Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == PRIME else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == PRIME else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == PRIME else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == PRIME else -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZeroError("inverse of zero")
        if self.kind == PRIME:
            return pow(a, self.p - 2, self.p)
        return Fraction(1) / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # ---- JSON ----

    def to_json(self) -> dict:
        if self.kind == PRIME:
            return {"kind": PRIME, "p": self.p}
        return {"kind": RATIONAL}

    @classmethod
    def from_json(cls, obj: dict) -> FieldSpec:
        return cls(obj["kind"], obj.get("p"))

    def encode(self, x):
        """JSON value for one element: an int for GF(p), "num/den" for rationals."""
        if self.kind == PRIME:
            return int(x)
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
