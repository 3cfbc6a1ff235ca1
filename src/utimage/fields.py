"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Every scalar carries its field description and arithmetic never mixes
fields: combining scalars of different fields raises FieldMismatch instead
of coercing.  Rationals ride on fractions.Fraction (arbitrary precision, so
back-substitution cannot overflow); prime-field residues are stored as the
least nonnegative representative and inverted with pow(value, -1, p).

``Scalar`` is the boundary type.  Matrices and linear systems hold raw
values, the ``Scalar.value`` of each element, and ``FieldSpec.reduce``
brings their exact sums and products back to canonical form.

Text encodings, used verbatim in JSON files and CLI output:

* rationals: ``a`` or ``a/b`` with the sign on the numerator and b > 0,
* GF(p) elements: a decimal in [0, p).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import errors

RATIONAL = "rational"
PRIME = "gf"

# Trial division is plenty for the moduli this library targets; refuse
# anything where it would not be.
PRIME_CAP = 1 << 31

_RATIONAL_TEXT = re.compile(r"[+-]?\d+(?:/\d+)?\Z")
_RESIDUE_TEXT = re.compile(r"\d+\Z")
_GF_SPEC = re.compile(r"gf:(\d+)\Z")


def is_prime(p: int) -> bool:
    """Deterministic trial division, sufficient for moduli below PRIME_CAP."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def parse_int(digits: str) -> int:
    """int() of a decimal literal; one longer than Python converts to int
    is a ParseError rather than a ValueError."""
    try:
        return int(digits)
    except ValueError as exc:
        raise errors.ParseError(f"{len(digits)}-character literal is too long") from exc


def value_text(value) -> str:
    """The text encoding of a raw value."""
    try:
        return str(value)
    except ValueError as exc:  # past Python's int-to-decimal digit limit
        raise errors.CapExceeded(f"value too long to write: {exc}") from exc


@dataclass(frozen=True)
class FieldSpec:
    """The ground field: either the rationals or GF(p) for a prime p."""

    kind: str
    p: int | None = None

    @classmethod
    def rational(cls) -> "FieldSpec":
        return cls(RATIONAL)

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        if p >= PRIME_CAP:
            raise errors.MalformedSpec(f"modulus {p} exceeds the supported cap 2^31")
        if p < 2:
            raise errors.MalformedSpec(f"modulus must be at least 2, got {p}")
        if not is_prime(p):
            raise errors.NotPrime(f"{p} is not prime")
        return cls(PRIME, p)

    @classmethod
    def from_text(cls, text: str) -> "FieldSpec":
        """Parse "rational" or "gf:<p>"."""
        if text == RATIONAL:
            return cls.rational()
        match = _GF_SPEC.match(text)
        if match is None:
            raise errors.MalformedSpec(f"unrecognized field {text!r}")
        return cls.gf(parse_int(match.group(1)))

    def to_text(self) -> str:
        return RATIONAL if self.kind == RATIONAL else f"gf:{self.p}"

    def __str__(self) -> str:
        return self.to_text()

    @property
    def is_rational(self) -> bool:
        return self.kind == RATIONAL

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, Fraction(0) if self.is_rational else 0)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, Fraction(1) if self.is_rational else 1)

    def reduce(self, value):
        """A raw sum or product in canonical form: its residue mod p."""
        return value if self.p is None else value % self.p

    def scalar(self, value: Union[int, Fraction, str]) -> "Scalar":
        """Make a scalar of this field from an int, Fraction, or text."""
        if isinstance(value, str):
            return self.parse(value)
        if self.is_rational:
            return Scalar(self, Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise errors.ParseError(f"{value} is not an integer residue")
            value = value.numerator
        return Scalar(self, value % self.p)

    def parse(self, text: str) -> "Scalar":
        """Parse the canonical text encoding of one scalar of this field."""
        if self.is_rational:
            if _RATIONAL_TEXT.match(text) is None:
                raise errors.ParseError(f"bad rational literal {text!r}")
            if "/" in text and text.split("/", 1)[1].lstrip("0") == "":
                raise errors.ParseError(f"zero denominator in {text!r}")
            num, _, den = text.partition("/")
            return Scalar(self, Fraction(parse_int(num), parse_int(den or "1")))
        if _RESIDUE_TEXT.match(text) is None:
            raise errors.ParseError(f"bad GF({self.p}) literal {text!r}")
        value = parse_int(text)
        if value >= self.p:
            raise errors.ParseError(f"residue {value} outside [0, {self.p})")
        return Scalar(self, value)


class Scalar:
    """An immutable field element in canonical form.

    Canonical means: reduced fraction with positive denominator for the
    rationals, least nonnegative residue for GF(p).  Two scalars compare
    equal exactly when they are mathematically equal in the same field.
    """

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, _value):
        raise AttributeError(f"Scalar is immutable, cannot set {name!r}")

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.spec != self.spec:
                raise errors.FieldMismatch(f"{self.spec} vs {other.spec}")
            return other
        if isinstance(other, int):
            return self.spec.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.spec, self.spec.reduce(self.value + other.value))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.spec, self.spec.reduce(self.value - other.value))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.spec, self.spec.reduce(self.value * other.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __neg__(self):
        return Scalar(self.spec, self.spec.reduce(-self.value))

    def inv(self) -> "Scalar":
        """Multiplicative inverse; raises DivisionByZero on zero."""
        if self.is_zero:
            raise errors.DivisionByZero(f"cannot invert zero in {self.spec}")
        p = self.spec.p
        return Scalar(self.spec, 1 / self.value if p is None else pow(self.value, -1, p))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_one(self) -> bool:
        return self.value == 1

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.spec == other.spec and self.value == other.value

    def __hash__(self):
        return hash((self.spec, self.value))

    def to_text(self) -> str:
        return value_text(self.value)

    def __repr__(self):
        return f"Scalar({self.value}, {self.spec})"
