"""Exact field elements over the rationals and over prime fields GF(p).

A field element is a raw value: a fractions.Fraction over the rationals
(arbitrary precision, so back-substitution cannot overflow), an int in
[0, p) over GF(p).  Raw values carry no field, so ``FieldSpec`` owns their
arithmetic: ``element`` canonicalises an int, Fraction or text,
``reduce`` brings an exact sum or product back to canonical form, and
``inv`` inverts with pow(value, -1, p).  Containers (matrices and
polynomials) carry the field and refuse to mix two of them.

Inside the containers and the solver, rationals are integer numerators
over one shared denominator, so that no Fraction is built, normalised or
compared on the way from parsed text to written text: ``rational_parts``
reads a value as a numerator and a denominator, ``common_denominator``
sums such pairs over the lcm of their denominators, ``lowest_terms``
brings numerators over a shared denominator to canonical form, and
``ratio_text`` writes one of them.

Text encodings, used verbatim in JSON files and CLI output, in ASCII
digits only:

* rationals: ``a`` or ``a/b`` with the sign on the numerator and b > 0,
* GF(p) elements: a decimal in [0, p).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import errors

RATIONAL = "rational"

# Trial division is plenty for the moduli this library targets; refuse
# anything where it would not be.
PRIME_CAP = 1 << 31

_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")
_GF_SPEC = re.compile(r"gf:([0-9]+)\Z")
_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)


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
    """The text encoding of a raw value, or of any int."""
    return ratio_text(value.numerator, value.denominator)


def ratio_text(num: int, den: int) -> str:
    """The text encoding of num / den, for a denominator den > 0: the
    quotient in lowest terms, so a GF(p) residue over 1 is its decimal."""
    try:
        if den == 1:
            return str(num)
        g = math.gcd(num, den)
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError as exc:  # past Python's int-to-decimal digit limit
        raise errors.CapExceeded(f"value too long to write: {exc}") from exc


def rational_parts(value) -> tuple[int, int]:
    """A numerator and a positive denominator of a rational given as an
    int, a Fraction or text, not reduced; anything else, a bool or a float
    included, is a ParseError."""
    if isinstance(value, str):
        match = _RATIONAL_TEXT.match(value)
        if match is None:
            raise errors.ParseError(f"bad rational literal {value!r}")
        return rational_literal(*match.groups())
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise errors.ParseError(
            f"{type(value).__name__} {value!r} is not an exact field element"
        )
    return value.numerator, value.denominator


def rational_literal(num: str, den: str | None) -> tuple[int, int]:
    """The numerator and denominator of the literal ``num/den``, or of
    ``num`` when den is None, from its digit runs (num may be signed)."""
    if den is not None and den.lstrip("0") == "":
        raise errors.ParseError(f"zero denominator in {num + '/' + den!r}")
    try:
        return int(num), 1 if den is None else int(den)
    except ValueError:  # name the literal too long for int()
        parse_int(num)
        parse_int(den)
        raise


def common_denominator(parts) -> tuple[dict, int]:
    """Rationals num / d given as (key, num, d) triples, summed by key, as
    numerators over the lcm of the denominators, and that lcm."""
    den = math.lcm(*[d for _key, _num, d in parts])
    nums: dict = {}
    for key, num, d in parts:
        if d != den:
            num *= den // d
        nums[key] = nums[key] + num if key in nums else num
    return nums, den


def lowest_terms(nums: dict, den: int) -> tuple[dict, int]:
    """Rationals nums[key] / den, for a denominator den > 0, in canonical
    form: zeros dropped, and den and the numerators freed of their common
    factor, so that den is the lcm of the values' reduced denominators.
    ``nums`` itself comes back when it is already in that form."""
    g = math.gcd(den, *nums.values())
    if g != 1 or not all(nums.values()):
        nums = {key: v // g for key, v in nums.items() if v}
    return nums, den // g


class FieldSpec:
    """The ground field: GF(p) for a prime p, or the rationals when p is None.

    Immutable, and equal and hashed by ``p``.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.p == other.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p,))

    def __repr__(self):
        return f"FieldSpec(p={self.p!r})"

    def __reduce__(self):  # copy and pickle, which would assign p
        return FieldSpec, (self.p,)

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        if p >= PRIME_CAP:
            raise errors.MalformedSpec(f"modulus {p} exceeds the supported cap 2^31")
        if p < 2:
            raise errors.MalformedSpec(f"modulus must be at least 2, got {p}")
        if not is_prime(p):
            raise errors.NotPrime(f"{p} is not prime")
        return cls(p)

    @classmethod
    def from_text(cls, text: str) -> "FieldSpec":
        """Parse "rational" or "gf:<p>"."""
        if text == RATIONAL:
            return cls()
        match = _GF_SPEC.match(text)
        if match is None:
            raise errors.MalformedSpec(f"unrecognized field {text!r}")
        return cls.gf(parse_int(match.group(1)))

    def to_text(self) -> str:
        return RATIONAL if self.p is None else f"gf:{self.p}"

    def __str__(self) -> str:
        return self.to_text()

    @property
    def zero(self):
        return _Q_ZERO if self.p is None else 0

    @property
    def one(self):
        return _Q_ONE if self.p is None else 1

    def reduce(self, value):
        """A raw sum or product in canonical form: its residue mod p."""
        return value if self.p is None else value % self.p

    def element(self, value: int | Fraction | str):
        """The canonical raw value of an int, a Fraction or text.

        Anything else, a bool or a float included, is a ParseError: a
        float is not exact, and a bool is not a number.  A value that is
        already canonical comes back as it is.
        """
        if self.p is None:
            if type(value) is Fraction:
                return value
            return Fraction(*rational_parts(value))
        if type(value) is int and 0 <= value < self.p:
            return value
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise errors.ParseError(
                f"{type(value).__name__} {value!r} is not an exact field element"
            )
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise errors.ParseError(f"{value} is not an integer residue")
            value = value.numerator
        return value % self.p

    def inv(self, value):
        """The multiplicative inverse of a raw value; DivisionByZero on zero."""
        if not value:
            raise errors.DivisionByZero(f"cannot invert zero in {self}")
        return Fraction(1, value) if self.p is None else pow(value, -1, self.p)

    def parse(self, text: str):
        """Parse the canonical text encoding of one element of this field."""
        if self.p is None:
            return Fraction(*rational_parts(text))
        # ASCII digits only: no sign, blank, '_' or other script's digit,
        # each of which int() takes.
        if not (text.isascii() and text.isdigit()):
            raise errors.ParseError(f"bad GF({self.p}) literal {text!r}")
        value = parse_int(text)
        if value >= self.p:
            raise errors.ParseError(f"residue {value} outside [0, {self.p})")
        return value
