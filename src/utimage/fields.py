"""Exact field elements over the rationals and over prime fields GF(p).

A field element is a raw value: a fractions.Fraction over the rationals
(arbitrary precision, so back-substitution cannot overflow), an int in
[0, p) over GF(p).  Raw values carry no field, so ``FieldSpec`` owns their
arithmetic: ``element`` canonicalises an int, Fraction or text, and
``reduce`` brings an exact sum or product back to canonical form.
Containers (matrices and polynomials) carry the field and refuse to mix
two of them.

Inside the containers and the solver, values are integer numerators over
one shared denominator, so that no Fraction is built, normalised or
compared on the way from parsed text to written text, and ``FieldSpec``
owns that storage rule too: ``parts`` reads a value as a numerator and a
denominator (a residue over 1 over GF(p)), ``canonical`` brings
numerators over any nonzero denominator to the stored form (lowest terms
over Q, residues over 1 over GF(p)), and ``values`` reads stored
numerators back as raw values.  ``common_denominator`` sums (numerator,
denominator) pairs over the lcm of their denominators, and
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
_Q_ZERO = Fraction(0)


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


def common_denominator(parts: list, den: int = 1) -> tuple[dict, int]:
    """Rationals num / d given as a list of (key, num, d) triples, summed by
    key, as numerators over the lcm of the denominators, and that lcm.  The
    sum runs over den, 1 at first; a fraction restarts it over the lcm."""
    nums: dict = {}
    for key, num, d in parts:
        if d != den:
            if den == 1:
                return common_denominator(parts, math.lcm(*[d for _key, _num, d in parts]))
            num *= den // d
        nums[key] = nums[key] + num if key in nums else num
    return nums, den


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

    def reduce(self, value):
        """A raw sum or product in canonical form: its residue mod p."""
        return value if self.p is None else value % self.p

    def parts(self, value: int | Fraction | str) -> tuple[int, int]:
        """A numerator and a positive denominator of an int, a Fraction or
        text, not reduced; over GF(p) the residue over 1.

        Anything else, a bool or a float included, is a ParseError: a
        float is not exact, and a bool is not a number.  Over GF(p) a
        Fraction must be an integer, and text a bare residue (``parse``).
        """
        p = self.p
        if type(value) is int:
            return value if p is None else value % p, 1
        if isinstance(value, str):
            if p is not None:
                return self.parse(value), 1
            match = _RATIONAL_TEXT.match(value)
            if match is None:
                raise errors.ParseError(f"bad rational literal {value!r}")
            return rational_literal(*match.groups())
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise errors.ParseError(
                f"{type(value).__name__} {value!r} is not an exact field element"
            )
        if p is None:
            return value.numerator, value.denominator
        if value.denominator != 1:
            raise errors.ParseError(f"{value} is not an integer residue")
        return value.numerator % p, 1

    def element(self, value: int | Fraction | str):
        """The canonical raw value of an int, a Fraction or text (``parts``)."""
        num, den = self.parts(value)
        return Fraction(num, den) if self.p is None else num

    def canonical(self, nums: dict, den: int = 1) -> tuple[dict, int]:
        """Values nums[key] / den, for ints and a den nonzero in the field,
        in the stored form, zeros dropped: over Q in lowest terms with
        den > 0, the lcm of the values' reduced denominators (``nums``
        itself when already so); over GF(p) residues over 1."""
        p = self.p
        if p is None:
            g = math.gcd(den, *nums.values())
            if den < 0:
                g = -g
            if g != 1 or not all(nums.values()):
                nums = {key: v // g for key, v in nums.items() if v}
            return nums, den // g
        if den != 1:
            inv = pow(den, -1, p)
            nums = {key: v * inv for key, v in nums.items()}
        residues = {}
        for key, v in nums.items():  # cheaper than a comprehension on few keys
            r = v % p
            if r:
                residues[key] = r
        return residues, 1

    def values(self, nums, den: int = 1):
        """Numerators over den as raw values, in a dict for a dict, else in
        a tuple: Fractions over Q; over GF(p) (den 1) a dict itself."""
        if self.p is not None:
            return nums if type(nums) is dict else tuple(nums)
        if type(nums) is dict:
            return {key: Fraction(v, den) for key, v in nums.items()}
        return tuple([Fraction(v, den) for v in nums])

    def parse(self, text: str):
        """Parse the canonical text encoding of one element of this field."""
        if self.p is None:
            return self.element(text)
        # ASCII digits only: no sign, blank, '_' or other script's digit,
        # each of which int() takes.
        if not (text.isascii() and text.isdigit()):
            raise errors.ParseError(f"bad GF({self.p}) literal {text!r}")
        value = parse_int(text)
        if value >= self.p:
            raise errors.ParseError(f"residue {value} outside [0, {self.p})")
        return value
