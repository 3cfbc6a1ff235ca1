"""Multilinear polynomials in noncommuting variables.

A multilinear polynomial of degree m is a sum over permutations s of
{1..m} of coefficients times the monomial x_{s(1)} * ... * x_{s(m)}, so a
polynomial is stored as a map from permutations to nonzero raw field
values.

Text grammar, read one term per regular-expression match (blanks allowed
between any two tokens)::

    poly   := [sign] term (sign term)*
    term   := [coeff '*'] factor ('*' factor)*
    factor := 'x' uint
    coeff  := [sign] uint ['/' uint]    over Q; a bare uint over GF(p)
    sign   := '+' | '-'

Every monomial must contain each of x1..xm exactly once for one common m.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping, Sequence
from fractions import Fraction

from . import errors
from .fields import FieldSpec, parse_int, value_text
from .triangular import StrictUT, by_row, sparse_product


class Permutation(tuple):
    """A bijection of {1..m}: the tuple of images of 1..m, so it hashes,
    compares and sorts as that tuple; ``sigma(i)`` reads one image.  It
    checks nothing: ``MultilinearPoly`` checks the keys it stores."""

    __slots__ = ()

    def __call__(self, i: int) -> int:
        return self[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, j in enumerate(self, start=1):
            inv[j - 1] = i
        return Permutation(inv)

    def __repr__(self):
        return f"Permutation({list(self)})"


class NormalizedPoly:
    """A polynomial rewritten to have coefficient one at the identity.

    ``core`` is the rewritten polynomial, ``scale`` the original nonzero
    coefficient that was divided out, and ``relabel`` the variable
    relabeling that moves witnesses back: for all argument tuples,

        original(b_1, ..., b_m) = scale * core(a_1, ..., a_m)

    whenever b_j = a_{relabel(j)}.
    """

    __slots__ = ("core", "relabel", "scale")

    def __init__(self, core: MultilinearPoly, relabel: Permutation, scale):
        self.core = core
        self.relabel = relabel
        self.scale = scale

    def transfer(self, args: Sequence) -> tuple:
        """Rearrange arguments for ``core`` into arguments for the original."""
        return tuple([args[j - 1] for j in self.relabel])


class MultilinearPoly:
    """Degree-m multilinear polynomial in noncommuting variables x1..xm."""

    __slots__ = ("m", "spec", "coeffs")

    def __init__(self, m: int, spec: FieldSpec, coeffs: Mapping[Sequence[int], object]):
        # Each key is a sequence of images, stored as a Permutation; each
        # coefficient is an int, Fraction or text, canonicalised by
        # ``spec.element``; zero coefficients are dropped.  Every key is
        # checked to be a permutation of 1..len(key) before any is checked
        # for degree m, so a text's first fault is the one reported.
        if m < 1:
            raise ValueError(f"degree must be at least 1, got {m}")
        identity = list(range(1, m + 1))
        for key in coeffs:
            images = sorted(key)
            if images != identity and images != list(range(1, len(key) + 1)):
                raise errors.NotMultilinear(_multilinear_fault(key))
        cleaned = {}
        for key, value in coeffs.items():
            if len(key) != m:
                raise errors.InconsistentDegree(
                    f"monomial of degree {len(key)} in a degree-{m} polynomial"
                )
            value = spec.element(value)
            if value:
                cleaned[Permutation(key)] = value
        self.m = m
        self.spec = spec
        self.coeffs = cleaned

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, args: Sequence[StrictUT]) -> StrictUT:
        """Evaluate at a tuple of m strictly upper triangular matrices.

        Each term is a chain of sparse products on exact Python ints.  Over
        Q each argument and the coefficients are scaled by the lcm of their
        denominators, and as every monomial holds each argument once, one
        division per entry undoes the scaling exactly.  Nothing is reduced
        mod p, nor freed of zeros, until the terms are summed.
        """
        if len(args) != self.m:
            raise errors.DimensionMismatch(
                f"expected {self.m} arguments, got {len(args)}"
            )
        n = args[0].n
        for a in args:
            if a.n != n:
                raise errors.DimensionMismatch(f"{a.n} vs {n}")
            if a.spec is not self.spec and a.spec != self.spec:
                raise errors.FieldMismatch(f"{a.spec} argument in {self.spec} poly")
        p = self.spec.p
        factors = [a.entries for a in args]
        coeffs = self.coeffs.items()
        if p is None:
            scales = [math.lcm(*(v.denominator for v in f.values())) for f in factors]
            factors = [
                {key: v.numerator * (scale // v.denominator) for key, v in f.items()}
                for f, scale in zip(factors, scales)
            ]
            scale = math.lcm(*(c.denominator for c in self.coeffs.values()))
            coeffs = [(sigma, c.numerator * (scale // c.denominator)) for sigma, c in coeffs]
            scale *= math.prod(scales)
        rows = [by_row(f) for f in factors]
        total: dict = {}
        for sigma, coeff in coeffs:
            prod = factors[sigma[0] - 1]
            for var in sigma[1:]:
                if not prod:
                    break
                prod = sparse_product(prod, rows[var - 1])
            for key, v in prod.items():
                total[key] = total.get(key, 0) + coeff * v
        if p is None:
            entries = {key: Fraction(v, scale) for key, v in total.items() if v}
        else:
            entries = {key: r for key, v in total.items() if (r := v % p)}
        return StrictUT(n, self.spec, entries)

    def normalize(self) -> NormalizedPoly:
        """Divide out a nonzero coefficient and relabel variables so the
        identity monomial has coefficient one.

        The chosen monomial is the lexicographically least permutation with
        a nonzero coefficient, which makes the result deterministic.
        """
        if self.is_zero:
            raise errors.ZeroPolynomial("cannot normalize the zero polynomial")
        sigma0 = min(self.coeffs)
        scale = self.coeffs[sigma0]
        relabel = sigma0.inverse()
        inverse = self.spec.inv(scale)
        p = self.spec.p
        core = {
            tuple([relabel[j - 1] for j in sigma]): (
                coeff * inverse if p is None else coeff * inverse % p
            )
            for sigma, coeff in self.coeffs.items()
        }
        return NormalizedPoly(MultilinearPoly(self.m, self.spec, core), relabel, scale)

    def __eq__(self, other):
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return (
            self.m == other.m
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def to_text(self) -> str:
        """Canonical text form, reparseable except for the zero polynomial."""
        if self.is_zero:
            return "0"
        pieces = []
        for sigma in sorted(self.coeffs):
            coeff = self.coeffs[sigma]
            mono = "*".join(f"x{v}" for v in sigma)
            if self.spec.p is None and coeff < 0:
                sign, body = "-", -coeff
            else:
                sign, body = "+", coeff
            text = mono if body == 1 else f"{value_text(body)}*{mono}"
            if not pieces:
                pieces.append(text if sign == "+" else "-" + text)
            else:
                pieces.append(f" {sign} {text}")
        return "".join(pieces)

    def __repr__(self):
        return f"MultilinearPoly({self.to_text()!r}, {self.spec})"


# One term: sign, coefficient with a sign of its own, monomial.  Each blank
# run precedes a token, so a failed match backtracks over it only once.
_TERM = re.compile(
    r"(?:\s*([+-]))?(?:(?:\s*([+-]))?\s*(\d+)(?:\s*/\s*(\d+))?\s*\*)?"
    r"\s*(x\d+(?:\s*\*\s*x\d+)*)\s*"
)
_DIGITS = re.compile(r"\d+")


def _multilinear_fault(variables: list[int]) -> str:
    """Name the variable that keeps a monomial from using each of x1..xd
    exactly once, where d is its length."""
    monomial = "*".join(f"x{v}" for v in variables)
    seen = set()
    for v in variables:
        if v < 1:
            return f"monomial {monomial} uses x{v}; variables start at x1"
        if v in seen:
            return f"monomial {monomial} repeats x{v}"
        seen.add(v)
    missing = min(set(range(1, len(variables) + 1)) - seen)
    return (
        f"monomial {monomial} lacks x{missing}; a degree-{len(variables)} "
        f"monomial uses each of x1..x{len(variables)} exactly once"
    )


def parse_poly(text: str, spec: FieldSpec) -> MultilinearPoly:
    """Parse polynomial text over the given field.

    Like monomials are combined and zero sums dropped, so cancellation can
    yield the zero polynomial (empty coefficient map); callers that need a
    nonzero polynomial must check ``is_zero`` themselves.
    """
    if not text or text.isspace():
        raise errors.ParseError("empty polynomial")
    p = spec.p
    raw: dict[tuple, object] = {}
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if match is None or (pos and match[1] is None):
            raise errors.ParseError(f"expected a signed term at {text[pos:pos + 40]!r}")
        sign, inner, num, den, monomial = match.groups()
        if num is None:
            coeff = 1
        elif p is not None and (inner or den is not None):
            raise errors.ParseError(f"a GF({p}) coefficient is a bare residue")
        else:
            coeff = spec.parse(num if den is None else f"{num}/{den}")
        # Rational text carries its sign on the numerator, so over Q a term
        # may open with a signed coefficient like -2/3: two signs cancel.
        if (sign == "-") != (inner == "-"):
            coeff = -coeff
        try:  # int() skips the blanks the grammar allows around '*'
            key = tuple(map(int, monomial.replace("x", "").split("*")))
        except ValueError:  # a literal too long for int(): name it
            key = tuple(map(parse_int, _DIGITS.findall(monomial)))
        raw[key] = raw[key] + coeff if key in raw else coeff
        pos = match.end()
    return MultilinearPoly(len(next(iter(raw))), spec, raw)
