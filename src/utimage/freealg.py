"""Multilinear polynomials in noncommuting variables.

A multilinear polynomial of degree m is a sum over permutations s of
{1..m} of coefficients times the monomial x_{s(1)} * ... * x_{s(m)}, so a
polynomial is stored as a map from permutations to nonzero coefficients:
integer numerators over one shared denominator, as matrices store their
entries (see ``triangular``), read as raw values through ``coeffs``.

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

from . import errors
from .fields import FieldSpec, common_denominator, parse_int, rational_literal, value_text

TYPE_CHECKING = False
if TYPE_CHECKING:  # only evaluate needs matrices, so verify never loads them
    from .triangular import StrictUT


def by_row(entries: dict) -> dict[int, list[tuple]]:
    """Index sparse entries by row: row -> [(col, value), ...]."""
    rows: dict[int, list[tuple]] = {}
    for (row, col), value in entries.items():
        rows.setdefault(row, []).append((col, value))
    return rows


def sparse_product(left: dict, right_rows: dict) -> dict:
    """Entries of left * right, with right indexed by ``by_row``: exact
    sums of integer products, neither reduced mod p nor freed of zeros."""
    acc: dict = {}
    for (row, mid), a in left.items():
        for col, b in right_rows.get(mid, ()):
            key = (row, col)
            acc[key] = acc.get(key, 0) + a * b
    return acc


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
    """Degree-m multilinear polynomial in noncommuting variables x1..xm.

    ``_nums`` maps each monomial's Permutation to its coefficient's
    numerator over ``_den``, in the form ``FieldSpec.canonical`` gives
    (residues over 1 over GF(p)); the solver reads them directly.
    """

    __slots__ = ("m", "spec", "_nums", "_den", "_coeffs")

    def __init__(self, m: int, spec: FieldSpec, coeffs: Mapping[Sequence[int], object]):
        # Each key is a sequence of images, stored as a Permutation; each
        # coefficient is an int, Fraction or text of the field; zero
        # coefficients are dropped.
        if m < 1:
            raise ValueError(f"degree must be at least 1, got {m}")
        _check_keys(m, coeffs)
        self._store(m, spec, *common_denominator(
            [(Permutation(key), *spec.parts(value)) for key, value in coeffs.items()]
        ))

    def _store(self, m: int, spec: FieldSpec, nums: dict, den: int) -> None:
        """Set the fields from coefficients nums[sigma] / den, for any ints
        and a nonzero den, trusting the Permutation keys."""
        self.m = m
        self.spec = spec
        self._nums, self._den = spec.canonical(nums, den)
        self._coeffs = None

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients by Permutation, as raw values
        (Fractions over Q, built on the first read)."""
        if self._coeffs is None:
            self._coeffs = self.spec.values(self._nums, self._den)
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def evaluate(self, args: Sequence[StrictUT]) -> StrictUT:
        """Evaluate at a tuple of m strictly upper triangular matrices.

        Each term is a chain of sparse products on the integer numerators
        of the arguments.  Over Q, as every monomial holds each argument
        once, the sums are numerators over the product of the
        coefficients' and the arguments' denominators.  Nothing is reduced
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
        from .triangular import from_numerators

        factors = [a._nums for a in args]
        rows = [by_row(f) for f in factors]
        total: dict = {}
        for sigma, coeff in self._nums.items():
            prod = factors[sigma[0] - 1]
            for var in sigma[1:]:
                if not prod:
                    break
                prod = sparse_product(prod, rows[var - 1])
            for key, v in prod.items():
                total[key] = total.get(key, 0) + coeff * v
        den = self._den * math.prod([a._den for a in args])
        return from_numerators(n, self.spec, *self.spec.canonical(total, den))

    def normalize(self) -> NormalizedPoly:
        """Divide out a nonzero coefficient and relabel variables so the
        identity monomial has coefficient one.

        The chosen monomial is the lexicographically least permutation with
        a nonzero coefficient, which makes the result deterministic.
        Dividing numerators over a shared denominator by the numerator
        ``lead`` of the chosen one leaves them over ``lead``.
        """
        if self.is_zero:
            raise errors.ZeroPolynomial("cannot normalize the zero polynomial")
        sigma0 = min(self._nums)
        lead = self._nums[sigma0]
        relabel = sigma0.inverse()
        core = MultilinearPoly.__new__(MultilinearPoly)
        core._store(self.m, self.spec, {
            Permutation([relabel[j - 1] for j in sigma]): coeff
            for sigma, coeff in self._nums.items()
        }, lead)
        return NormalizedPoly(core, relabel, self.spec.values((lead,), self._den)[0])

    def __eq__(self, other):
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return (
            self.m == other.m
            and self.spec == other.spec
            and self._den == other._den
            and self._nums == other._nums
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
    r"(?:\s*([+-]))?(?:(?:\s*([+-]))?\s*([0-9]+)(?:\s*/\s*([0-9]+))?\s*\*)?"
    r"\s*(x[0-9]+(?:\s*\*\s*x[0-9]+)*)\s*"
)
_DIGITS = re.compile(r"[0-9]+")


def _check_keys(m: int, keys) -> None:
    """Refuse a key that is not a permutation of 1..len(key), then one of
    length other than m, so that a text's first fault is the one
    reported."""
    identity = list(range(1, m + 1))
    odd = None  # the first permutation of 1..len(key) with len(key) != m
    for key in keys:
        if sorted(key) != identity:
            if sorted(key) != list(range(1, len(key) + 1)):
                raise errors.NotMultilinear(_multilinear_fault(key))
            if odd is None:
                odd = key
    if odd is not None:
        raise errors.InconsistentDegree(
            f"monomial of degree {len(odd)} in a degree-{m} polynomial"
        )


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
    terms = []  # (key, numerator, denominator) per term
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if match is None or (pos and match[1] is None):
            raise errors.ParseError(f"expected a signed term at {text[pos:pos + 40]!r}")
        sign, inner, num, den, monomial = match.groups()
        d = 1
        if num is None:
            coeff = 1
        elif p is None:
            coeff, d = rational_literal(num, den)
        elif inner or den is not None:
            raise errors.ParseError(f"a GF({p}) coefficient is a bare residue")
        else:
            coeff = spec.parse(num)
        # Rational text carries its sign on the numerator, so over Q a term
        # may open with a signed coefficient like -2/3: two signs cancel.
        if (sign == "-") != (inner == "-"):
            coeff = -coeff
        try:  # int() skips the blanks the grammar allows around '*'
            key = Permutation(map(int, monomial.replace("x", "").split("*")))
        except ValueError:  # a literal too long for int(): name it
            key = Permutation(map(parse_int, _DIGITS.findall(monomial)))
        terms.append((key, coeff, d))
        pos = match.end()
    nums, den = common_denominator(terms)
    m = len(next(iter(nums)))
    _check_keys(m, nums)
    poly = MultilinearPoly.__new__(MultilinearPoly)
    poly._store(m, spec, nums, den)
    return poly
