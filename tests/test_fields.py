import copy
import itertools
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from utimage import errors
from utimage.fields import PRIME_CAP, FieldSpec, is_prime, value_text
from utimage.freealg import MultilinearPoly, parse_poly
from utimage.solver import preimage
from utimage.triangular import StrictUT

from conftest import mat

# 2^31 - 1 is prime: the largest modulus below PRIME_CAP = 2^31.
LARGEST_PRIME = PRIME_CAP - 1

fractions_st = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


def test_field_from_text():
    assert FieldSpec.from_text("rational") == FieldSpec()
    assert FieldSpec.from_text("gf:2") == FieldSpec.gf(2)
    assert FieldSpec.from_text("gf:7919").p == 7919


def test_field_spec_is_an_immutable_value():
    # Equal and hashed by p, so specs key dicts and compare across parses.
    assert FieldSpec.gf(5) == FieldSpec(5) != FieldSpec() != "rational"
    assert len({FieldSpec(), FieldSpec(None), FieldSpec.gf(5), FieldSpec(5)}) == 2
    assert repr(FieldSpec.gf(5)) == "FieldSpec(p=5)"
    spec = FieldSpec.gf(5)
    with pytest.raises(AttributeError):
        spec.p = 7
    with pytest.raises(AttributeError):
        del spec.p
    with pytest.raises(AttributeError):
        spec.q = 7
    assert spec.p == 5
    f = parse_poly("x1*x2 - x2*x1", spec)
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied == f and copied.spec == spec


def test_field_from_text_rejects_composite():
    with pytest.raises(errors.NotPrime):
        FieldSpec.from_text("gf:6")


@pytest.mark.parametrize("text", ["gf:1", "gf:0", "gf:-3", "GF:5", "real", "gf:"])
def test_field_from_text_rejects_malformed(text):
    with pytest.raises(errors.MalformedSpec):
        FieldSpec.from_text(text)


def test_modulus_cap():
    with pytest.raises(errors.MalformedSpec):
        FieldSpec.gf(1 << 31)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for k in range(31):
        assert is_prime(k) == (k in primes)


def test_inverse_small_fields():
    for p in (2, 3, 7):
        spec = FieldSpec.gf(p)
        for v in range(1, p):
            assert spec.reduce(v * spec.inv(v)) == spec.one


@given(st.integers(1, LARGEST_PRIME - 1))
def test_inverse_largest_modulus(v):
    spec = FieldSpec.gf(LARGEST_PRIME)
    assert spec.reduce(v * spec.inv(v)) == spec.one


def test_rational_examples(rational):
    assert rational.element("2/3") + rational.element("1/6") == rational.element("5/6")
    assert value_text(rational.element(2) * rational.inv(rational.element(3))) == "2/3"
    assert value_text(-rational.element("1/2")) == "-1/2"


def test_gf5_examples(gf5):
    assert gf5.reduce(3 * 4) == gf5.element(2)
    assert gf5.inv(2) == gf5.element(3)
    assert gf5.reduce(1 - 3) == gf5.element(3)


def test_division_by_zero(rational, gf5):
    for spec in (rational, gf5):
        with pytest.raises(errors.DivisionByZero):
            spec.inv(spec.zero)
        with pytest.raises(errors.DivisionByZero):
            spec.inv(spec.element(0))


def test_field_mismatch(rational, gf2):
    # Raw values carry no field; the containers do, and refuse to mix.
    f = parse_poly("x1*x2", rational)
    with pytest.raises(errors.FieldMismatch):
        f.evaluate([mat(3, rational, [(1, 2, 1)]), mat(3, gf2, [(2, 3, 1)])])
    with pytest.raises(errors.FieldMismatch):
        preimage(f, 3, mat(3, gf2, [(1, 3, 1)]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_axioms_exhaustive(p):
    spec = FieldSpec.gf(p)

    def add(a, b):
        return spec.reduce(a + b)

    def mul(a, b):
        return spec.reduce(a * b)

    elems = [spec.element(v) for v in range(p)]
    for a, b, c in itertools.product(elems, repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
    for a in elems:
        assert add(a, spec.reduce(-a)) == spec.zero
        assert mul(a, spec.one) == a
        if a:
            assert mul(a, spec.inv(a)) == spec.one


@given(fractions_st, fractions_st, fractions_st)
def test_field_axioms_rational(x, y, z):
    spec = FieldSpec()
    a, b, c = spec.element(x), spec.element(y), spec.element(z)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == spec.zero
    if b:
        assert (a * spec.inv(b)) * b == a


@given(fractions_st)
def test_rational_text_round_trip(x):
    spec = FieldSpec()
    a = spec.element(x)
    assert spec.parse(value_text(a)) == a


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gf_text_round_trip(p):
    spec = FieldSpec.gf(p)
    for v in range(p):
        a = spec.element(v)
        assert spec.parse(value_text(a)) == a


def test_parse_accepts_unreduced_fraction(rational):
    assert rational.parse("4/6") == rational.element("2/3")
    assert value_text(rational.parse("-2/4")) == "-1/2"


@pytest.mark.parametrize("text", ["1/0", "2/", "/3", "1.5", "a", "", "1/-2"])
def test_rational_parse_errors(text, rational):
    with pytest.raises(errors.ParseError):
        rational.parse(text)


@pytest.mark.parametrize("text", ["5", "7", "-1", "1/2", ""])
def test_gf5_parse_errors(text, gf5):
    with pytest.raises(errors.ParseError):
        gf5.parse(text)


def test_scalar_is_hashable_and_immutable(gf3, rational):
    # Canonical raw values: equal elements are equal values with equal
    # hashes, and neither ints nor Fractions can be changed in place.
    a = gf3.element(2)
    assert hash(a) == hash(gf3.element(-1))
    assert len({a, gf3.element(5), gf3.element(1)}) == 2
    b = rational.element("2/4")
    assert b == rational.element(Fraction(1, 2)) and hash(b) == hash(Fraction(1, 2))
    for value in (a, b):
        with pytest.raises(AttributeError):
            value.numerator = 0


def test_int_coercion_in_arithmetic(gf5, rational):
    # Ints mix with raw values; reduce brings the result back to canonical.
    assert gf5.reduce(gf5.element(3) + 4) == gf5.element(2)
    assert 2 * rational.element("1/2") == rational.one


def test_gf_canonical_residues(gf5):
    assert gf5.element(-1) == gf5.element(4) == 4
    assert gf5.element(Fraction(10)) == gf5.zero
    with pytest.raises(errors.ParseError):
        gf5.element(Fraction(1, 2))


def test_zero_and_one_are_raw_values(rational, gf5):
    assert type(rational.zero) is Fraction and rational.zero == 0
    assert type(rational.one) is Fraction and rational.one == 1
    assert (gf5.zero, gf5.one) == (0, 1) and type(gf5.one) is int


@pytest.mark.parametrize(
    "value", [2.5, 2.0, True, False, None, Decimal("2"), complex(1, 0), [1]]
)
def test_element_rejects_non_exact_values(value, rational, gf5):
    # Only ints, Fractions and text are field elements: a float is not
    # exact and a bool is not a number, so neither reaches a matrix entry
    # or a polynomial coefficient.
    for spec in (rational, gf5):
        with pytest.raises(errors.ParseError, match="not an exact field element"):
            spec.element(value)
        with pytest.raises(errors.ParseError):
            StrictUT.from_entries(3, spec, [(1, 2, value)])
        with pytest.raises(errors.ParseError):
            mat(3, spec, [(1, 2, 1)]).scaled(value)
        with pytest.raises(errors.ParseError):
            MultilinearPoly(2, spec, {(1, 2): value})


# The storage rule of the containers: ``canonical`` against a reference
# built one value at a time with Fraction or with a modular inverse.
moduli_st = st.sampled_from([None, 2, 3, 5, 7, 101, LARGEST_PRIME])


@given(
    moduli_st,
    st.lists(st.tuples(st.integers(0, 5), st.integers(-10**6, 10**6)), max_size=12),
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(0, 3),
)
def test_canonical_matches_a_value_by_value_reference(p, terms, den, zeros):
    spec = FieldSpec(p)
    if p is not None and den % p == 0:
        den += 1
    nums = {}
    for key, v in terms:  # duplicate keys sum, as the parsers sum them
        nums[key] = nums.get(key, 0) + v
    nums.update((key, 0) for key in range(6, 6 + zeros))
    out, out_den = spec.canonical(dict(nums), den)
    if p is None:
        reference = {k: Fraction(v, den) for k, v in nums.items() if v}
        assert {k: Fraction(v, out_den) for k, v in out.items()} == reference
        assert out_den == math.lcm(*(v.denominator for v in reference.values()))
        assert math.gcd(out_den, *out.values()) == 1
    else:
        reference = {k: r for k, v in nums.items() if (r := v * pow(den, -1, p) % p)}
        assert out == reference and out_den == 1
    assert all(out.values()) and out_den > 0


@given(
    moduli_st,
    st.one_of(
        st.integers(-10**30, 10**30),
        fractions_st,
        fractions_st.map(value_text),
        st.integers(0, 10**12).map(str),
    ),
)
def test_parts_agrees_with_element(p, value):
    spec = FieldSpec(p)
    try:
        expected = spec.element(value)
    except errors.ParseError:
        with pytest.raises(errors.ParseError):
            spec.parts(value)
        return
    num, den = spec.parts(value)
    assert den > 0 and Fraction(num, den) == expected
    assert p is None or (den == 1 and 0 <= num < p)


@pytest.mark.parametrize(
    "p, value", [(None, True), (5, True), (None, 1.5), (5, 1.5), (5, Fraction(1, 2)), (5, "-1")]
)
def test_parts_refuses_what_is_not_an_element(p, value):
    with pytest.raises(errors.ParseError):
        FieldSpec(p).parts(value)
