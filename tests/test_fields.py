import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from utimage import errors
from utimage.fields import PRIME_CAP, FieldSpec, is_prime

# 2^31 - 1 is prime: the largest modulus below PRIME_CAP = 2^31.
LARGEST_PRIME = PRIME_CAP - 1

fractions_st = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


def test_field_from_text():
    assert FieldSpec.from_text("rational") == FieldSpec.rational()
    assert FieldSpec.from_text("gf:2") == FieldSpec.gf(2)
    assert FieldSpec.from_text("gf:7919").p == 7919


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
            assert spec.scalar(v) * spec.scalar(v).inv() == spec.one


@given(st.integers(1, LARGEST_PRIME - 1))
def test_inverse_largest_modulus(v):
    spec = FieldSpec.gf(LARGEST_PRIME)
    assert spec.scalar(v) * spec.scalar(v).inv() == spec.one


def test_rational_examples(rational):
    assert rational.scalar("2/3") + rational.scalar("1/6") == rational.scalar("5/6")
    assert (rational.scalar(2) / rational.scalar(3)).to_text() == "2/3"
    assert (-rational.scalar("1/2")).to_text() == "-1/2"


def test_gf5_examples(gf5):
    assert gf5.scalar(3) * gf5.scalar(4) == gf5.scalar(2)
    assert gf5.scalar(2).inv() == gf5.scalar(3)
    assert gf5.scalar(1) - gf5.scalar(3) == gf5.scalar(3)


def test_division_by_zero(rational, gf5):
    for spec in (rational, gf5):
        with pytest.raises(errors.DivisionByZero):
            spec.one / spec.zero
        with pytest.raises(errors.DivisionByZero):
            spec.zero.inv()


def test_field_mismatch(rational, gf2):
    with pytest.raises(errors.FieldMismatch):
        rational.one + gf2.one


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_axioms_exhaustive(p):
    spec = FieldSpec.gf(p)
    elems = [spec.scalar(v) for v in range(p)]
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
    for a in elems:
        assert a + (-a) == spec.zero
        assert a * spec.one == a
        if not a.is_zero:
            assert a * a.inv() == spec.one


@given(fractions_st, fractions_st, fractions_st)
def test_field_axioms_rational(x, y, z):
    spec = FieldSpec.rational()
    a, b, c = spec.scalar(x), spec.scalar(y), spec.scalar(z)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == spec.zero
    if not b.is_zero:
        assert (a / b) * b == a


@given(fractions_st)
def test_rational_text_round_trip(x):
    spec = FieldSpec.rational()
    a = spec.scalar(x)
    assert spec.parse(a.to_text()) == a


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gf_text_round_trip(p):
    spec = FieldSpec.gf(p)
    for v in range(p):
        a = spec.scalar(v)
        assert spec.parse(a.to_text()) == a


def test_parse_accepts_unreduced_fraction(rational):
    assert rational.parse("4/6") == rational.scalar("2/3")
    assert rational.parse("-2/4").to_text() == "-1/2"


@pytest.mark.parametrize("text", ["1/0", "2/", "/3", "1.5", "a", "", "1/-2"])
def test_rational_parse_errors(text, rational):
    with pytest.raises(errors.ParseError):
        rational.parse(text)


@pytest.mark.parametrize("text", ["5", "7", "-1", "1/2", ""])
def test_gf5_parse_errors(text, gf5):
    with pytest.raises(errors.ParseError):
        gf5.parse(text)


def test_scalar_is_hashable_and_immutable(gf3):
    a = gf3.scalar(2)
    assert hash(a) == hash(gf3.scalar(2))
    assert len({a, gf3.scalar(2), gf3.scalar(1)}) == 2
    with pytest.raises(AttributeError):
        a.value = 0


def test_int_coercion_in_arithmetic(gf5, rational):
    assert gf5.scalar(3) + 4 == gf5.scalar(2)
    assert 2 * rational.scalar("1/2") == rational.one


def test_gf_canonical_residues(gf5):
    assert gf5.scalar(-1) == gf5.scalar(4)
    assert gf5.scalar(Fraction(10)) == gf5.zero
    with pytest.raises(errors.ParseError):
        gf5.scalar(Fraction(1, 2))
