import itertools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from utimage import errors
from utimage.fields import FieldSpec
from utimage.freealg import MultilinearPoly, Permutation, parse_poly
from utimage.sampling import random_poly
from utimage.solver import image_description, preimage
from utimage.triangular import StrictUT

from conftest import mat, random_strict_ut, scaled, triples


def scalar_evaluate(f, args):
    """f at ``args`` by dense n x n products, each entry reduced with
    ``spec.reduce``: no sparsity and no integer scaling.  Returns the grid
    of entries (row, col) for 1 <= row, col <= n."""
    n, spec = args[0].n, f.spec
    dense = [
        [[a.get(r, c) if r < c else spec.zero for c in range(1, n + 1)]
         for r in range(1, n + 1)]
        for a in args
    ]
    total = [[spec.zero] * n for _ in range(n)]
    for sigma, coeff in f.coeffs.items():
        prod = dense[sigma(1) - 1]
        for t in range(2, f.m + 1):
            right = dense[sigma(t) - 1]
            prod = [
                [spec.reduce(sum(prod[r][k] * right[k][c] for k in range(n)))
                 for c in range(n)]
                for r in range(n)
            ]
        total = [
            [spec.reduce(total[r][c] + coeff * prod[r][c]) for c in range(n)]
            for r in range(n)
        ]
    return total


def assert_matches_reference(f, args):
    """Evaluate f at ``args`` and compare with ``scalar_evaluate`` entry by
    entry; return the value."""
    n, spec = args[0].n, f.spec
    value = f.evaluate(args)
    reference = scalar_evaluate(f, args)
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            assert (value.get(r, c) if r < c else spec.zero) == reference[r - 1][c - 1]
    return value


class TestConstructor:
    def test_rejects_non_bijection(self, rational):
        with pytest.raises(errors.NotMultilinear):
            MultilinearPoly(3, rational, {(1, 1, 3): 1})
        with pytest.raises(errors.NotMultilinear):
            MultilinearPoly(2, rational, {(2, 3): 1})

    @pytest.mark.parametrize(
        "text, keys",
        [
            ("x1*x1", [(1, 1)]),
            ("x1*x3", [(1, 3)]),
            ("x0*x1", [(0, 1)]),
            ("x2*x1 + x1*x2*x3", [(2, 1), (1, 2, 3)]),
            ("x1*x2 + x1*x2*x3 + x1*x1", [(1, 2), (1, 2, 3), (1, 1)]),
        ],
    )
    def test_key_faults_match_the_parser(self, rational, text, keys):
        # The constructor is the one key check, so a fault reads the same
        # whether the keys come from text or from a mapping.
        with pytest.raises(errors.Error) as parsed:
            parse_poly(text, rational)
        with pytest.raises(errors.Error) as built:
            MultilinearPoly(len(keys[0]), rational, dict.fromkeys(keys, 1))
        assert type(built.value) is type(parsed.value)
        assert str(built.value) == str(parsed.value)

    @pytest.mark.parametrize("field_text", ["gf:5", "rational"])
    def test_plain_tuple_keys(self, field_text):
        spec = FieldSpec.from_text(field_text)
        text = "x2*x1*x3 + 2*x1*x3*x2 + 3*x3*x2*x1"
        f = MultilinearPoly(3, spec, {(2, 1, 3): 1, (1, 3, 2): 2, (3, 2, 1): 3})
        assert f == parse_poly(text, spec)
        assert all(isinstance(sigma, Permutation) for sigma in f.coeffs)
        assert f.to_text() == parse_poly(text, spec).to_text()
        norm = f.normalize()
        assert norm.core.coeffs[(1, 2, 3)] == spec.element(1)
        target = StrictUT.from_entries(5, spec, [(1, 4, 1), (2, 5, 2)])
        assert f.evaluate(list(preimage(f, 5, target))) == target


class TestPermutation:
    def test_is_its_image_tuple(self):
        # A permutation hashes, compares and sorts as the tuple of its
        # images, so tuples look up polynomial keys.
        s3 = list(itertools.permutations(range(1, 4)))
        perms = [Permutation(images) for images in reversed(s3)]
        assert sorted(perms) == s3
        assert min(perms) == (1, 2, 3)
        for sigma, images in zip(perms, reversed(s3)):
            assert sigma == images and hash(sigma) == hash(images)
            assert sigma(1) == images[0]
        assert {Permutation([2, 1]): 5}[(2, 1)] == 5
        assert repr(Permutation([2, 3, 1])) == "Permutation([2, 3, 1])"

    def test_group_laws_exhaustive_s4(self):
        s4 = [Permutation(p) for p in itertools.permutations(range(1, 5))]
        assert len(s4) == 24
        for p in s4:
            inverse = p.inverse()
            assert isinstance(inverse, Permutation)
            assert inverse.inverse() == p
            for i in range(1, 5):
                assert inverse(p(i)) == i and p(inverse(i)) == i


class TestParse:
    def test_commutator(self, rational):
        f = parse_poly("x1*x2 - x2*x1", rational)
        assert f.m == 2
        assert f.coeffs == {(1, 2): rational.element(1), (2, 1): -rational.element(1)}

    def test_single_monomial(self, rational):
        f = parse_poly("x1*x2*x3", rational)
        assert f.m == 3
        assert f.coeffs == {(1, 2, 3): rational.element(1)}

    def test_repeated_variable(self, rational):
        with pytest.raises(errors.NotMultilinear, match=r"repeats x1\b"):
            parse_poly("x1*x1*x2", rational)

    def test_missing_variable(self, rational):
        with pytest.raises(errors.NotMultilinear, match=r"lacks x2\b"):
            parse_poly("x1*x3", rational)

    def test_variable_below_x1(self, rational):
        with pytest.raises(errors.NotMultilinear, match=r"uses x0\b"):
            parse_poly("x0", rational)

    def test_inconsistent_degree(self, rational):
        with pytest.raises(errors.InconsistentDegree):
            parse_poly("x1 + x2*x1", rational)

    def test_coefficients(self, rational, gf5):
        f = parse_poly("2/3*x1*x2 + x2*x1", rational)
        assert f.coeffs[(1, 2)] == rational.element("2/3")
        g = parse_poly("3*x1*x2", gf5)
        assert g.coeffs == {(1, 2): gf5.element(3)}

    def test_leading_minus_and_whitespace(self, rational):
        f = parse_poly(" -x1*x2+  2*x2*x1 ", rational)
        assert f.coeffs == {(1, 2): -rational.element(1), (2, 1): rational.element(2)}

    def test_like_monomials_combine(self, rational):
        f = parse_poly("x1*x2 + 2*x1*x2", rational)
        assert f.coeffs == {(1, 2): rational.element(3)}

    def test_cancellation_yields_zero_poly(self, rational):
        f = parse_poly("x1*x2 - x1*x2", rational)
        assert f.is_zero and f.m == 2

    @pytest.mark.parametrize(
        "text", ["", "x1*", "*x1", "x1 x2", "2*", "x1**x2", "x1*x2 +", "y1*y2", "2"]
    )
    def test_grammar_errors(self, text, rational):
        with pytest.raises(errors.ParseError):
            parse_poly(text, rational)

    def test_prime_field_rejects_fraction_coeff(self, gf5):
        with pytest.raises(errors.ParseError):
            parse_poly("1/2*x1*x2", gf5)

    def test_signed_coefficient_text(self, rational, gf5):
        f = parse_poly("x1*x2 + -2/3*x2*x1", rational)
        assert f.coeffs[(2, 1)] == rational.element("-2/3")
        assert parse_poly("-2*x1*x2", rational) == parse_poly("- 2*x1*x2", rational)
        # prime-field scalar text is an unsigned residue
        with pytest.raises(errors.ParseError):
            parse_poly("x1*x2 + -2*x2*x1", gf5)

    def test_text_round_trip(self, rational, gf3):
        rng = random.Random(5)
        for spec in (rational, gf3):
            for m in (2, 3, 4):
                f = random_poly(rng, spec, m)
                assert parse_poly(f.to_text(), spec) == f


GRAMMAR_TOKEN = re.compile(r"x\d+|\d+|[*+/-]")
BLANKS = ["", "", " ", "  ", "\t", " \n "]


class TestGrammarPinned:
    """The polynomial grammar, independent of how the parser reads it."""

    @pytest.mark.parametrize("field_text", ["rational", "gf:5"])
    def test_round_trip_with_blanks_and_inner_signs(self, field_text):
        # Canonical text with random blanks between tokens parses back to
        # the same polynomial; over Q a '-' before a coefficient may also
        # be written '+ -', the sign moved onto the coefficient.
        spec = FieldSpec.from_text(field_text)
        rng = random.Random("grammar:" + field_text)
        for _ in range(80):
            f = random_poly(rng, spec, rng.randint(1, 4))
            tokens = GRAMMAR_TOKEN.findall(f.to_text())
            pieces = []
            for k, token in enumerate(tokens):
                if (
                    spec.p is None
                    and token == "-"
                    and tokens[k + 1].isdigit()
                    and rng.random() < 0.5
                ):
                    pieces += ["+", rng.choice(BLANKS), "-"]
                else:
                    pieces.append(token)
                pieces.append(rng.choice(BLANKS))
            text = rng.choice(BLANKS) + "".join(pieces)
            assert parse_poly(text, spec) == f, text

    @pytest.mark.parametrize(
        "text",
        ["", "x1*", "*x1", "x1 x2", "2*", "x1**x2", "x1*x2 +", "y1*y2", "2"]
        + ["2 3*x1", "x1*2", "1/*x1", "x1*x2+-x2*x1"],
    )
    @pytest.mark.parametrize("field_text", ["rational", "gf:5"])
    def test_rejected_with_one_line(self, text, field_text):
        with pytest.raises(errors.ParseError) as raised:
            parse_poly(text, FieldSpec.from_text(field_text))
        assert str(raised.value) and "\n" not in str(raised.value)

    @pytest.mark.parametrize("text", ["x1*x2 + -2*x2*x1", "1/2*x1*x2"])
    def test_prime_field_coefficient_is_an_unsigned_residue(self, text, gf5):
        with pytest.raises(errors.ParseError) as raised:
            parse_poly(text, gf5)
        assert str(raised.value) and "\n" not in str(raised.value)
        parse_poly(text, FieldSpec())


class TestEvaluate:
    def test_chains_reduced_once_match_reduced_products(self):
        # At p = 2^31 - 1 an unreduced chain of seven factors reaches about
        # 2^217; reducing once, at the sum, must still give the sum of the
        # reduced left-to-right products.
        spec = FieldSpec.gf(2147483647)
        rng = random.Random("chains")
        f = random_poly(rng, spec, 7)
        args = [random_strict_ut(rng, spec, 10) for _ in range(7)]
        assert not assert_matches_reference(f, args).is_zero

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_unit_chain_reaches_corner(self, rational, m):
        # x1...xm at the superdiagonal units multiplies to the top corner.
        f = parse_poly("*".join(f"x{j}" for j in range(1, m + 1)), rational)
        args = [mat(m + 1, rational, [(j, j + 1, 1)]) for j in range(1, m + 1)]
        assert f.evaluate(args) == mat(m + 1, rational, [(1, m + 1, 1)])

    def test_commutator_on_units(self, rational):
        # e12*e23 = e13 while e23*e12 = 0.
        f = parse_poly("x1*x2 - x2*x1", rational)
        e12 = mat(3, rational, [(1, 2, 1)])
        e23 = mat(3, rational, [(2, 3, 1)])
        assert f.evaluate([e12, e23]) == mat(3, rational, [(1, 3, 1)])

    def test_zero_argument_kills_value(self, gf3):
        rng = random.Random(2)
        f = random_poly(rng, gf3, 3)
        args = [random_strict_ut(rng, gf3, 4) for _ in range(3)]
        args[1] = mat(4, gf3, [])
        assert f.evaluate(args).is_zero

    def test_argument_validation(self, rational, gf2):
        f = parse_poly("x1*x2", rational)
        a = mat(3, rational, [(1, 2, 1)])
        with pytest.raises(errors.DimensionMismatch):
            f.evaluate([a])
        with pytest.raises(errors.DimensionMismatch):
            f.evaluate([a, mat(4, rational, [(1, 2, 1)])])
        with pytest.raises(errors.FieldMismatch):
            f.evaluate([a, mat(3, gf2, [(1, 2, 1)])])

    @pytest.mark.parametrize("field_text", ["gf:2", "gf:3", "gf:5", "gf:7", "rational"])
    def test_matches_scalar_reference(self, field_text):
        # The sparse evaluation (integer-scaled over Q) agrees entry by
        # entry with dense products reduced per entry.  Rational arguments and coefficients
        # have signs and denominators 1..6 mixed within each matrix.
        spec = FieldSpec.from_text(field_text)
        rng = random.Random("reference:" + field_text)
        for _ in range(12):
            m = rng.randint(1, 4)
            n = rng.randint(2, 6)
            f = random_poly(rng, spec, m)
            args = [random_strict_ut(rng, spec, n) for _ in range(m)]
            if rng.random() < 0.2:
                args[rng.randrange(m)] = mat(n, spec, [])
            value = assert_matches_reference(f, args)
            assert all(v and spec.reduce(v) == v for v in value.entries.values())

    @pytest.mark.parametrize("field_text", ["gf:2", "gf:5", "rational"])
    def test_multilinearity_slotwise(self, field_text):
        spec = FieldSpec.from_text(field_text)
        rng = random.Random(field_text)
        for m in (2, 3):
            f = random_poly(rng, spec, m)
            base = [random_strict_ut(rng, spec, 4) for _ in range(m)]
            for slot in range(m):
                x = random_strict_ut(rng, spec, 4)
                y = random_strict_ut(rng, spec, 4)
                c = spec.element(3)
                mixed = list(base)
                mixed[slot] = mat(4, spec, triples(scaled(x, c)) + triples(y))
                with_x = list(base)
                with_x[slot] = x
                with_y = list(base)
                with_y[slot] = y
                value_x = scaled(f.evaluate(with_x), c)
                value_y = f.evaluate(with_y)
                assert f.evaluate(mixed) == mat(4, spec, triples(value_x) + triples(value_y))


class TestNormalize:
    def test_scales_out_coefficient(self, rational):
        f = parse_poly("2*x2*x1", rational)
        norm = f.normalize()
        assert norm.core == parse_poly("x1*x2", rational)
        assert norm.relabel == Permutation([2, 1])
        assert norm.scale == rational.element(2)

    def test_identity_already_first(self, rational):
        f = parse_poly("x1*x2 - x2*x1", rational)
        norm = f.normalize()
        assert norm.core == f
        assert norm.relabel == (1, 2)
        assert norm.scale == rational.element(1)

    def test_gf2_transfer_example(self, gf2):
        # Swapping the two arguments of x2*x1 reproduces any value of x1*x2.
        f = parse_poly("x2*x1", gf2)
        norm = f.normalize()
        assert norm.core == parse_poly("x1*x2", gf2)
        assert norm.relabel == Permutation([2, 1])
        rng = random.Random(3)
        a1 = random_strict_ut(rng, gf2, 4)
        a2 = random_strict_ut(rng, gf2, 4)
        assert f.evaluate([a2, a1]) == norm.core.evaluate([a1, a2])

    def test_transfer_with_noninvolutive_relabel(self, rational):
        # The chosen monomial is a 3-cycle, so relabel != relabel^-1 and the
        # transfer direction actually matters.
        f = parse_poly("x2*x3*x1 + 2*x3*x1*x2", rational)
        norm = f.normalize()
        assert norm.core.coeffs[(1, 2, 3)] == rational.element(1)
        rng = random.Random(17)
        args = [random_strict_ut(rng, rational, 5) for _ in range(3)]
        rearranged = norm.transfer(args)
        assert f.evaluate(list(rearranged)) == scaled(norm.core.evaluate(args), norm.scale)

    @pytest.mark.parametrize("field_text", ["gf:2", "gf:3", "rational"])
    def test_transfer_random(self, field_text):
        spec = FieldSpec.from_text(field_text)
        rng = random.Random(field_text + "norm")
        for m in (2, 3, 4):
            f = random_poly(rng, spec, m)
            norm = f.normalize()
            assert norm.core.coeffs[tuple(range(1, m + 1))] == spec.element(1)
            assert norm.scale != 0
            args = [random_strict_ut(rng, spec, m + 2) for _ in range(m)]
            assert f.evaluate(list(norm.transfer(args))) == scaled(
                norm.core.evaluate(args), norm.scale
            )

    def test_zero_polynomial_rejected(self, rational):
        with pytest.raises(errors.ZeroPolynomial):
            parse_poly("x1*x2 - x1*x2", rational).normalize()


class TestIsIdentityOn:
    """The polynomial vanishes identically on n x n matrices exactly when
    ``image_description`` classifies its image as zero."""

    def test_commutator(self, rational):
        f = parse_poly("x1*x2 - x2*x1", rational)
        assert image_description(f, 2).is_zero
        assert not image_description(f, 3).is_zero

    def test_zero_poly(self, rational):
        assert image_description(parse_poly("x1*x2 - x1*x2", rational), 5).is_zero

    @given(st.integers(2, 5), st.integers(2, 7))
    def test_matches_unit_chain_witness(self, m, n):
        # Degree >= dimension is exactly when the unit-chain value dies.
        spec = FieldSpec()
        f = MultilinearPoly(m, spec, {tuple(range(1, m + 1)): spec.element(1)})
        args = [mat(n, spec, [(j, j + 1, 1)] if j < n else []) for j in range(1, m + 1)]
        value = f.evaluate(args)
        assert image_description(f, n).is_zero == (m >= n) == value.is_zero
