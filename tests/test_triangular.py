import random
from fractions import Fraction

import pytest

from utimage import errors
from utimage.fields import FieldSpec
from utimage.freealg import parse_poly
from utimage.sampling import random_band_target, random_poly, random_scalar
from utimage.solver import preimage
from utimage.triangular import StrictUT

from conftest import mat, random_strict_ut, triples


class TestConstruction:
    def test_single_entry(self, rational):
        a = mat(3, rational, [(1, 3, 1)])
        assert a.get(1, 3) == rational.one
        assert a.get(1, 2) == rational.zero

    def test_rejects_diagonal_entry(self, rational):
        with pytest.raises(errors.NotStrictlyUpper):
            mat(3, rational, [(2, 2, 1)])
        with pytest.raises(errors.NotStrictlyUpper):
            mat(3, rational, [(3, 1, 1)])

    def test_rejects_out_of_range(self, rational):
        with pytest.raises(errors.OutOfRange):
            mat(3, rational, [(1, 4, 1)])
        with pytest.raises(errors.OutOfRange):
            mat(3, rational, [(0, 2, 1)])

    def test_duplicates_summed(self, rational):
        assert mat(4, rational, [(1, 2, 1), (1, 2, -1)]).is_zero
        assert mat(4, rational, [(1, 2, 1), (1, 2, 2)]) == mat(4, rational, [(1, 2, 3)])

    def test_rejects_tiny_dimension(self, rational):
        with pytest.raises(errors.OutOfRange):
            mat(1, rational, [])

    def test_field_mismatch(self, rational, gf2):
        # Entries are raw values, canonicalised in the matrix's own field;
        # matrices of two fields never combine.
        assert StrictUT.from_entries(3, gf2, [(1, 2, 3)]) == mat(3, gf2, [(1, 2, 1)])
        with pytest.raises(errors.ParseError):
            StrictUT.from_entries(3, gf2, [(1, 2, Fraction(1, 2))])
        with pytest.raises(errors.FieldMismatch):
            product(rational).evaluate(
                [mat(3, rational, [(1, 2, 1)]), mat(3, gf2, [(2, 3, 1)])]
            )


def product(spec, factors=2):
    """The polynomial x1*x2*...*x_factors, whose value is the product of
    its arguments in order."""
    return parse_poly("*".join(f"x{j}" for j in range(1, factors + 1)), spec)


class TestArithmetic:
    def test_unit_products(self, rational):
        e12 = mat(3, rational, [(1, 2, 1)])
        e23 = mat(3, rational, [(2, 3, 1)])
        assert product(rational).evaluate([e12, e23]) == mat(3, rational, [(1, 3, 1)])
        assert product(rational).evaluate([e23, e12]).is_zero

    def test_triple_product_vanishes(self, rational):
        a = mat(3, rational, [(1, 2, 1), (2, 3, 1)])
        assert product(rational, 3).evaluate([a, a, a]).is_zero

    def test_add_sub_scale(self, gf3):
        a = mat(3, gf3, [(1, 2, 1), (1, 3, 2)])
        b = mat(3, gf3, [(1, 2, 2)])
        assert mat(3, gf3, triples(a) + triples(b)) == mat(3, gf3, [(1, 3, 2)])
        assert mat(3, gf3, triples(a) + triples(a.scaled(-gf3.one))).is_zero
        assert a.scaled(2) == mat(3, gf3, [(1, 2, 2), (1, 3, 1)])
        assert a.scaled(gf3.zero).is_zero

    def test_dimension_mismatch(self, rational):
        with pytest.raises(errors.DimensionMismatch):
            product(rational).evaluate([mat(3, rational, []), mat(4, rational, [])])

    @pytest.mark.parametrize("field_text", ["gf:2", "gf:3", "rational"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_nilpotency_randomized(self, field_text, n):
        spec = FieldSpec.from_text(field_text)
        rng = random.Random(f"nil:{field_text}:{n}")
        for _ in range(10):
            factors = [random_strict_ut(rng, spec, n) for _ in range(n)]
            assert product(spec, n).evaluate(factors).is_zero

    def test_band_shift_under_product(self, gf5):
        # Band levels add (plus one) under multiplication.
        rng = random.Random("bands")
        n = 6
        for _ in range(20):
            ta = rng.randint(0, 2)
            tb = rng.randint(0, 2)
            a = StrictUT.from_entries(
                n,
                gf5,
                [
                    (p, q, random_scalar(rng, gf5))
                    for p in range(1, n)
                    for q in range(p + ta + 1, n + 1)
                ],
            )
            b = StrictUT.from_entries(
                n,
                gf5,
                [
                    (p, q, random_scalar(rng, gf5))
                    for p in range(1, n)
                    for q in range(p + tb + 1, n + 1)
                ],
            )
            assert a.band_member(ta) and b.band_member(tb)
            assert product(gf5).evaluate([a, b]).band_member(min(ta + tb + 1, n - 1))


class TestBandMember:
    def test_examples(self, rational):
        e13 = mat(3, rational, [(1, 3, 1)])
        e12 = mat(3, rational, [(1, 2, 1)])
        assert e13.band_member(1)
        assert not e12.band_member(1)
        assert mat(3, rational, []).band_member(2)

    def test_level_bounds(self, rational):
        with pytest.raises(errors.BadIndex):
            mat(3, rational, []).band_member(3)


def diagonal_matrix(n, spec, index, values):
    """The matrix holding ``values`` on diagonal ``index``."""
    return StrictUT.from_entries(
        n,
        spec,
        [(k, k + index - 1, v) for k, v in enumerate(values, start=1) if v],
    )


def traced_diagonals(f, n, target):
    """The (index, right-hand side) pairs that ``preimage`` traces while
    solving for ``target``, one per band system."""
    trace = {}
    preimage(f, n, target, trace=trace)
    return [(index, rhs) for index, _matrix, rhs in trace.get("systems", ())]


class TestBandDecompose:
    """``preimage`` splits the scaled target into its diagonals m+1..n and
    builds one band system for each diagonal that holds an entry, reading
    every value of it off the target, zeros included."""

    def test_example(self, rational):
        f = parse_poly("x1*x2", rational)
        b = mat(4, rational, [(1, 3, 1), (2, 4, 1), (1, 4, 1)])
        parts = traced_diagonals(f, 4, b)
        assert [index for index, _ in parts] == [3, 4]
        assert diagonal_matrix(4, rational, *parts[0]) == mat(
            4, rational, [(1, 3, 1), (2, 4, 1)]
        )
        assert diagonal_matrix(4, rational, *parts[1]) == mat(4, rational, [(1, 4, 1)])

    def test_superdiagonal(self, rational):
        # The first diagonal solved is the one just above the zero band.
        f = parse_poly("x1*x2", rational)
        b = mat(5, rational, [(1, 3, 1), (2, 4, 1), (3, 5, 1), (1, 4, 5)])
        index, values = traced_diagonals(f, 5, b)[0]
        assert index == 3
        assert values == (1, 1, 1)

    def test_corner(self, rational):
        f = parse_poly("x1*x2", rational)
        b = mat(4, rational, [(1, 4, 7), (1, 3, 2)])
        assert traced_diagonals(f, 4, b)[-1] == (4, (7,))

    def test_index_range(self, rational):
        # One system per diagonal of m + 1..n that holds a nonzero target
        # entry, in increasing order; none for degree one, which is solved
        # directly, or when m >= n, where only the zero target is reachable.
        rng = random.Random("index-range")
        for n in range(2, 7):
            for m in range(1, n + 2):
                f = parse_poly("*".join(f"x{j}" for j in range(1, m + 1)), rational)
                targets = [mat(n, rational, [])]
                if m < n:
                    targets += [mat(n, rational, [(1, n, 1)])]
                    targets += [random_band_target(rng, rational, n, m) for _ in range(4)]
                for target in targets:
                    held = sorted({col - row + 1 for row, col in target.entries})
                    expected = held if 2 <= m < n else []
                    parts = traced_diagonals(f, n, target)
                    assert [index for index, _ in parts] == expected

    def test_diagonal_lengths(self, rational):
        # Diagonal i of an n x n matrix holds n - i + 1 values, one per row
        # of its system.
        for n in range(3, 7):
            for m in range(2, n):
                f = parse_poly("*".join(f"x{j}" for j in range(1, m + 1)), rational)
                trace = {}
                preimage(f, n, mat(n, rational, [(1, n, 1)]), trace=trace)
                for index, matrix, values in trace["systems"]:
                    assert len(values) == len(matrix) == n - index + 1

    def test_zero_matrix(self, rational):
        # A zero diagonal is not solved: its right-hand side and its
        # solution are all zero.  A zero target is answered before any
        # system is built.
        f = parse_poly("x1*x2", rational)
        corner = mat(4, rational, [(1, 4, 1)])
        assert traced_diagonals(f, 4, corner) == [(4, (1,))]
        assert traced_diagonals(f, 4, mat(4, rational, [])) == []

    def test_rejects_band_violation(self, rational):
        # The band check runs once, before any system is assembled.
        f = parse_poly("x1*x2", rational)
        trace = {}
        with pytest.raises(errors.TargetNotInImage):
            preimage(f, 4, mat(4, rational, [(1, 4, 1), (2, 3, 1)]), trace=trace)
        assert trace == {}

    @pytest.mark.parametrize("field_text", ["gf:2", "rational"])
    def test_reassembly(self, field_text):
        spec = FieldSpec.from_text(field_text)
        rng = random.Random("reassemble" + field_text)
        for _ in range(20):
            n = rng.randint(3, 7)
            m = rng.randint(2, n - 1)
            f = random_poly(rng, spec, m)
            pairs = [
                (p, q, random_scalar(rng, spec))
                for p in range(1, n)
                for q in range(p + m, n + 1)
            ]
            b = StrictUT.from_entries(n, spec, pairs)
            trace = {}
            preimage(f, n, b, trace=trace)
            total = mat(n, spec, [
                (k, k + index - 1, v)
                for index, _matrix, values in trace.get("systems", ())
                for k, v in enumerate(values, start=1)
            ])
            assert total == b.scaled(spec.inv(f.normalize().scale))


class TestJson:
    def test_round_trip(self, gf5):
        a = mat(4, gf5, [(1, 2, 3), (2, 4, 1)])
        assert StrictUT.from_json_dict(a.to_json_dict()) == a

    def test_entries_sorted_in_output(self, rational):
        a = mat(4, rational, [(2, 4, 1), (1, 2, 1), (1, 4, 1)])
        rows = [(e["row"], e["col"]) for e in a.to_json_dict()["entries"]]
        assert rows == sorted(rows)

    def test_rejects_bad_documents(self, rational):
        with pytest.raises(errors.ParseError):
            StrictUT.from_json_dict({"n": 3})
        with pytest.raises(errors.NotStrictlyUpper):
            StrictUT.from_json_dict(
                {
                    "n": 3,
                    "field": "rational",
                    "entries": [{"row": 2, "col": 2, "value": "1"}],
                }
            )
        with pytest.raises(errors.ParseError):
            StrictUT.from_json_dict(
                {
                    "n": 3,
                    "field": "gf:5",
                    "entries": [{"row": 1, "col": 2, "value": "9"}],
                }
            )

    def test_duplicate_entries_summed(self, rational):
        doc = {
            "n": 3,
            "field": "rational",
            "entries": [
                {"row": 1, "col": 2, "value": "1/2"},
                {"row": 1, "col": 2, "value": "1/2"},
            ],
        }
        assert StrictUT.from_json_dict(doc) == mat(3, rational, [(1, 2, 1)])
