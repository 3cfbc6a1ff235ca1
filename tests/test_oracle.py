import itertools
import random

import pytest

from utimage import errors
from utimage.fields import FieldSpec
from utimage.freealg import parse_poly
from utimage.oracle import (
    PackedMatrix,
    check_theorem,
    enumerate_strict_ut,
    image_bruteforce,
    strict_coords,
)
from utimage.sampling import random_strict_ut
from utimage.triangular import StrictUT


def naive_image_keys(f, n, q):
    """Image by plain evaluation over every matrix tuple: an independent
    path that never touches the compiled scanner."""
    mats = [pm.to_strict_ut() for pm in enumerate_strict_ut(n, q)]
    keys = set()
    for combo in itertools.product(mats, repeat=f.m):
        keys.add(PackedMatrix.from_strict_ut(f.evaluate(list(combo)), q).key)
    return sorted(keys)


class TestEnumeration:
    @pytest.mark.parametrize("n,q,count", [(2, 2, 2), (3, 2, 8), (3, 3, 27)])
    def test_counts(self, n, q, count):
        mats = list(enumerate_strict_ut(n, q))
        assert len(mats) == count
        assert [pm.key for pm in mats] == list(range(count))

    def test_distinct(self):
        mats = list(enumerate_strict_ut(3, 3))
        assert len({pm.digits for pm in mats}) == 27

    def test_cap(self):
        with pytest.raises(errors.CapExceeded):
            list(enumerate_strict_ut(6, 5, cap=1000))

    def test_requires_prime(self):
        with pytest.raises(errors.NotPrime):
            list(enumerate_strict_ut(3, 4))


class TestPacking:
    @pytest.mark.parametrize("q", [2, 3])
    def test_round_trip_exhaustive_n3(self, q):
        for pm in enumerate_strict_ut(3, q):
            assert PackedMatrix.from_strict_ut(pm.to_strict_ut(), q) == pm
            assert PackedMatrix.from_key(3, q, pm.key) == pm

    def test_round_trip_randomized_n5(self):
        spec = FieldSpec.gf(5)
        rng = random.Random("pack")
        for _ in range(50):
            matrix = random_strict_ut(rng, spec, 5)
            pm = PackedMatrix.from_strict_ut(matrix, 5)
            assert pm.to_strict_ut() == matrix

    def test_packing_order_is_row_major(self):
        assert strict_coords(3) == [(1, 2), (1, 3), (2, 3)]
        pm = PackedMatrix(3, 2, (1, 0, 0))
        assert pm.key == 4
        assert pm.to_strict_ut() == StrictUT.unit(3, FieldSpec.gf(2), 1, 2)

    def test_digit_validation(self):
        with pytest.raises(errors.BadLength):
            PackedMatrix(3, 2, (0, 1))
        with pytest.raises(errors.OutOfRange):
            PackedMatrix(3, 2, (0, 2, 0))


class TestImageBruteforce:
    def test_commutator_n3(self, gf2):
        f = parse_poly("x1*x2-x2*x1", gf2)
        image = image_bruteforce(f, 3, 2)
        assert [pm.to_strict_ut() for pm in image] == [
            StrictUT.zero(3, gf2),
            StrictUT.unit(3, gf2, 1, 3),
        ]

    def test_identity_n3(self, gf2):
        f = parse_poly("x1*x2*x3", gf2)
        image = image_bruteforce(f, 3, 2)
        assert len(image) == 1 and image[0].key == 0

    def test_triple_product_n4(self, gf2):
        f = parse_poly("x1*x2*x3", gf2)
        image = image_bruteforce(f, 4, 2)
        assert [pm.to_strict_ut() for pm in image] == [
            StrictUT.zero(4, gf2),
            StrictUT.unit(4, gf2, 1, 4),
        ]

    @pytest.mark.parametrize(
        "poly_text,n,q",
        [
            ("x1*x2-x2*x1", 3, 2),
            ("x1*x2+x2*x1", 3, 3),
            ("x1*x2", 3, 3),
        ],
    )
    def test_matches_naive_evaluation(self, poly_text, n, q):
        f = parse_poly(poly_text, FieldSpec.gf(q))
        scanned = [pm.key for pm in image_bruteforce(f, n, q)]
        assert scanned == naive_image_keys(f, n, q)

    @pytest.mark.parametrize(
        "poly_text,n,q",
        [
            ("x1*x2-x2*x1", 3, 2),
            ("x1*x2", 4, 2),
            ("x1*x2*x3", 4, 2),
            ("x1*x2", 3, 3),
            ("x1*x2*x3", 3, 2),  # m = n: the reduced scan has no entries
        ],
    )
    def test_reduced_scan_equals_full_scan(self, poly_text, n, q):
        f = parse_poly(poly_text, FieldSpec.gf(q))
        full = [pm.key for pm in image_bruteforce(f, n, q)]
        reduced = [pm.key for pm in image_bruteforce(f, n, q, reduce_bands=True)]
        assert full == reduced

    def test_cap_exceeded(self):
        f = parse_poly("x1*x2", FieldSpec.gf(5))
        with pytest.raises(errors.CapExceeded):
            image_bruteforce(f, 6, 5, cap=1000)

    def test_field_must_match_q(self, gf2):
        f = parse_poly("x1*x2", gf2)
        with pytest.raises(errors.FieldMismatch):
            image_bruteforce(f, 3, 3)


class TestCheckTheorem:
    def test_commutator_n3_q2(self, gf2):
        report = check_theorem(parse_poly("x1*x2-x2*x1", gf2), 3, 2)
        assert report.matches
        assert report.image_size == 2 == report.expected_size
        assert report.evaluations == 64

    def test_product_n4_q2(self, gf2):
        report = check_theorem(parse_poly("x1*x2", gf2), 4, 2)
        assert report.matches and report.image_size == 8

    def test_identity_n2_q3(self, gf3):
        report = check_theorem(parse_poly("x1*x2-x2*x1", gf3), 2, 3)
        assert report.matches and report.image_size == 1

    def test_degree_one(self, gf2):
        report = check_theorem(parse_poly("x1", gf2), 3, 2)
        assert report.matches and report.image_size == 8

    def test_json_shape(self, gf2):
        report = check_theorem(parse_poly("x1*x2", gf2), 3, 2)
        doc = report.json_dict("x1*x2", 3, 2)
        assert set(doc) == {
            "poly",
            "n",
            "q",
            "image_size",
            "expected_size",
            "matches",
            "evaluations",
            "elapsed_ms",
        }


class TestAgainstSolver:
    @pytest.mark.parametrize(
        "poly_text,n,q",
        [("x1*x2-x2*x1", 3, 2), ("x1*x2", 4, 2), ("x1*x2", 4, 3)],
    )
    def test_witness_values_land_in_scanned_image(self, poly_text, n, q):
        # 50 random reachable targets per grid point: the solver's witness
        # must evaluate to a value the scan also found.
        from utimage.sampling import random_band_target
        from utimage.solver import preimage

        spec = FieldSpec.gf(q)
        f = parse_poly(poly_text, spec)
        keys = {pm.key for pm in image_bruteforce(f, n, q)}
        rng = random.Random(f"contain:{poly_text}:{n}:{q}")
        for _ in range(50):
            target = random_band_target(rng, spec, n, f.m)
            value = f.evaluate(list(preimage(f, n, target)))
            assert PackedMatrix.from_strict_ut(value, q).key in keys
            assert value == target

    @pytest.mark.parametrize(
        "poly_text,n,q",
        [
            ("x1*x2-x2*x1", 2, 2),
            ("x1*x2-x2*x1", 3, 2),
            ("x1*x2*x3", 3, 3),
            ("x1*x2*x3", 4, 2),
        ],
    )
    def test_identity_criterion_agrees_with_scan(self, poly_text, n, q):
        f = parse_poly(poly_text, FieldSpec.gf(q))
        scanned_zero = [pm.key for pm in image_bruteforce(f, n, q)] == [0]
        assert f.is_identity_on(n) == scanned_zero
