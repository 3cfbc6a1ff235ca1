import itertools
import json
import random

import pytest

from utimage import cli, errors, oracle
from utimage.fields import FieldSpec
from utimage.freealg import MultilinearPoly, parse_poly
from utimage.oracle import _compile_terms, check_theorem, strict_coords
from utimage.sampling import IDENTITY_GRID, THEOREM_GRID

from conftest import all_matrices, image_bruteforce, mat, module_imports, packed_key


def naive_image_keys(f, n, q):
    """Image by plain evaluation over every matrix tuple: an independent
    path that never touches the compiled scanner."""
    keys = set()
    for combo in itertools.product(all_matrices(n, q), repeat=f.m):
        keys.add(packed_key(f.evaluate(list(combo)), q))
    return sorted(keys)


def exhaustive_image_keys(f, n, q, reduce_bands=False):
    """Image by evaluating the compiled terms on every argument tuple: the
    q^(m*c) digit scan that the linear-slice kernel replaces."""
    all_coords = strict_coords(n)
    coords = [
        (p, c) for p, c in all_coords if not reduce_bands or c - p <= n - f.m
    ]
    grouped = [
        (
            q ** (len(all_coords) - 1 - out_pos),
            [
                (coeff, [s * len(coords) + u for s, u in enumerate(uses)])
                for coeff, uses in terms
            ],
        )
        for out_pos, terms in _compile_terms(f, n, coords)
    ]
    keys = set()
    for digits in itertools.product(range(q), repeat=f.m * len(coords)):
        key = 0
        for weight, terms in grouped:
            acc = 0
            for coeff, flat in terms:
                for k in flat:
                    coeff *= digits[k]
                acc += coeff
            key += acc % q * weight
        keys.add(key)
    return keys


def random_support_cases(max_tuples=70_000):
    """Seeded random polynomials over GF(2)/GF(3), m 1..3, n 2..4, full
    and reduced, wherever the exhaustive scan stays small."""
    cases = []
    for q, m, n, reduce_bands in itertools.product(
        (2, 3), (1, 2, 3), (2, 3, 4), (False, True)
    ):
        top = n - m if reduce_bands else n - 1
        count = sum(n - d for d in range(1, top + 1))
        if q ** (m * count) > max_tuples:
            continue
        rng = random.Random(f"support:{q}:{m}:{n}:{reduce_bands}")
        perms = list(itertools.permutations(range(1, m + 1)))
        support = rng.sample(perms, rng.randint(1, len(perms)))
        spec = FieldSpec.gf(q)
        coeffs = {
            perm: spec.element(rng.randrange(1, q)) for perm in support
        }
        cases.append((MultilinearPoly(m, spec, coeffs), n, q, reduce_bands))
    return cases


class TestEnumeration:
    """The image of x1 is every matrix, so its scan enumerates all keys."""

    @pytest.mark.parametrize("n,q,count", [(2, 2, 2), (3, 2, 8), (3, 3, 27)])
    def test_counts(self, n, q, count):
        f = parse_poly("x1", FieldSpec.gf(q))
        assert image_bruteforce(f, n, q) == tuple(range(count))

    def test_distinct(self):
        mats = all_matrices(3, 3)
        assert len(mats) == 27
        assert all(a != b for a, b in itertools.combinations(mats, 2))

    def test_cap(self):
        with pytest.raises(errors.CapExceeded):
            image_bruteforce(parse_poly("x1", FieldSpec.gf(5)), 6, 5, cap=1000)

    def test_requires_prime(self, gf2):
        with pytest.raises(errors.NotPrime):
            image_bruteforce(parse_poly("x1", gf2), 3, 4)


class TestPacking:
    @pytest.mark.parametrize("q", [2, 3])
    def test_round_trip_exhaustive_n3(self, q):
        keys = [packed_key(matrix, q) for matrix in all_matrices(3, q)]
        assert keys == list(range(q**3))

    def test_packing_order_is_row_major(self, gf2):
        assert strict_coords(3) == [(1, 2), (1, 3), (2, 3)]
        units = [mat(3, gf2, [(p, c, 1)]) for p, c in strict_coords(3)]
        assert [packed_key(unit, 2) for unit in units] == [4, 2, 1]


class TestImageBruteforce:
    def test_commutator_n3(self, gf2):
        f = parse_poly("x1*x2-x2*x1", gf2)
        image = image_bruteforce(f, 3, 2)
        assert type(image) is tuple and all(type(key) is int for key in image)
        assert image == tuple(sorted(image))
        assert image == (
            packed_key(mat(3, gf2, []), 2),
            packed_key(mat(3, gf2, [(1, 3, 1)]), 2),
        )

    def test_identity_n3(self, gf2):
        f = parse_poly("x1*x2*x3", gf2)
        assert image_bruteforce(f, 3, 2) == (0,)

    def test_triple_product_n4(self, gf2):
        f = parse_poly("x1*x2*x3", gf2)
        assert image_bruteforce(f, 4, 2) == (
            packed_key(mat(4, gf2, []), 2),
            packed_key(mat(4, gf2, [(1, 4, 1)]), 2),
        )

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
        assert list(image_bruteforce(f, n, q)) == naive_image_keys(f, n, q)

    @pytest.mark.parametrize(
        "poly_text,n,q",
        [
            ("x1*x2-x2*x1", 3, 2),
            ("x1*x2", 4, 2),
            ("x1*x2*x3", 4, 2),
            ("x1*x2", 3, 3),
            ("x1*x2*x3", 3, 2),  # m = n: the reduced scan has no entries
            ("x1*x2*x3*x4+x4*x3*x2*x1", 3, 3),  # m > n
        ],
    )
    def test_reduced_scan_equals_full_scan(self, poly_text, n, q):
        f = parse_poly(poly_text, FieldSpec.gf(q))
        full = image_bruteforce(f, n, q)
        assert full == image_bruteforce(f, n, q, reduce_bands=True)

    def test_reduced_scan_of_nothing_compiles_nothing(self, monkeypatch, gf2):
        # m >= n leaves no entry to scan; compiling every chain of every
        # entry anyway would cost O(n^3), about 4 s at n = 1,000.
        def refuse(*args):
            raise AssertionError("compiled chains for an empty scan")

        monkeypatch.setattr(oracle, "_compile_terms", refuse)
        monkeypatch.setattr(oracle, "strict_coords", refuse)
        f = parse_poly("*".join(f"x{i}" for i in range(1, 1001)), gf2)
        report = check_theorem(f, 1000, 2, reduce_bands=True)
        assert (report.image_size, report.expected_size, report.matches) == (1, 1, True)
        assert report.evaluations == 1

    def test_cap_exceeded(self):
        f = parse_poly("x1*x2", FieldSpec.gf(5))
        with pytest.raises(errors.CapExceeded):
            image_bruteforce(f, 6, 5, cap=1000)

    @pytest.mark.parametrize("reduce_bands", [False, True])
    def test_cap_message_names_the_exponent(self, reduce_bands):
        # n = 10^6 has about 5 * 10^11 entries per matrix; the check must
        # neither build them nor format q^((m-1)*c) in decimal.  The
        # reduced scan drops only the corner entry (1, n).
        f = parse_poly("x1*x2", FieldSpec.gf(2))
        count = 499999500000 - reduce_bands
        with pytest.raises(errors.CapExceeded) as exc:
            image_bruteforce(f, 10**6, 2, reduce_bands=reduce_bands)
        assert str(exc.value) == f"2^{count} tail tuples exceed the cap 1000000"

    def test_degree_one_cap_counts_the_span(self, gf2):
        # x1 has a single tail, but its span is all q^c matrices, so the
        # cap counts q^c rather than q^0: n = 10^6 is refused, not scanned.
        with pytest.raises(errors.CapExceeded) as exc:
            check_theorem(parse_poly("x1", gf2), 10**6, 2)
        assert str(exc.value) == "2^499999500000 tail tuples exceed the cap 1000000"

    @pytest.mark.parametrize("cap,fits", [(2**12 - 1, False), (2**12, True)])
    def test_cap_boundary(self, cap, fits):
        # x1*x2*x3 at n = 4: c = 6 entries, so 2^12 tails X_2, X_3.
        f = parse_poly("x1*x2*x3", FieldSpec.gf(2))
        if fits:
            assert len(image_bruteforce(f, 4, 2, cap=cap)) == 2
        else:
            with pytest.raises(errors.CapExceeded):
                image_bruteforce(f, 4, 2, cap=cap)

    def test_field_must_match_q(self, gf2):
        f = parse_poly("x1*x2", gf2)
        with pytest.raises(errors.FieldMismatch):
            image_bruteforce(f, 3, 3)


class TestLinearSlice:
    """The slice kernel against the exhaustive digit scan it replaced."""

    @pytest.mark.parametrize(
        "poly_text,n,q,reduce_bands", THEOREM_GRID + IDENTITY_GRID
    )
    def test_grid_rows_equal_exhaustive_scan(self, poly_text, n, q, reduce_bands):
        f = parse_poly(poly_text, FieldSpec.gf(q))
        scanned = image_bruteforce(f, n, q, reduce_bands=reduce_bands)
        assert set(scanned) == exhaustive_image_keys(f, n, q, reduce_bands)

    @pytest.mark.parametrize(
        "f,n,q,reduce_bands",
        random_support_cases(),
        ids=lambda v: v.to_text().replace(" ", "") if hasattr(v, "to_text") else None,
    )
    def test_random_supports_equal_exhaustive_scan(self, f, n, q, reduce_bands):
        scanned = image_bruteforce(f, n, q, reduce_bands=reduce_bands)
        assert set(scanned) == exhaustive_image_keys(f, n, q, reduce_bands)

    def test_random_cases_cover_degree_one_and_both_scans(self):
        cases = random_support_cases()
        assert {f.m for f, _n, _q, _r in cases} == {1, 2, 3}
        assert {(q, r) for _f, _n, q, r in cases} == {
            (2, False), (2, True), (3, False), (3, True)
        }

    @pytest.mark.parametrize("q", [2, 3])
    def test_cancelled_polynomial_has_image_zero(self, q):
        f = parse_poly(f"x1*x2 + {q - 1}*x1*x2", FieldSpec.gf(q))
        assert f.is_zero
        assert image_bruteforce(f, 3, q) == (0,)
        assert exhaustive_image_keys(f, 3, q) == {0}

    def test_exhaustive_reference_matches_plain_evaluation(self, gf3):
        f = parse_poly("x1*x2+2*x2*x1", gf3)
        assert sorted(exhaustive_image_keys(f, 3, 3)) == naive_image_keys(f, 3, 3)

    def test_scan_stops_at_the_first_full_rank_tail(self, gf2, row_reduce_calls):
        # x1*x2*x3 - x1*x3*x2 at n = 4 over GF(2): the band is the entry
        # (1, 4), X_1(1,2) * (X_2(2,3) X_3(3,4) - X_3(2,3) X_2(3,4)), so every
        # tail with X_2 = X_3 spans {0}, the first, all-ones tail included.
        # The span of f(E_i, X_2, X_3) over the six unit matrices E_i is
        # computed here by plain evaluation, with the tails in descending
        # key order, and the scan must stop at the first tail whose span is
        # both band matrices.
        f = parse_poly("x1*x2*x3 - x1*x3*x2", gf2)
        units = [mat(4, gf2, [(p, c, 1)]) for p, c in strict_coords(4)]
        descending = all_matrices(4, 2)[::-1]
        tails = itertools.product(descending, repeat=2)
        for position, (x2, x3) in enumerate(tails, start=1):
            span = {0}
            for unit in units:
                key = packed_key(f.evaluate([unit, x2, x3]), 2)
                span |= {s ^ key for s in span}
            if len(span) == 2:
                break
        else:
            pytest.fail("no tail spans the band")

        report = check_theorem(f, 4, 2)
        assert 1 < position < 2**12
        assert len(row_reduce_calls) == position
        assert report.evaluations == 2**18
        assert report.matches and report.image_size == 2

    @pytest.mark.parametrize(
        "poly_text,n,q,reduce_bands", THEOREM_GRID + IDENTITY_GRID
    )
    def test_grid_rows_stop_at_the_first_tail(
        self, row_reduce_calls, poly_text, n, q, reduce_bands
    ):
        # The densest tail spans each grid row's whole image, so the scan
        # reduces one slice; a sparse-first order would reduce up to 1,058
        # (x1*x2*x3*x4 at n = 5, reduced).
        f = parse_poly(poly_text, FieldSpec.gf(q))
        assert check_theorem(f, n, q, reduce_bands=reduce_bands).matches
        assert len(row_reduce_calls) == 1

    def test_no_full_rank_slice_scans_every_tail(self, gf2, monkeypatch, capsys):
        # A row reduction that loses a basis row never reaches full rank,
        # so every one of the 2^10 tails is visited and the smaller image
        # is reported as a mismatch.
        calls = []
        row_reduce = oracle._row_reduce

        def dropping(vectors, q):
            calls.append(None)
            return row_reduce(vectors, q)[:-1]

        monkeypatch.setattr(oracle, "_row_reduce", dropping)
        report = check_theorem(parse_poly("x1*x2", gf2), 5, 2)
        assert len(calls) == 2**10
        assert not report.matches
        assert report.image_size < report.expected_size == 2**6
        assert report.evaluations == 2**20
        argv = ["verify", "--poly", "x1*x2", "--n", "5", "--field", "gf:2"]
        assert cli.main(argv) == 4
        assert json.loads(capsys.readouterr().out)["matches"] is False


class TestRowReduce:
    def test_spanning_lists_give_one_basis(self):
        # Three lists spanning the same plane in GF(3)^3.
        lists = [
            [[1, 2, 0], [0, 1, 1]],
            [[0, 2, 2], [1, 0, 1], [2, 1, 0]],
            [[1, 0, 1], [0, 0, 0], [1, 1, 2]],
        ]
        bases = {oracle._row_reduce(vectors, 3) for vectors in lists}
        assert bases == {((1, 0, 1), (0, 1, 1))}

    def test_zero_vectors_span_nothing(self):
        assert oracle._row_reduce([[0, 0], [0, 0]], 5) == ()
        assert oracle._row_reduce([], 5) == ()

    def test_full_rank(self):
        assert oracle._row_reduce([[0, 3], [2, 1]], 5) == ((1, 0), (0, 1))


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


def band_keys(f, n, q):
    """The predicted image, built from the dichotomy by plain matrix
    enumeration: {0} if f is zero or m >= n, otherwise every matrix that
    vanishes on the diagonals 1..m-1."""
    if f.is_zero or f.m >= n:
        return {0}
    return {
        packed_key(matrix, q)
        for matrix in all_matrices(n, q)
        if not any(c - p < f.m for p, c in matrix.entries)
    }


class TestReportAgainstExhaustiveScan:
    """check_theorem reads the report off the scan's rows without listing
    keys; every field must equal the one the exhaustive scan gives."""

    CASES = [
        (parse_poly(text, FieldSpec.gf(q)), n, q, reduce_bands)
        for text, n, q, reduce_bands in THEOREM_GRID
        + IDENTITY_GRID
        + [("x1*x2 + x1*x2", 3, 2, False), ("x1*x2 + 2*x1*x2", 4, 3, True)]
    ] + random_support_cases()

    @pytest.mark.parametrize(
        "f,n,q,reduce_bands",
        CASES,
        ids=lambda v: v.to_text().replace(" ", "") if hasattr(v, "to_text") else None,
    )
    def test_report_fields(self, f, n, q, reduce_bands):
        scanned = exhaustive_image_keys(f, n, q, reduce_bands)
        band = band_keys(f, n, q)
        count = oracle._scanned_count(n, f.m, reduce_bands)
        report = check_theorem(f, n, q, reduce_bands=reduce_bands)
        assert (
            report.image_size,
            report.expected_size,
            report.matches,
            report.evaluations,
        ) == (len(scanned), len(band), scanned == band, q ** (f.m * count))


    @pytest.mark.parametrize("poly_text,n", [("x1*x2", 4), ("x1*x2*x3", 3)])
    def test_a_wrong_prediction_is_a_mismatch(self, gf2, monkeypatch, poly_text, n):
        # The early stop decides ``matches`` from positions alone; a band
        # one position too wide or too narrow must still be caught.
        predicted = oracle._predicted_keys

        def skewed(f, n, q):
            free, _size = predicted(f, n, q)
            free = free[1:] if free else (0,)
            return free, q ** len(free)

        monkeypatch.setattr(oracle, "_predicted_keys", skewed)
        report = check_theorem(parse_poly(poly_text, gf2), n, 2)
        assert not report.matches
        assert report.image_size != report.expected_size


def test_oracle_imports_nothing_from_the_solver():
    # The prediction verify checks must not come from the code it checks,
    # so the oracle reads only errors, fields and polynomials from the
    # package: not the solver, and not the matrices the solver builds.
    imported, package = module_imports(oracle)
    assert imported
    assert not [name for name in imported if "solver" in name.split(".")]
    assert package == {"errors", "fields", "freealg"}


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
        keys = set(image_bruteforce(f, n, q))
        rng = random.Random(f"contain:{poly_text}:{n}:{q}")
        for _ in range(50):
            target = random_band_target(rng, spec, n, f.m)
            value = f.evaluate(list(preimage(f, n, target)))
            assert packed_key(value, q) in keys
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
        from utimage.solver import image_description

        f = parse_poly(poly_text, FieldSpec.gf(q))
        scanned_zero = image_bruteforce(f, n, q) == (0,)
        assert image_description(f, n).is_zero == scanned_zero
