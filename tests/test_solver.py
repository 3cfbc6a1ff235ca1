import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from utimage import cli, errors, freealg, selfcheck, solver, witness
from utimage.fields import FieldSpec
from utimage.freealg import MultilinearPoly, parse_poly
from utimage.sampling import random_band_target, random_poly
from utimage.solver import (
    band_system,
    image_description,
    preimage,
    solve_band,
    term_masks,
)
from utimage.triangular import StrictUT
from utimage.witness import eval_pivot, pivot_terms, witness_scalars

from conftest import fixed_arguments, inverse, mat, module_imports, shared_denominator, triples


def all_ones_cells(n):
    """Cell rows for m = 2 with x_2 all ones from slot 1: rows 0 and 1 are
    empty, slot 0 is 0."""
    return [[], [], [0] + [1] * (n - 1)]


def system_from_rows(rows, rhs, spec, degree=2):
    """Band rows and a right-hand side from dense int rows, as residues over
    GF(p) and ints over Q; row k keeps columns k..k+degree-1."""
    matrix = [
        tuple(spec.reduce(v) for v in row[k : k + degree])
        for k, row in enumerate(rows)
    ]
    return matrix, [spec.reduce(v) for v in rhs]


def over(rows, scale):
    """Rows of raw values times ``scale``: the numerators over ``scale``
    that ``band_system`` returns for them."""
    return [[v * scale for v in row] for row in rows]


def reference_band_matrix(core, n, i, fixed_args):
    """Dense rows x cols matrix of diagonal i's band system, one polynomial
    evaluation per column: the unit matrix at (s, s + i - m) in the first
    slot and the fixed arguments in the rest.  Linearity in the first slot
    makes the columns add up to the full evaluation.  This is the assembly
    that the closed form in ``band_system`` replaced."""
    m = core.m
    rows, cols = n - i + 1, n - i + m
    matrix = [[core.spec.zero] * cols for _ in range(rows)]
    for s in range(1, cols + 1):
        basis = mat(n, core.spec, [(s, s + i - m, 1)])
        value = core.evaluate([basis] + fixed_args)
        for p, q in value.entries:
            assert q - p == i - 1 and p <= rows
            matrix[p - 1][s - 1] = value.get(p, q)
    return matrix


def dense(matrix):
    """The rows x cols matrix of band rows, zero off the band."""
    degree = len(matrix[0])
    cols = len(matrix) + degree - 1
    return [
        [0] * k + list(row) + [0] * (cols - degree - k)
        for k, row in enumerate(matrix)
    ]


class TestImageDescription:
    def test_commutator_small(self, rational):
        described = image_description(parse_poly("x1*x2-x2*x1", rational), 3)
        assert described.kind == "band"
        assert described.level == 1 and described.dimension == 1
        assert described.describe() == "Band(1), dim 1"

    def test_identity_case(self, rational):
        assert image_description(parse_poly("x1*x2*x3", rational), 3).is_zero

    def test_zero_poly(self, rational):
        assert image_description(parse_poly("x1*x2-x1*x2", rational), 5).is_zero

    def test_dimension_count(self, rational):
        described = image_description(parse_poly("x1*x2", rational), 5)
        assert described.dimension == 6
        # independent count of admissible coordinates
        assert described.dimension == sum(
            1 for p in range(1, 6) for q in range(p + 1, 6) if q - p >= 2
        )


class TestBandSystem:
    def test_plain_product_matrix(self, rational):
        core = parse_poly("x1*x2", rational)
        pivots = (rational.element(1),) * 2
        matrix = band_system(core, 4, 3, term_masks(core, all_ones_cells(4)), pivots)
        assert matrix == [(1, 0), (1, 0)]
        assert dense(matrix) == [[1, 0, 0], [0, 1, 0]]

    def test_commutator_matrix(self, rational):
        core = parse_poly("x1*x2-x2*x1", rational)
        pivots = (rational.element(1),) * 2
        matrix = band_system(core, 4, 3, term_masks(core, all_ones_cells(4)), pivots)
        assert matrix == [(1, -1), (1, -1)]
        assert dense(matrix) == [[1, -1, 0], [0, 1, -1]]

    def test_top_diagonal_single_row(self, rational):
        core = parse_poly("x1*x2-x2*x1", rational)
        pivots = (rational.element(1),) * 2
        matrix = band_system(core, 4, 4, term_masks(core, all_ones_cells(4)), pivots)
        assert len(matrix) == 1 and len(matrix[0]) == 2
        assert matrix[0][0] == rational.element(1)

    def test_diagonal_index_range(self, rational):
        core = parse_poly("x1*x2", rational)
        pivots = (rational.element(1),) * 2
        for i in (0, 2, 5):
            with pytest.raises(errors.BadIndex):
                band_system(core, 4, i, term_masks(core, all_ones_cells(4)), pivots)

    def test_wrong_pivots_rejected(self, rational):
        core = parse_poly("x1*x2", rational)
        pivots = (rational.element(2), rational.element(1))
        with pytest.raises(errors.CoefficientMismatch):
            band_system(core, 4, 3, term_masks(core, all_ones_cells(4)), pivots)

    @pytest.mark.parametrize("field_text", ["gf:2", "gf:5", "rational"])
    def test_band_structure_and_pivots_randomized(self, field_text):
        spec = FieldSpec.from_text(field_text)
        rng = random.Random("sys:" + field_text)
        for _ in range(15):
            m = rng.randint(2, 4)
            n = rng.randint(m + 1, 7)
            core = random_poly(rng, spec, m).normalize().core
            cells, pivots = witness_scalars(core, n)
            for i in range(m + 1, n + 1):
                # One row per target entry on diagonal i, each holding the
                # m coefficients of columns k..k+m-1, the pivot first.
                matrix = band_system(core, n, i, term_masks(core, cells), pivots)
                assert len(matrix) == n - i + 1
                for k, row in enumerate(matrix, start=1):
                    assert len(row) == m
                    assert row[0] == eval_pivot(
                        cells, core, pivot_terms(core), k + i - m - 1
                    )

    @pytest.mark.parametrize("field_text", ["gf:2", "gf:5", "gf:7", "rational"])
    def test_closed_form_equals_evaluation_reference(self, field_text):
        spec = FieldSpec.from_text(field_text)
        rng = random.Random("closed:" + field_text)
        for m in range(2, 8):
            for _ in range(3):
                n = rng.randint(m + 1, m + 5)
                core = random_poly(rng, spec, m).normalize().core
                cells, pivots = witness_scalars(core, n)
                fixed = fixed_arguments(cells, n, spec)
                reference = [reference_band_matrix(core, n, i, fixed) for i in range(m + 1, n + 1)]
                scale = shared_denominator(core)
                for i, rows in zip(range(m + 1, n + 1), reference):
                    matrix = band_system(core, n, i, term_masks(core, cells), pivots)
                    assert dense(matrix) == over(rows, scale)

    def test_integer_sums_exact_over_q(self, rational):
        # m = 7, n = 13 with coefficients over 2, 3, 5 and 7: the numerators
        # summed over their lcm 210 give exactly the rows that evaluating
        # the polynomial gives, on every diagonal.
        rng = random.Random("exact:q")
        support = sorted(random_poly(rng, rational, 7).coeffs)
        coeffs = {
            sigma: Fraction(rng.choice([-4, -1, 1, 3]), (2, 3, 5, 7)[k % 4])
            for k, sigma in enumerate(support)
        }
        coeffs[(1, 2, 3, 4, 5, 6, 7)] = 1
        core = MultilinearPoly(7, rational, coeffs)
        cells, pivots = witness_scalars(core, 13)
        masks = term_masks(core, cells)
        assert shared_denominator(core) == 210
        fixed = fixed_arguments(cells, 13, rational)
        for i in range(8, 14):
            matrix = band_system(core, 13, i, masks, pivots)
            assert dense(matrix) == over(reference_band_matrix(core, 13, i, fixed), 210)

    def test_assembly_evaluates_nothing(self, monkeypatch, gf5):
        # One preimage at m=7, n=13 evaluates the polynomial once, for the
        # postcondition, and multiplies no matrices while assembling.
        rng = random.Random("pinned")
        f = random_poly(rng, gf5, 7)
        target = random_band_target(rng, gf5, 13, 7)
        calls = {"evaluate": 0, "mul": 0}
        evaluate, mul = MultilinearPoly.evaluate, freealg.sparse_product

        def counted_evaluate(self, args):
            calls["evaluate"] += 1
            return evaluate(self, args)

        def counted_mul(left, right_rows):
            calls["mul"] += 1
            return mul(left, right_rows)

        monkeypatch.setattr(MultilinearPoly, "evaluate", counted_evaluate)
        preimage(f, 13, target)
        assert calls["evaluate"] == 1
        core = f.normalize().core
        cells, pivots = witness_scalars(core, 13)
        monkeypatch.setattr(freealg, "sparse_product", counted_mul)
        for i in range(8, 14):
            band_system(core, 13, i, term_masks(core, cells), pivots)
        assert calls == {"evaluate": 1, "mul": 0}


class TestSolveBand:
    """``solve_band`` returns the solution as values over one denominator:
    residues over 1 over GF(p), integer numerators over Q."""

    def test_known_rational_solution(self, rational):
        matrix, rhs = system_from_rows([[1, -1, 0], [0, 1, -1]], [1, 1], rational)
        assert solve_band(matrix, rhs, rational) == ([2, 1, 0], 1)

    def test_rational_solution_grows_its_denominator(self, rational):
        # The right-hand side is (1/2, 1/2); the pivot 3 does not divide
        # its row, so the solution (1/6, 1/6, 0) comes back over 6.
        matrix, rhs = system_from_rows([[2, 1, 0], [0, 3, 1]], [1, 1], rational)
        assert solve_band(matrix, rhs, rational, 2) == ([1, 1, 0], 6)

    def test_known_gf2_solution(self, gf2):
        matrix, rhs = system_from_rows([[1, 1, 0], [0, 1, 1]], [1, 1], gf2)
        assert solve_band(matrix, rhs, gf2) == ([0, 1, 0], 1)

    def test_zero_rhs(self, gf3):
        matrix, rhs = system_from_rows([[1, 2, 0], [0, 2, 1]], [0, 0], gf3)
        ys, den = solve_band(matrix, rhs, gf3)
        assert not any(ys) and den == 1

    def test_rejects_bad_rhs_length_and_zero_pivot(self, gf3):
        matrix, _rhs = system_from_rows([[1, 2, 0], [0, 2, 1]], [1, 1], gf3)
        for short in ([], [1], [1, 1, 1]):
            with pytest.raises(errors.BadLength):
                solve_band(matrix, short, gf3)
        matrix, rhs = system_from_rows([[1, 2, 0], [0, 3, 1]], [1, 1], gf3)
        with pytest.raises(errors.DivisionByZero):
            solve_band(matrix, rhs, gf3)

    @pytest.mark.parametrize("field_text", ["gf:3", "rational"])
    def test_solution_satisfies_system(self, field_text):
        spec = FieldSpec.from_text(field_text)
        rng = random.Random("solve:" + field_text)
        for _ in range(20):
            rows = rng.randint(1, 4)
            degree = rng.randint(2, 4)
            cols = rows + degree - 1
            matrix = [[0] * cols for _ in range(rows)]
            for k in range(rows):
                for s in range(k, k + degree):
                    matrix[k][s] = rng.randint(0, 4)
                while not spec.element(matrix[k][k]):
                    matrix[k][k] = rng.randint(1, 4)
            rhs = [rng.randint(-3, 3) for _ in range(rows)]
            rhs_den = rng.randint(1, 5) if spec.p is None else 1
            ys, den = solve_band(*system_from_rows(matrix, rhs, spec, degree), spec, rhs_den)
            for k in range(rows):
                # matrix * (ys / den) = rhs / rhs_den, cross-multiplied
                total = sum(matrix[k][s] * ys[s] for s in range(cols))
                assert spec.reduce(total * rhs_den) == spec.reduce(rhs[k] * den)

    @pytest.mark.parametrize("field_text", ["gf:2", "gf:5", "rational"])
    def test_sparse_rows_match_dense_back_substitution(self, field_text):
        # Most off-diagonal coefficients and many right-hand sides are
        # zero, as in the solver's systems; the reference subtracts every
        # term of the dense row, reducing after every step.
        spec = FieldSpec.from_text(field_text)
        rng = random.Random("sparse:" + field_text)
        for _ in range(60):
            rows = rng.randint(1, 6)
            degree = rng.randint(2, 5)
            cols = rows + degree - 1
            matrix = [[0] * cols for _ in range(rows)]
            for k in range(rows):
                matrix[k][k] = rng.choice([v for v in range(1, 5) if spec.element(v)])
                for s in range(k + 1, k + degree):
                    if rng.random() < 0.25:
                        matrix[k][s] = rng.randint(-4, 4)
            rhs = [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(rows)]
            band, raw_rhs = system_from_rows(matrix, rhs, spec, degree)
            coeffs = dense(band)
            expected = [spec.zero] * cols
            for k in range(rows - 1, -1, -1):
                acc = spec.element(rhs[k])
                for s in range(k + 1, cols):
                    acc = spec.reduce(acc - coeffs[k][s] * expected[s])
                expected[k] = spec.reduce(acc * inverse(spec, coeffs[k][k]))
            ys, den = solve_band(band, raw_rhs, spec)
            assert spec.p is None or den == 1
            assert [Fraction(y, den) for y in ys] == expected


class TestPreimage:
    def test_commutator_corner(self, rational):
        f = parse_poly("x1*x2-x2*x1", rational)
        target = mat(3, rational, [(1, 3, 1)])
        witness = preimage(f, 3, target)
        assert f.evaluate(list(witness)) == target

    def test_band_violation(self, rational):
        f = parse_poly("x1*x2-x2*x1", rational)
        with pytest.raises(errors.TargetNotInImage) as info:
            preimage(f, 3, mat(3, rational, [(1, 2, 1)]))
        assert "(1, 2)" in str(info.value)

    def test_identity_case_zero_target(self, rational):
        f = parse_poly("x1*x2-x2*x1", rational)
        witness = preimage(f, 2, mat(2, rational, []))
        assert len(witness) == 2
        assert all(x.is_zero for x in witness)

    def test_identity_case_nonzero_target(self, rational):
        f = parse_poly("x1*x2*x3", rational)
        with pytest.raises(errors.TargetNotInImage):
            preimage(f, 3, mat(3, rational, [(1, 3, 1)]))

    def test_zero_target_shortcut(self, gf5):
        f = parse_poly("x1*x2", gf5)
        witness = preimage(f, 4, mat(4, gf5, []))
        assert all(x.is_zero for x in witness)

    def test_zero_polynomial_rejected(self, rational):
        f = parse_poly("x1*x2-x1*x2", rational)
        with pytest.raises(errors.ZeroPolynomial):
            preimage(f, 3, mat(3, rational, []))

    def test_dimension_and_field_checks(self, rational, gf2):
        f = parse_poly("x1*x2", rational)
        with pytest.raises(errors.DimensionMismatch):
            preimage(f, 3, mat(4, rational, []))
        with pytest.raises(errors.FieldMismatch):
            preimage(f, 3, mat(3, gf2, []))

    def test_degree_one(self, rational):
        f = parse_poly("3*x1", rational)
        target = mat(3, rational, [(1, 2, 2), (1, 3, -5)])
        witness = preimage(f, 3, target)
        assert len(witness) == 1
        assert f.evaluate(list(witness)) == target

    def test_unnormalized_leading_coefficient(self, gf5):
        # No identity monomial at all: normalization must relabel.
        f = parse_poly("2*x2*x1", gf5)
        target = mat(3, gf5, [(1, 3, 4)])
        witness = preimage(f, 3, target)
        assert f.evaluate(list(witness)) == target

    @pytest.mark.parametrize("field_text", ["gf:2", "gf:3", "gf:5", "rational"])
    def test_round_trip_randomized(self, field_text):
        spec = FieldSpec.from_text(field_text)
        rng = random.Random("round:" + field_text)
        for _ in range(15):
            m = rng.randint(2, 5)
            n = rng.randint(m + 1, 8)
            f = random_poly(rng, spec, m)
            target = random_band_target(rng, spec, n, m)
            witness = preimage(f, n, target)
            assert f.evaluate(list(witness)) == target

    def test_deterministic_output(self, gf3):
        rng = random.Random("det")
        f = random_poly(rng, gf3, 3)
        target = random_band_target(rng, gf3, 6, 3)
        first = preimage(f, 6, target)
        second = preimage(f, 6, target)
        assert [x.to_json_dict() for x in first] == [x.to_json_dict() for x in second]

    def assert_perturbation_caught(self, monkeypatch, tmp_path, capsys, field_text, perturb):
        """Let ``perturb`` rewrite the first solved diagonal's (ys, top),
        numerators over one denominator: the postcondition must fail, in
        the library and as exit 3 from the CLI."""
        spec = FieldSpec.from_text(field_text)
        solve = solver.solve_band
        shifted = []

        def perturbed(matrix, rhs, spec_, den):
            ys, top = solve(matrix, rhs, spec_, den)
            if not shifted:
                ys, top = perturb(spec, ys, top)
                # diagonal i of the 5 x 5 target has 5 - i + 1 rows
                shifted.append(6 - len(rhs))
            return ys, top

        monkeypatch.setattr(solver, "solve_band", perturbed)
        f = parse_poly("x1*x2*x3 + 2*x2*x1*x3", spec)
        target = mat(5, spec, [(1, 4, 1), (2, 5, 3), (1, 5, 2)])
        with pytest.raises(errors.PostconditionViolation):
            preimage(f, 5, target)
        assert shifted == [4]
        shifted.clear()
        path = tmp_path / "target.json"
        path.write_text(json.dumps(target.to_json_dict()))
        argv = ["solve", "--poly", "x1*x2*x3 + 2*x2*x1*x3", "--n", "5"]
        code = cli.main(argv + ["--field", field_text, "--target", str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            "internal error (bug): constructed witness does not evaluate to the target\n"
        )

    @pytest.mark.parametrize("field_text", ["gf:5", "rational"])
    def test_perturbed_witness_fails_postcondition(self, monkeypatch, tmp_path, capsys, field_text):
        # Shift one entry of X_1 by one: the pivot of its row is nonzero, so
        # exactly one target entry changes.
        def plus_one(spec, ys, top):
            ys[0] = spec.reduce(ys[0] + top)
            return ys, top

        self.assert_perturbation_caught(monkeypatch, tmp_path, capsys, field_text, plus_one)

    def test_denominator_only_change_fails_postcondition(self, monkeypatch, tmp_path, capsys):
        # Over Q, give one entry of X_1 a larger denominator and keep its
        # numerator: the shared denominator grows by k, prime to the entry,
        # and every other numerator grows with it.
        def larger_denominator(spec, ys, top):
            right = Fraction(ys[0], top)
            k = abs(ys[0]) + 1
            ys, top = [ys[0]] + [y * k for y in ys[1:]], top * k
            wrong = Fraction(ys[0], top)
            assert right and wrong.numerator == right.numerator
            assert wrong.denominator == right.denominator * k
            return ys, top

        self.assert_perturbation_caught(
            monkeypatch, tmp_path, capsys, "rational", larger_denominator
        )

    def test_deep_witness_bytes_pinned(self):
        # 30 seeded degree-7 solves, n = 9..13 over GF(5), GF(7) and Q:
        # the witness documents, as ``solve`` writes them, hash to a fixed
        # digest, so no change to the solver's internals may move a byte.
        texts = []
        for index in range(30):
            spec = FieldSpec.from_text(("gf:5", "gf:7", "rational")[index % 3])
            rng = random.Random(f"deep-witness:{index}")
            n = 9 + index % 5
            f = random_poly(rng, spec, 7)
            target = random_band_target(rng, spec, n, 7)
            witness = preimage(f, n, target)
            texts.append(selfcheck.witness_json(f.to_text(), n, spec, target, witness))
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest == "17196adf62f843f30308ec9fafd670af58fa65620d92281facbfd078915f0b70"

    def test_untraced_solve_keeps_no_band_rows(self, gf5):
        # Without a trace, each diagonal's rows die once solved, so a
        # one-entry target at n = 200 never holds the O(n^2) rows of all
        # 198 diagonals at once.
        f = parse_poly("x1*x2", gf5)
        target = mat(200, gf5, [(1, 200, 1)])
        tracemalloc.start()
        try:
            preimage(f, 200, target)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20

    def test_one_entry_target_solves_one_diagonal(self, gf5):
        # Only the diagonal holding the entry is assembled and solved, so a
        # single corner entry at n = 3200 costs one one-row system.
        f = parse_poly("x1*x2", gf5)
        target = mat(3200, gf5, [(1, 3200, 1)])
        trace = {}
        witness = preimage(f, 3200, target, trace=trace)
        assert [(i, len(rows), rhs) for i, rows, rhs in trace["systems"]] == [
            (3200, 1, (1,))
        ]
        assert f.evaluate(list(witness)) == target

    def test_trace_exposes_internals(self, rational):
        f = parse_poly("x1*x2-x2*x1", rational)
        target = mat(4, rational, [(1, 3, 1), (1, 4, 2)])
        trace = {}
        preimage(f, 4, target, trace=trace)
        assert trace["cells"] == [[], [], [0, 0, 1, 1]]
        assert [i for i, _matrix, _rhs in trace["systems"]] == [3, 4]
        assert [rhs for _i, _matrix, rhs in trace["systems"]] == [(1, 0), (2,)]

    def test_first_slot_splits_by_diagonal(self, gf5):
        # The first argument may be assembled one diagonal at a time:
        # evaluation is linear in that slot.
        rng = random.Random("linear")
        f = random_poly(rng, gf5, 3).normalize().core
        n = 6
        cells, _ = witness_scalars(f, n)
        fixed = fixed_arguments(cells, n, gf5)
        pieces = []
        for i in (4, 5, 6):
            pairs = [
                (s, s + i - 3, random_band_target(rng, gf5, 2, 1).get(1, 2))
                for s in range(1, n - i + 4)
            ]
            pieces.append(StrictUT.from_entries(n, gf5, pairs))
        total = mat(n, gf5, [entry for piece in pieces for entry in triples(piece)])
        summed = mat(n, gf5, [
            entry for piece in pieces for entry in triples(f.evaluate([piece] + fixed))
        ])
        assert f.evaluate([total] + fixed) == summed


@pytest.mark.parametrize(
    "module, package",
    [
        (witness, {"errors", "fields", "freealg"}),
        (solver, {"errors", "fields", "freealg", "triangular", "witness"}),
    ],
)
def test_solver_imports_nothing_from_the_oracle(module, package):
    # The oracle checks what the solver builds, so the solver half must not
    # lean on it, not even for a constant.
    imported, relative = module_imports(module)
    assert imported
    assert not [name for name in imported if "oracle" in name.split(".")]
    assert relative == package
