import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from utimage import errors, witness
from utimage.fields import FieldSpec
from utimage.freealg import MultilinearPoly, parse_poly
from utimage.witness import eval_pivot, pivot_terms, witness_scalars

from conftest import fixed_arguments, mat, random_pivot_coeffs, shared_denominator


class TestStepRemainder:
    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_steps_partition_the_support_fixing_first(self, rational, m):
        # With every permutation fixing 1 in the support, each at its own
        # coefficient, the head terms (identity and the swap of 2 and 3)
        # and the terms entering at each variable 4..m must cover the
        # pivot terms exactly once: a term dropped or counted twice moves
        # some pivot off its direct sum ``eval_pivot``.
        fixing_one = [(1,) + tail for tail in itertools.permutations(range(2, m + 1))]
        for n in (m + 1, m + 3, 2 * m + 2):
            for offset in range(1, 4):
                # distinct coefficients: 1 at the identity, 3 and up elsewhere
                coeffs = {images: i + offset + 1 for i, images in enumerate(fixing_one)}
                coeffs[tuple(range(1, m + 1))] = 1
                core = MultilinearPoly(m, rational, coeffs)
                cells, pivots = witness_scalars(core, n)
                terms = pivot_terms(core)
                assert len(terms) == len(fixing_one)
                assert pivots == tuple(
                    eval_pivot(cells, core, terms, k) for k in range(1, n - m + 1)
                )


class TestAssignmentTable:
    """The table of chosen cells: one 0/1 int row per variable 2..m."""

    def test_diagonal_matrix_skips_first_slot(self, rational):
        # The rows have one cell per slot 0..n-1; slot 1 is left at 0, so
        # no fixed argument has an entry at (1, 2).
        core = MultilinearPoly(2, rational, {(1, 2): 1})
        cells, _pivots = witness_scalars(core, 4)
        assert cells[2] == [0, 0, 1, 1]
        (d,) = fixed_arguments(cells, 4, rational)
        assert d == mat(4, rational, [(2, 3, 1), (3, 4, 1)])

    @pytest.mark.parametrize("field_text", ["gf:2", "gf:3", "gf:5", "rational"])
    def test_cells_are_zero_one_rows_randomized(self, field_text):
        # Every cell the staircase writes is a probe value or a base-pattern
        # value, so each row holds n ints in {0, 1}, and slots 0 and 1, which
        # no pivot sum reads, stay 0.
        spec = FieldSpec.from_text(field_text)
        rng = random.Random("cells:" + field_text)
        for _ in range(25):
            m = rng.randint(2, 6)
            core = random_pivot_coeffs(
                rng, spec, m, force_swap23=(m >= 3 and rng.random() < 0.5)
            )
            for n in range(m + 1, 9):
                cells, _pivots = witness_scalars(core, n)
                assert len(cells) == m + 1
                for row in cells[2:]:
                    assert len(row) == n and row[:2] == [0, 0]
                    assert all(type(cell) is int and cell in (0, 1) for cell in row)


class TestBaseAssignment:
    """At m = 2 and 3 no variable follows the base pattern, so the cells
    ``witness_scalars`` returns are the base pattern itself."""

    def test_degree_two_all_ones(self, rational):
        core = MultilinearPoly(2, rational, {(1, 2): 1})
        cells, _pivots = witness_scalars(core, 4)
        assert cells[2] == [0, 0, 1, 1]

    def test_degree_three_without_swap(self, rational):
        core = MultilinearPoly(3, rational, {(1, 2, 3): 1, (1, 3, 2): 0})
        cells, _pivots = witness_scalars(core, 5)
        assert cells[2] == cells[3] == [0, 0, 1, 1, 1]
        # every head sum is 1
        for k in (1, 2):
            assert eval_pivot(cells, core, pivot_terms(core), k) == 1

    def test_degree_three_with_swap_gf2(self, gf2):
        core = MultilinearPoly(3, gf2, {(1, 2, 3): 1, (1, 3, 2): 1})
        cells, _pivots = witness_scalars(core, 5)
        # odd slots (0, 1), even slots (1, 0) in variables (2, 3)
        assert cells[2] == [0, 0, 1, 0, 1]
        assert cells[3] == [0, 0, 0, 1, 0]
        terms = pivot_terms(core)
        assert [eval_pivot(cells, core, terms, k) for k in (1, 2)] == [1, 1]

    def test_head_sums_are_one_or_swap_coeff(self, gf5):
        core = MultilinearPoly(3, gf5, {(1, 2, 3): 1, (1, 3, 2): 3})
        cells, _pivots = witness_scalars(core, 7)
        terms = pivot_terms(core)
        values = {eval_pivot(cells, core, terms, k) for k in range(1, 5)}
        assert values <= {1, 3}

    def test_requires_normalized(self, rational):
        core = MultilinearPoly(2, rational, {(1, 2): 2})
        with pytest.raises(errors.NotNormalized):
            witness_scalars(core, 4)


class TestStepExtend:
    def test_degenerate_remainder_keeps_partials(self, rational):
        # Support only on {identity, swap of 2 and 3}: every remainder sum
        # is empty, so the probe value 1 is always chosen and every pivot
        # is its head sum.
        core = MultilinearPoly(5, rational, {(1, 2, 3, 4, 5): 1, (1, 3, 2, 4, 5): 2})
        n = 8
        cells, pivots = witness_scalars(core, n)
        assert pivots == tuple(eval_head(cells, core, k) for k in range(1, n - 4))
        for var in (4, 5):
            for k in range(1, n - 4):
                assert cells[var][k + var - 1] == 1

    def test_gf2_fallback_to_zero_probe(self, gf2):
        # Degree 4 over GF(2) with an extra monomial moving position 4:
        # at the second equation the probe 1 would cancel the head, so the
        # staircase must fall back to 0.  Values computed by hand.
        core = MultilinearPoly(4, gf2, {(1, 2, 3, 4): 1, (1, 2, 4, 3): 1})
        n = 6
        cells, pivots = witness_scalars(core, n)
        assert cells[4] == [0, 0, 0, 0, 1, 0]
        assert pivots == (1, 1)

    def test_zero_partial_is_a_bug_signal(self, monkeypatch, rational):
        # A zero head sum cannot come from the base pattern; if one did,
        # the next variable's probe could not recover, so it is refused.
        monkeypatch.setattr(witness, "_term_sum", lambda *args: 0)
        core = MultilinearPoly(4, rational, {(1, 2, 3, 4): 1})
        with pytest.raises(errors.InternalInvariantViolation, match="zero head value"):
            witness_scalars(core, 6)


def eval_head(cells, core, k):
    """Length-2 head sum computed directly, for test-side comparisons."""
    swap = core.coeffs.get((1, 3, 2, *range(4, core.m + 1)), core.spec.zero)
    value = cells[2][k + 1] * cells[3][k + 2] + swap * cells[3][k + 1] * cells[2][k + 2]
    return core.spec.reduce(value)


def eval_staircase(cells, core, k, depth):
    """The nested head value at a given depth, evaluated from scratch.

    Depth 1 is the length-2 head sum; each further level j multiplies by the
    staircase cell and adds the support terms fixing 1 whose largest moved
    position is j + 2.
    """
    value = eval_head(cells, core, k)
    for j in range(2, depth + 1):
        value = value * cells[j + 2][k + j + 1]
        for sigma, coeff in core.coeffs.items():
            moved = [t for t in range(1, core.m + 1) if sigma(t) != t]
            if sigma(1) == 1 and moved and max(moved) == j + 2:
                for t in range(2, j + 3):
                    coeff = coeff * cells[sigma(t)][k + t - 1]
                value = value + coeff
        value = core.spec.reduce(value)
    return value


class TestWitnessScalars:
    def test_degree_two_pivots_all_one(self, gf3):
        core = MultilinearPoly(2, gf3, {(1, 2): 1})
        _cells, pivots = witness_scalars(core, 5)
        assert pivots == (1, 1, 1)

    def test_degree_three_swap_gf2(self, gf2):
        core = MultilinearPoly(3, gf2, {(1, 2, 3): 1, (1, 3, 2): 1})
        _cells, pivots = witness_scalars(core, 5)
        assert pivots == (1, 1)

    def test_degree_four_plain_product(self, rational):
        core = parse_poly("x1*x2*x3*x4", rational).normalize().core
        cells, pivots = witness_scalars(core, 6)
        assert pivots == (1, 1)
        # no remainder terms: variable 4 takes the probe 1 at slots k + 3
        assert cells[2:] == [[0, 0, 1, 1, 1, 1]] * 2 + [[0, 0, 0, 0, 1, 1]]

    def test_builds_no_symmetric_group(self, gf5):
        # Every sum ranges over the support, so four terms at m = 8 must not
        # cost anything near the 8! = 40,320 permutations of S_8.  The
        # Python lines run are counted, whatever builds the elements: about
        # 500 run here, and any Python loop over S_8 adds 40,000 or more.
        core = MultilinearPoly(
            8,
            gf5,
            {
                (1, 2, 3, 4, 5, 6, 7, 8): 1,
                (1, 3, 2, 4, 5, 6, 7, 8): 2,
                (1, 2, 3, 5, 4, 6, 7, 8): 3,
                (1, 2, 3, 4, 5, 6, 8, 7): 4,
            },
        )
        lines = 0

        def count_lines(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return count_lines

        previous = sys.gettrace()
        sys.settrace(count_lines)
        try:
            _cells, pivots = witness_scalars(core, 11)
        finally:
            sys.settrace(previous)
        assert len(pivots) == 3
        assert lines < 4000

    def test_requires_degree_below_dimension(self, rational):
        core = MultilinearPoly(2, rational, {(1, 2): 1})
        with pytest.raises(errors.BadIndex):
            witness_scalars(core, 2)

    @pytest.mark.parametrize("field_text", ["gf:2", "gf:3", "gf:5", "rational"])
    def test_pivots_nonzero_randomized(self, field_text):
        # The module's central property: whatever the coefficients on the
        # permutations fixing 1 (identity coefficient one), the chosen
        # table makes every pivot sum nonzero.
        spec = FieldSpec.from_text(field_text)
        rng = random.Random("pivots:" + field_text)
        for _ in range(25):
            m = rng.randint(2, 6)
            core = random_pivot_coeffs(
                rng, spec, m, force_swap23=(m >= 3 and rng.random() < 0.5)
            )
            for n in range(m + 1, 9):
                cells, pivots = witness_scalars(core, n)
                for k in range(1, n - m + 1):
                    direct = eval_pivot(cells, core, pivot_terms(core), k)
                    assert direct
                    assert direct == pivots[k - 1]

    @pytest.mark.parametrize("field_text", ["gf:2", "rational"])
    def test_staircase_matches_direct_sums_at_every_depth(self, field_text):
        # Nested evaluation from the finished table must stay nonzero at
        # every depth and agree with the flat pivot sum at full depth.  It
        # runs on raw values; the pivots are numerators over L.
        spec = FieldSpec.from_text(field_text)
        rng = random.Random("stairs:" + field_text)
        for _ in range(10):
            m = rng.randint(4, 6)
            n = rng.randint(m + 1, 8)
            core = random_pivot_coeffs(rng, spec, m, force_swap23=(m >= 3))
            cells, pivots = witness_scalars(core, n)
            scale = shared_denominator(core)
            for k in range(1, n - m + 1):
                for depth in range(1, m - 1):
                    assert eval_staircase(cells, core, k, depth)
                assert eval_staircase(cells, core, k, m - 2) * scale == pivots[k - 1]


def selection_cases():
    """A seeded grid of normalized polynomials and dimensions: every field,
    m = 2..8 with a few random permutations fixing 1 in the support, and
    m = 4..6 with every permutation fixing 1 in it."""
    for field_text in ("gf:2", "gf:3", "gf:5", "gf:7", "rational"):
        spec = FieldSpec.from_text(field_text)
        rng = random.Random("selection:" + field_text)

        def coeff():
            if spec.p is None:
                return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 6))
            return rng.randrange(1, spec.p)

        for m in range(2, 9):
            fixing_one = [(1,) + tail for tail in itertools.permutations(range(2, m + 1))]
            supports = [
                rng.sample(fixing_one[1:], min(len(fixing_one) - 1, rng.randint(0, 8)))
                for _ in range(3)
            ]
            if 4 <= m <= 6:
                supports.append(fixing_one[1:])
            for support in supports:
                coeffs = {images: coeff() for images in support}
                coeffs[tuple(range(1, m + 1))] = spec.one
                core = MultilinearPoly(m, spec, coeffs)
                for n in (m + 1, m + 2, m + 4, 2 * m + 3):
                    yield core, n


def test_selection_bytes_pinned():
    # The cells and pivots chosen over 480 seeded cases hash to a fixed
    # digest, so no change to selection's internals may move a byte.  The
    # pivots, numerators over L, are hashed as the raw values they stand for.
    digest = hashlib.sha256()
    for core, n in selection_cases():
        cells, pivots = witness_scalars(core, n)
        scale = shared_denominator(core)
        values = [str(Fraction(v, scale)) for v in pivots]
        digest.update(json.dumps([cells, values]).encode())
    assert digest.hexdigest() == (
        "16c9300889c0fa4903830e829fa82c62c92ce53681ecd964ad294f6e2c73b6e1"
    )


class TestProbeCompleteness:
    @pytest.mark.parametrize("p", [2, 3])
    def test_exhaustive_over_small_fields(self, p):
        spec = FieldSpec.gf(p)
        for a in range(1, p):
            for b in range(p):
                head, rem = spec.element(a), spec.element(b)
                assert spec.reduce(head + rem) or rem

    def test_random_rationals(self, rational):
        rng = random.Random("probe")
        for _ in range(200):
            head = rational.element(rng.randint(1, 9))
            rem = rational.element(rng.randint(-9, 9))
            assert head + rem or rem
