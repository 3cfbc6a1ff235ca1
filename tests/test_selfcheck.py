from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from utimage.fields import FieldSpec
from utimage.freealg import parse_poly
from utimage.selfcheck import canonical_json, witness_document, witness_json
from utimage.solver import preimage
from utimage.triangular import StrictUT

from conftest import mat

FIELDS = ["gf:2", "gf:3", "gf:5", "gf:7", "rational"]


def raw_values(spec):
    """Nonzero raw values of ``spec``; over Q signed, with denominators."""
    if spec.p is None:
        return st.builds(
            Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**6)
        ).filter(bool)
    return st.integers(1, spec.p - 1)


@st.composite
def witness_cases(draw):
    spec = FieldSpec.from_text(draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(2, 6))
    coords = [(r, c) for r in range(1, n + 1) for c in range(r + 1, n + 1)]

    def matrix():
        # Empty maps are drawn too: a zero target or a zero witness matrix.
        entries = draw(st.dictionaries(st.sampled_from(coords), raw_values(spec)))
        return StrictUT(n, spec, entries)

    target = matrix()
    witness = tuple(matrix() for _ in range(draw(st.integers(1, 4))))
    return n, spec, target, witness


Q = FieldSpec()
# A rational case with negative and non-integer values, an empty witness
# matrix, and polynomial text that JSON must escape.
ESCAPED_CASE = (
    'x1*x2 "quoted" \\ \t\x00\x1f \u00e9 \u2211 \U0001f600',
    (
        3,
        Q,
        StrictUT(3, Q, {(1, 3): Fraction(-7, 3)}),
        (StrictUT(3, Q, {}), StrictUT(3, Q, {(1, 2): Fraction(-1), (2, 3): Fraction(5, 2)})),
    ),
)


class TestWitnessJson:
    @given(poly_text=st.text(max_size=30), case=witness_cases())
    @example(*ESCAPED_CASE)
    def test_equals_canonical_json_of_the_document(self, poly_text, case):
        n, spec, target, witness = case
        assert witness_json(poly_text, n, spec, target, witness) == canonical_json(
            witness_document(poly_text, n, spec, target, witness)
        )

    def test_degree_at_least_dimension_zero_witness(self):
        # m >= n: every value is zero, so the witness is m empty matrices.
        for field_text in FIELDS:
            spec = FieldSpec.from_text(field_text)
            target = mat(3, spec, [])
            witness = preimage(parse_poly("x1*x2*x3 - x3*x2*x1", spec), 3, target)
            assert all(x.is_zero for x in witness)
            assert witness_json("x1*x2*x3 - x3*x2*x1", 3, spec, target, witness) == (
                canonical_json(
                    witness_document("x1*x2*x3 - x3*x2*x1", 3, spec, target, witness)
                )
            )
