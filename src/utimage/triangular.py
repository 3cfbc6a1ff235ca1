"""Strictly upper triangular matrices over an exact field.

Matrices are stored sparsely as a map from 1-based (row, col) coordinates
with col > row to nonzero integer numerators over one shared denominator,
absent meaning zero, in the form ``FieldSpec.canonical`` gives: over
GF(p) the residues in [0, p) over 1, over Q the numerators over the lcm
of the entries' reduced denominators.  ``entries`` reads the raw values
(Fractions over Q) only when asked.  ``from_entries`` checks untrusted
coordinates; the plain constructor trusts its coordinates, and
``from_numerators`` its coordinates and numerators.

The band subspace at level t is the set of matrices whose (p, q) entry
vanishes whenever q - p <= t, so level 0 is the whole strictly upper
triangular algebra.

A product of n strictly upper triangular n x n matrices is always zero
(each factor pushes support at least one diagonal further up), which is
why images of degree-m multilinear maps live in the band at level m - 1.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import errors
from .fields import FieldSpec, common_denominator, ratio_text


class StrictUT:
    """Sparse strictly upper triangular matrix with exact entries.

    ``_nums`` maps each nonzero entry's coordinates to its numerator over
    ``_den``; the two are in ``FieldSpec.canonical`` form, so equal
    matrices hold equal numerators.  The solver and the writer read them
    directly.
    """

    __slots__ = ("n", "spec", "_nums", "_den", "_entries")

    def __init__(self, n: int, spec: FieldSpec, entries: dict):
        # Trusted coordinates; each value is an int, Fraction or text of
        # spec.  Use from_entries for untrusted input.
        self.n = n
        self.spec = spec
        self._nums, self._den = spec.canonical(*common_denominator(
            [(key, *spec.parts(value)) for key, value in entries.items()]
        ))
        self._entries = None

    @property
    def entries(self) -> dict:
        """The nonzero raw values by (row, col): residues over GF(p),
        Fractions over Q, built on the first read."""
        if self._entries is None:
            self._entries = self.spec.values(self._nums, self._den)
        return self._entries

    @classmethod
    def from_entries(
        cls, n: int, spec: FieldSpec, pairs: Iterable[tuple[int, int, object]]
    ) -> "StrictUT":
        """Build a matrix from (row, col, value) triples.

        Each value is an int, a Fraction or text of the field, read by
        ``spec.parts``.  Duplicate coordinates are summed; zero sums are
        dropped.
        """
        if n < 2:
            raise errors.OutOfRange(f"dimension must be at least 2, got {n}")
        parts = []  # (key, numerator, denominator) per value
        for row, col, value in pairs:
            if not (1 <= row <= n and 1 <= col <= n):
                raise errors.OutOfRange(f"entry ({row}, {col}) outside 1..{n}")
            if row >= col:
                raise errors.NotStrictlyUpper(
                    f"entry ({row}, {col}) is not strictly above the diagonal"
                )
            num, den = spec.parts(value)
            parts.append(((row, col), num, den))
        return from_numerators(n, spec, *spec.canonical(*common_denominator(parts)))

    def get(self, row: int, col: int):
        """The raw value at (row, col), zero when absent."""
        return self.entries.get((row, col), self.spec.zero)

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def scaled(self, c) -> "StrictUT":
        """The matrix times ``c``, an int, Fraction or text of this field."""
        num, den = self.spec.parts(c)
        nums = {key: v * num for key, v in self._nums.items()}
        return from_numerators(self.n, self.spec, *self.spec.canonical(nums, self._den * den))

    def band_member(self, t: int) -> bool:
        """True iff every entry (p, q) with q - p <= t is zero."""
        if not 0 <= t <= self.n - 1:
            raise errors.BadIndex(f"band level {t} outside 0..{self.n - 1}")
        return all(col - row > t for row, col in self._nums)

    def __eq__(self, other):
        if not isinstance(other, StrictUT):
            return NotImplemented
        return (
            self.n == other.n
            and self.spec == other.spec
            and self._den == other._den
            and self._nums == other._nums
        )

    def __repr__(self):
        cells = ", ".join(
            f"({e['row']},{e['col']})={e['value']}" for e in self.to_json_dict()["entries"]
        )
        return f"StrictUT(n={self.n}, {self.spec}, [{cells}])"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "field": self.spec.to_text(),
            "entries": [
                {"row": r, "col": c, "value": ratio_text(v, self._den)}
                for (r, c), v in sorted(self._nums.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StrictUT":
        """Parse a matrix document; every schema violation is a ParseError."""
        try:
            n = doc["n"]
            spec = FieldSpec.from_text(doc["field"])
            raw = doc["entries"]
        except (KeyError, TypeError) as exc:
            raise errors.ParseError(f"bad matrix document: {exc}") from exc
        if not _is_json_int(n):
            raise errors.ParseError(f"dimension must be an integer, got {n!r}")
        if not isinstance(raw, list):
            raise errors.ParseError(f"entries must be a list, got {raw!r}")
        pairs = []
        for item in raw:
            if not isinstance(item, dict):
                raise errors.ParseError(f"matrix entry must be an object, got {item!r}")
            try:
                row, col, value = item["row"], item["col"], item["value"]
            except KeyError as exc:
                raise errors.ParseError(f"bad matrix entry {item!r}") from exc
            if not isinstance(value, str):
                raise errors.ParseError(f"bad matrix entry {item!r}")
            if not (_is_json_int(row) and _is_json_int(col)):
                raise errors.ParseError(
                    f"entry coordinates must be integers, got {item!r}"
                )
            pairs.append((row, col, value))
        return cls.from_entries(n, spec, pairs)


def _is_json_int(value) -> bool:
    # JSON true/false load as bool, an int subclass; neither is an index.
    return isinstance(value, int) and not isinstance(value, bool)


def from_numerators(n: int, spec: FieldSpec, nums: dict, den: int = 1) -> StrictUT:
    """The matrix with entry nums[row, col] / den at each key: trusted, so
    the coordinates must be valid and nums and den in the form
    ``spec.canonical`` gives."""
    matrix = StrictUT.__new__(StrictUT)
    matrix.n = n
    matrix.spec = spec
    matrix._nums = nums
    matrix._den = den
    matrix._entries = None
    return matrix
