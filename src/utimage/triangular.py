"""Strictly upper triangular matrices over an exact field.

Matrices are stored sparsely as a map from 1-based (row, col) coordinates
with col > row to nonzero raw field values (ints in [0, p) or Fractions),
absent meaning zero; ``sparse_product`` multiplies them exactly and
leaves the reduction to its caller.  ``from_entries`` canonicalises
untrusted values with ``FieldSpec.element``; the plain constructor trusts
its entries.  The band subspace at level t is the set of matrices whose
(p, q) entry vanishes whenever q - p <= t, so level 0 is the whole
strictly upper triangular algebra.

A product of n strictly upper triangular n x n matrices is always zero
(each factor pushes support at least one diagonal further up), which is
why images of degree-m multilinear maps live in the band at level m - 1.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import errors
from .fields import FieldSpec, value_text


def by_row(entries: dict) -> dict[int, list[tuple]]:
    """Index sparse entries by row: row -> [(col, value), ...]."""
    rows: dict[int, list[tuple]] = {}
    for (row, col), value in entries.items():
        rows.setdefault(row, []).append((col, value))
    return rows


def sparse_product(left: dict, right_rows: dict) -> dict:
    """Entries of left * right, with right indexed by ``by_row``: exact
    sums of raw products, neither reduced mod p nor freed of zeros."""
    acc: dict = {}
    for (row, mid), a in left.items():
        for col, b in right_rows.get(mid, ()):
            key = (row, col)
            acc[key] = acc.get(key, 0) + a * b
    return acc


class StrictUT:
    """Sparse strictly upper triangular matrix with exact entries."""

    __slots__ = ("n", "spec", "entries")

    def __init__(self, n: int, spec: FieldSpec, entries: dict):
        # Trusted constructor: entries must already be canonical
        # (coordinates valid, raw values of spec, nonzero).  Use
        # from_entries for untrusted input.
        self.n = n
        self.spec = spec
        self.entries = entries

    @classmethod
    def from_entries(
        cls, n: int, spec: FieldSpec, pairs: Iterable[tuple[int, int, object]]
    ) -> "StrictUT":
        """Build a matrix from (row, col, value) triples.

        Each value is an int, a Fraction or text, canonicalised by
        ``spec.element``.  Duplicate coordinates are summed; zero sums are
        dropped.
        """
        if n < 2:
            raise errors.OutOfRange(f"dimension must be at least 2, got {n}")
        acc: dict = {}
        for row, col, value in pairs:
            if not (1 <= row <= n and 1 <= col <= n):
                raise errors.OutOfRange(f"entry ({row}, {col}) outside 1..{n}")
            if row >= col:
                raise errors.NotStrictlyUpper(
                    f"entry ({row}, {col}) is not strictly above the diagonal"
                )
            value = spec.element(value)
            key = (row, col)
            acc[key] = spec.reduce(acc[key] + value) if key in acc else value
        return cls(n, spec, {key: v for key, v in acc.items() if v})

    def get(self, row: int, col: int):
        """The raw value at (row, col), zero when absent."""
        return self.entries.get((row, col), self.spec.zero)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def scaled(self, c) -> "StrictUT":
        """The matrix times ``c``, an int, Fraction or text of this field."""
        c = self.spec.element(c)
        if not c:
            return StrictUT(self.n, self.spec, {})
        # A field has no zero divisors, so no entry becomes zero.
        p = self.spec.p
        entries = {k: v * c if p is None else v * c % p for k, v in self.entries.items()}
        return StrictUT(self.n, self.spec, entries)

    def band_member(self, t: int) -> bool:
        """True iff every entry (p, q) with q - p <= t is zero."""
        if not 0 <= t <= self.n - 1:
            raise errors.BadIndex(f"band level {t} outside 0..{self.n - 1}")
        return all(col - row > t for row, col in self.entries)

    def __eq__(self, other):
        if not isinstance(other, StrictUT):
            return NotImplemented
        return (
            self.n == other.n
            and self.spec == other.spec
            and self.entries == other.entries
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
                {"row": r, "col": c, "value": value_text(self.entries[(r, c)])}
                for r, c in sorted(self.entries)
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
