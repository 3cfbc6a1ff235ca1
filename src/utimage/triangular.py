"""Strictly upper triangular matrices over an exact field.

Matrices are stored sparsely as a map from 1-based (row, col) coordinates
with col > row to nonzero scalars; absent means zero.  The band subspace at
level t is the set of matrices whose (p, q) entry vanishes whenever
q - p <= t, so level 0 is the whole strictly upper triangular algebra.

A product of n strictly upper triangular n x n matrices is always zero
(each factor pushes support at least one diagonal further up), which is
why images of degree-m multilinear maps live in the band at level m - 1.
"""

from __future__ import annotations

from typing import Iterable

from . import errors
from .fields import FieldSpec, Scalar


class StrictUT:
    """Sparse strictly upper triangular matrix with exact entries."""

    __slots__ = ("n", "spec", "entries")

    def __init__(self, n: int, spec: FieldSpec, entries: dict):
        # Trusted constructor: entries must already be canonical
        # (coordinates valid, values nonzero).  Use from_entries for
        # untrusted input.
        self.n = n
        self.spec = spec
        self.entries = entries

    @classmethod
    def from_entries(
        cls, n: int, spec: FieldSpec, pairs: Iterable[tuple[int, int, Scalar]]
    ) -> "StrictUT":
        """Build a matrix from (row, col, value) triples.

        Duplicate coordinates are summed; zero sums are dropped.
        """
        if n < 2:
            raise errors.OutOfRange(f"dimension must be at least 2, got {n}")
        acc: dict[tuple[int, int], Scalar] = {}
        for row, col, value in pairs:
            if not (1 <= row <= n and 1 <= col <= n):
                raise errors.OutOfRange(f"entry ({row}, {col}) outside 1..{n}")
            if row >= col:
                raise errors.NotStrictlyUpper(
                    f"entry ({row}, {col}) is not strictly above the diagonal"
                )
            if value.spec != spec:
                raise errors.FieldMismatch(f"{value.spec} entry in {spec} matrix")
            key = (row, col)
            if key in acc:
                acc[key] = acc[key] + value
            else:
                acc[key] = value
        return cls(n, spec, {k: v for k, v in acc.items() if not v.is_zero})

    @classmethod
    def zero(cls, n: int, spec: FieldSpec) -> "StrictUT":
        return cls.from_entries(n, spec, ())

    @classmethod
    def unit(cls, n: int, spec: FieldSpec, row: int, col: int) -> "StrictUT":
        """The matrix with a single 1 at (row, col)."""
        return cls.from_entries(n, spec, [(row, col, spec.one)])

    def get(self, row: int, col: int) -> Scalar:
        return self.entries.get((row, col), self.spec.zero)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def sorted_entries(self) -> list[tuple[int, int, Scalar]]:
        return [(r, c, self.entries[(r, c)]) for r, c in sorted(self.entries)]

    def _check_compat(self, other: "StrictUT") -> None:
        if self.n != other.n:
            raise errors.DimensionMismatch(f"{self.n} vs {other.n}")
        if self.spec != other.spec:
            raise errors.FieldMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "StrictUT") -> "StrictUT":
        self._check_compat(other)
        acc = dict(self.entries)
        for key, value in other.entries.items():
            total = acc[key] + value if key in acc else value
            if total.is_zero:
                acc.pop(key, None)
            else:
                acc[key] = total
        return StrictUT(self.n, self.spec, acc)

    def __mul__(self, other: "StrictUT") -> "StrictUT":
        self._check_compat(other)
        by_row: dict[int, list[tuple[int, Scalar]]] = {}
        for (row, col), value in other.entries.items():
            by_row.setdefault(row, []).append((col, value))
        acc: dict[tuple[int, int], Scalar] = {}
        for (row, mid), left in self.entries.items():
            for col, right in by_row.get(mid, ()):
                key = (row, col)
                term = left * right
                total = acc[key] + term if key in acc else term
                if total.is_zero:
                    acc.pop(key, None)
                else:
                    acc[key] = total
        return StrictUT(self.n, self.spec, acc)

    def scaled(self, c: Scalar) -> "StrictUT":
        if c.spec != self.spec:
            raise errors.FieldMismatch(f"{c.spec} scale on {self.spec} matrix")
        if c.is_zero:
            return StrictUT(self.n, self.spec, {})
        return StrictUT(self.n, self.spec, {k: v * c for k, v in self.entries.items()})

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
            f"({r},{c})={v.to_text()}" for r, c, v in self.sorted_entries()
        )
        return f"StrictUT(n={self.n}, {self.spec}, [{cells}])"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "field": self.spec.to_text(),
            "entries": [
                {"row": r, "col": c, "value": v.to_text()}
                for r, c, v in self.sorted_entries()
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
                row, col = item["row"], item["col"]
                value = spec.parse(item["value"])
            except (KeyError, TypeError) as exc:
                raise errors.ParseError(f"bad matrix entry {item!r}") from exc
            if not (_is_json_int(row) and _is_json_int(col)):
                raise errors.ParseError(
                    f"entry coordinates must be integers, got {item!r}"
                )
            pairs.append((row, col, value))
        return cls.from_entries(n, spec, pairs)


def _is_json_int(value) -> bool:
    # JSON true/false load as bool, an int subclass; neither is an index.
    return isinstance(value, int) and not isinstance(value, bool)


def band_decompose(matrix: StrictUT, m: int) -> list[tuple[int, tuple[Scalar, ...]]]:
    """Split a matrix in the level-(m-1) band into its single diagonals.

    Returns one (index, values) pair per index i = m + 1 .. n, where
    ``values[k - 1]`` is the entry at (k, k + i - 1) for k = 1..n - i + 1,
    zeros included; the diagonals together hold every entry of the input.
    Raises NotInBand if some entry sits at q - p <= m - 1.
    """
    if not matrix.band_member(m - 1):
        row, col = min((r, c) for r, c in matrix.entries if c - r <= m - 1)
        raise errors.NotInBand(
            f"entry ({row}, {col}) violates the level-{m - 1} band"
        )
    n = matrix.n
    return [
        (i, tuple(matrix.get(k, k + i - 1) for k in range(1, n - i + 2)))
        for i in range(m + 1, n + 1)
    ]
