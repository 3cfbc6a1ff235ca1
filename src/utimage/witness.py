"""Scalar selection for the fixed arguments of a preimage computation.

Given a normalized polynomial (coefficient one at the identity) of degree
m and a target dimension n > m, this module chooses exact values t[slot,
var] for the superdiagonal entries of the matrices bound to x_2..x_m; slot
k means the value sits at entry (k, k+1) of the matrix for x_var.  The
choice guarantees that each of the n - m pivot sums

    pivot(k) = sum over support terms s with s(1) = 1 of
               coeff(s) * t[k+1, s(2)] * t[k+2, s(3)] * ... * t[k+m-1, s(m)]

is nonzero.  Those sums reappear as the diagonal pivots of the banded
linear systems the preimage solver back-substitutes, so their nonvanishing
is exactly what makes every target reachable.

The construction is a staircase of one-variable linear fixes.  Degree 2 is
immediate (every pivot is one chosen cell).  For degree >= 3, the cells of
variables 2 and 3 are set so that every length-2 head sum

    head(k) = t[k+1, 2] * t[k+2, 3] + coeff(swap 2,3) * t[k+1, 3] * t[k+2, 2]

is nonzero: all ones when coeff(swap 2,3) is zero, an alternating 0/1
pattern otherwise.  Each later step j = 2..m-2 brings in variable j + 2:
for each k, pivot contributions that involve only variables up to j + 2
split as head * t[k+j+1, j+2] + remainder, where the remainder collects
the support terms fixing 1 and everything above j + 2 but moving j + 2.
Because the head is nonzero, one of the probe values 1, 0 for the new cell
keeps the extended head nonzero; cells never constrained by the staircase
default to 0.

Terms with a zero coefficient add nothing to any of these sums, so every
sum runs over a filter of the polynomial's support: the work grows with
|supp|, m and n, never with m!.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .fields import Scalar
from .freealg import MultilinearPoly, Permutation
from .triangular import StrictUT


class AssignmentTable:
    """Chosen scalar values, one per (slot, var) cell.

    Slots run 2..n-1 and vars 2..m; the value at (slot, var) lands at
    entry (slot, slot + 1) of the superdiagonal matrix bound to x_var.
    """

    def __init__(self, n: int, m: int, spec):
        self.n = n
        self.m = m
        self.spec = spec
        self.cells: dict[tuple[int, int], Scalar] = {}

    def _check(self, slot: int, var: int) -> None:
        if not 2 <= slot <= self.n - 1:
            raise errors.BadIndex(f"slot {slot} outside 2..{self.n - 1}")
        if not 2 <= var <= self.m:
            raise errors.BadIndex(f"variable index {var} outside 2..{self.m}")

    def put(self, slot: int, var: int, value: Scalar) -> None:
        self._check(slot, var)
        self.cells[(slot, var)] = value

    def get(self, slot: int, var: int) -> Scalar:
        self._check(slot, var)
        return self.cells[(slot, var)]

    @property
    def is_complete(self) -> bool:
        return len(self.cells) == (self.n - 2) * (self.m - 1)

    def diagonal_matrix(self, var: int) -> StrictUT:
        """The superdiagonal matrix for x_var; slot 1 is unconstrained by
        the construction and defaults to zero."""
        return StrictUT.from_entries(
            self.n,
            self.spec,
            [
                (slot, slot + 1, self.get(slot, var))
                for slot in range(2, self.n)
                if not self.get(slot, var).is_zero
            ],
        )

    def debug_triples(self) -> list[dict]:
        return [
            {"k": slot, "l": var, "value": self.cells[(slot, var)].to_text()}
            for slot, var in sorted(self.cells)
        ]


@dataclass(frozen=True)
class PivotValues:
    """The n - m pivot sums produced by the selection; all nonzero."""

    values: tuple[Scalar, ...]

    def __post_init__(self):
        if any(v.is_zero for v in self.values):
            raise errors.InternalInvariantViolation("zero pivot value")

    def at(self, k: int) -> Scalar:
        """1-based access: the pivot of equation k."""
        return self.values[k - 1]


def _require_normalized(core: MultilinearPoly) -> None:
    if core.coefficient(Permutation.identity(core.m)) != core.spec.one:
        raise errors.NotNormalized(
            "expected coefficient one at the identity permutation"
        )


def base_assignment(core: MultilinearPoly, n: int) -> AssignmentTable:
    """Fill the cells of variables 2 and 3 (just 2 when m = 2).

    For m >= 3 the pattern depends on the coefficient c at the swap of
    positions 2 and 3: all ones when c = 0, otherwise slot k gets
    (0, 1) for odd k and (1, 0) for even k in variables (2, 3).  Either
    way every head sum comes out 1 or c, both nonzero.
    """
    _require_normalized(core)
    m = core.m
    if not 2 <= m < n:
        raise errors.BadIndex(f"need 2 <= m < n, got m={m}, n={n}")
    spec = core.spec
    table = AssignmentTable(n, m, spec)
    if m == 2:
        for slot in range(2, n):
            table.put(slot, 2, spec.one)
        return table
    swap23 = core.coefficient(Permutation.transposition(m, 2, 3))
    if swap23.is_zero:
        for slot in range(2, n):
            table.put(slot, 2, spec.one)
            table.put(slot, 3, spec.one)
    else:
        for slot in range(2, n):
            if slot % 2 == 1:
                table.put(slot, 2, spec.zero)
                table.put(slot, 3, spec.one)
            else:
                table.put(slot, 2, spec.one)
                table.put(slot, 3, spec.zero)
    return table


def _head_values(table: AssignmentTable, core: MultilinearPoly, n: int) -> list[Scalar]:
    """Length-2 head sums over {identity, swap of 2 and 3}, one per k."""
    m = core.m
    swap23 = core.coefficient(Permutation.transposition(m, 2, 3))
    out = []
    for k in range(1, n - m + 1):
        head = table.get(k + 1, 2) * table.get(k + 2, 3)
        if not swap23.is_zero:
            head = head + swap23 * table.get(k + 1, 3) * table.get(k + 2, 2)
        out.append(head)
    return out


def step_remainder(core: MultilinearPoly, j: int) -> list[tuple[Permutation, Scalar]]:
    """Support terms entering at staircase step j: they fix 1 and every
    position above j + 2, but move j + 2."""
    return [
        (sigma, coeff)
        for sigma, coeff in core.coeffs.items()
        if sigma.fixes(1)
        and not sigma.fixes(j + 2)
        and all(sigma.fixes(t) for t in range(j + 3, core.m + 1))
    ]


def step_extend(
    table: AssignmentTable,
    core: MultilinearPoly,
    n: int,
    j: int,
    partials: list[Scalar],
) -> list[Scalar]:
    """Run staircase step j (2 <= j <= m-2), filling variable j + 2.

    ``partials`` holds the nonzero head values from the previous step.
    Every cell of variable j + 2 is first defaulted to 0 so remainder sums
    only ever read defined cells; the case loop then overwrites cell
    (k + j + 1, j + 2) for k = 1..n-m in increasing order with whichever
    probe value in {1, 0} keeps the extended head nonzero.  Returns the
    new head values.
    """
    m = core.m
    if not 2 <= j <= m - 2:
        raise errors.BadIndex(f"step {j} outside 2..{m - 2}")
    spec = core.spec
    var = j + 2
    for slot in range(2, n):
        table.put(slot, var, spec.zero)
    remainder_terms = step_remainder(core, j)
    out = []
    for k in range(1, n - m + 1):
        head = partials[k - 1]
        if head.is_zero:
            raise errors.InternalInvariantViolation(
                f"zero head value at step {j}, equation {k}"
            )
        rem = spec.zero
        for sigma, coeff in remainder_terms:
            prod = coeff
            for t in range(2, var + 1):
                prod = prod * table.get(k + t - 1, sigma(t))
                if prod.is_zero:
                    break
            rem = rem + prod
        # Probe 1 first, fall back to 0; one of head + rem, rem is nonzero
        # because head is not.
        value = head + rem
        choice = spec.one
        if value.is_zero:
            choice = spec.zero
            value = rem
        table.put(k + j + 1, var, choice)
        out.append(value)
    return out


def eval_pivot(table: AssignmentTable, core: MultilinearPoly, k: int) -> Scalar:
    """Pivot sum of equation k computed directly from the table.

    This is a flat sum over the support terms fixing position 1, with no
    staircase bookkeeping, so it doubles as an independent check on the
    incremental values recorded by the steps.
    """
    total = core.spec.zero
    for sigma, coeff in core.coeffs.items():
        if not sigma.fixes(1):
            continue
        prod = coeff
        for t in range(2, core.m + 1):
            prod = prod * table.get(k + t - 1, sigma(t))
            if prod.is_zero:
                break
        total = total + prod
    return total


def witness_scalars(
    core: MultilinearPoly, n: int
) -> tuple[AssignmentTable, PivotValues]:
    """Choose all table cells and return them with the pivot values.

    Runs the base assignment, then steps j = 2..m-2 (none for m in
    {2, 3}), and re-verifies every pivot by direct summation before
    returning; a mismatch or a zero pivot means an implementation bug,
    never bad input.
    """
    _require_normalized(core)
    m = core.m
    if not 2 <= m < n:
        raise errors.BadIndex(f"need 2 <= m < n, got m={m}, n={n}")
    table = base_assignment(core, n)
    if m == 2:
        partials = [table.get(k + 1, 2) for k in range(1, n - 1)]
    else:
        partials = _head_values(table, core, n)
    for j in range(2, m - 1):
        partials = step_extend(table, core, n, j, partials)
    assert table.is_complete
    for k in range(1, n - m + 1):
        direct = eval_pivot(table, core, k)
        if direct != partials[k - 1]:
            raise errors.InternalInvariantViolation(
                f"staircase value {partials[k - 1]!r} disagrees with direct "
                f"sum {direct!r} at equation {k}"
            )
        if direct.is_zero:
            raise errors.InternalInvariantViolation(f"zero pivot at equation {k}")
    return table, PivotValues(tuple(partials))
