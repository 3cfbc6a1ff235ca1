"""Scalar selection for the fixed arguments of a preimage computation.

Given a normalized polynomial (coefficient one at the identity) of degree
m and a target dimension n > m, this module chooses the superdiagonal
entries of the matrices bound to x_2..x_m.  Every chosen entry is 0 or 1,
so the choice is a table of 0/1 cell rows: ``cells[var][slot]`` is the
entry (slot, slot + 1) of the matrix for x_var, for var = 2..m and slot =
0..n-1 (rows 0 and 1 are empty, and slots 0 and 1 stay 0).  Writing
t[slot, var] for that cell, the choice guarantees that each of the n - m
pivot sums

    pivot(k) = sum over support terms s with s(1) = 1 of
               coeff(s) * t[k+1, s(2)] * t[k+2, s(3)] * ... * t[k+m-1, s(m)]

is nonzero.  Since the cells are 0/1, a term adds its coefficient exactly
when every cell it reads is 1, and nothing otherwise.  Sums are ints,
reduced mod p before each zero test; over Q they run on the coefficients
times the lcm L of their denominators, which changes no zero test, and
the pivots are divided by L once, at the end.  Those pivots are the
diagonal pivots of the solver's banded systems, so their nonvanishing is
exactly what makes every target reachable.

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
stay 0.

Terms with a zero coefficient add nothing to any of these sums, so every
sum runs over a filter of the polynomial's support: the work grows with
|supp|, m and n, never with m!.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import errors
from .fields import FieldSpec
from .freealg import MultilinearPoly, Permutation
from .oracle import DEFAULT_CAP


def pivot_terms(core: MultilinearPoly) -> list[tuple[Permutation, object]]:
    """The support terms that fix 1, with raw coefficients: the terms every
    pivot sum and staircase filter runs over."""
    return [(sigma, c) for sigma, c in core.coeffs.items() if sigma.images[0] == 1]


def _fixing_above(terms, top: int) -> list[tuple[Permutation, object]]:
    """The terms among ``terms`` that fix every position above ``top``."""
    if not terms:
        return []
    tail = tuple(range(top + 1, len(terms[0][0].images) + 1))
    return [(sigma, coeff) for sigma, coeff in terms if sigma.images[top:] == tail]


def _term_sum(terms, cells: list[list[int]], k: int, depth: int, spec: FieldSpec):
    """Sum, reduced mod p, of the coefficients of the terms sigma whose
    cells ``cells[sigma(t)][k + t - 1]``, t = 2..depth, all read 1."""
    total = 0
    for sigma, coeff in terms:
        images = sigma.images
        for t in range(1, depth):
            if not cells[images[t]][k + t]:
                break
        else:
            total += coeff
    return total if spec.p is None else total % spec.p


def base_assignment(core: MultilinearPoly, n: int) -> list[list[int]]:
    """The cell rows with variables 2 and 3 (just 2 when m = 2) filled.

    For m >= 3 the pattern depends on the coefficient c at the swap of
    positions 2 and 3: all ones when c = 0, otherwise slot k gets
    (0, 1) for odd k and (1, 0) for even k in variables (2, 3).  Either
    way every head sum comes out 1 or c, both nonzero.  The rows of
    variables 4..m are all 0.
    """
    if core.coefficient(Permutation.identity(core.m)) != core.spec.one:
        raise errors.NotNormalized("expected coefficient one at the identity permutation")
    m = core.m
    if not 2 <= m < n:
        raise errors.BadIndex(f"need 2 <= m < n, got m={m}, n={n}")
    if (m - 1) * n > DEFAULT_CAP:  # priced before the rows are allocated
        raise errors.CapExceeded(f"{m - 1} x {n} cells exceed the cap {DEFAULT_CAP}")
    cells = [[], []] + [[0] * n for _ in range(m - 1)]
    if m == 2 or not core.coefficient(Permutation.transposition(m, 2, 3)):
        for var in range(2, min(m, 3) + 1):
            cells[var][2:] = [1] * (n - 2)
    else:
        for slot in range(2, n):
            cells[2][slot], cells[3][slot] = (0, 1) if slot % 2 == 1 else (1, 0)
    return cells


def step_remainder(terms, j: int) -> list[tuple[Permutation, object]]:
    """The ``pivot_terms`` entering at staircase step j: they fix every
    position above j + 2, but move j + 2."""
    return [
        (sigma, coeff)
        for sigma, coeff in _fixing_above(terms, j + 2)
        if sigma.images[j + 1] != j + 2
    ]


def step_extend(
    cells: list[list[int]], core: MultilinearPoly, terms: list, n: int, j: int, partials: list
) -> list:
    """Run staircase step j (2 <= j <= m-2), filling variable j + 2.

    ``terms`` is ``pivot_terms(core)``, or its coefficients scaled to ints;
    ``partials`` holds the nonzero head values from the previous step.  The
    row of variable j + 2 starts all 0, so remainder sums only ever read
    defined cells; the case loop overwrites cell (k + j + 1, j + 2) for
    k = 1..n-m in increasing order with whichever probe value in {1, 0}
    keeps the extended head nonzero.  Returns the new head values.
    """
    m = core.m
    if not 2 <= j <= m - 2:
        raise errors.BadIndex(f"step {j} outside 2..{m - 2}")
    spec = core.spec
    var = j + 2
    remainder_terms = step_remainder(terms, j)
    out = []
    for k in range(1, n - m + 1):
        head = partials[k - 1]
        if not head:
            raise errors.InternalInvariantViolation(
                f"zero head value at step {j}, equation {k}"
            )
        rem = _term_sum(remainder_terms, cells, k, var, spec) if remainder_terms else 0
        # Probe 1 first, fall back to 0; one of head + rem, rem is nonzero
        # because head is not.
        value = head + rem if spec.p is None else (head + rem) % spec.p
        choice = 1
        if not value:
            choice = 0
            value = rem
        cells[var][k + j + 1] = choice
        out.append(value)
    return out


def eval_pivot(cells: list[list[int]], core: MultilinearPoly, terms: list, k: int):
    """Pivot sum of equation k computed directly from the cells.

    This is a flat sum over ``terms = pivot_terms(core)``, with no
    staircase bookkeeping, so it doubles as an independent check on the
    incremental values recorded by the steps.
    """
    return _term_sum(terms, cells, k, core.m, core.spec)


def witness_scalars(core: MultilinearPoly, n: int) -> tuple[list[list[int]], tuple]:
    """Choose every cell and return the rows with the n - m pivot values.

    Runs the base assignment, then steps j = 2..m-2 (none for m in
    {2, 3}), and re-verifies every pivot by direct summation before
    returning; a mismatch or a zero pivot means an implementation bug,
    never bad input.
    """
    cells = base_assignment(core, n)
    m = core.m
    terms = pivot_terms(core)
    if core.spec.p is None:
        scale = math.lcm(*(c.denominator for _, c in terms))
        terms = [(sigma, c.numerator * (scale // c.denominator)) for sigma, c in terms]
    # Length-2 head sums over the identity and the swap of 2 and 3; for
    # m = 2 the identity alone, whose sum is one cell.
    heads = _fixing_above(terms, 3)
    partials = [
        _term_sum(heads, cells, k, min(m, 3), core.spec) for k in range(1, n - m + 1)
    ]
    for j in range(2, m - 1):
        partials = step_extend(cells, core, terms, n, j, partials)
    for k in range(1, n - m + 1):
        direct = eval_pivot(cells, core, terms, k)
        if direct != partials[k - 1]:
            raise errors.InternalInvariantViolation(
                f"staircase value {partials[k - 1]} disagrees with direct "
                f"sum {direct} at equation {k}"
            )
        if not direct:
            raise errors.InternalInvariantViolation(f"zero pivot at equation {k}")
    if core.spec.p is None:
        partials = [Fraction(v, scale) for v in partials]
    return cells, tuple(partials)
