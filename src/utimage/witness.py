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
reduced mod p before each zero test; over Q they run on the coefficients'
numerators over their shared denominator L, which changes no zero test,
and the pivots stay numerators over L.  Those pivots are the diagonal
pivots of the solver's banded systems, so their nonvanishing is exactly
what makes every target reachable.

The construction is a staircase of one-variable linear fixes, run in
one function over one pass of the support.  Each pivot term is sorted
once by its largest moved position: the identity and the swap of 2 and
3 feed the length-2 head sums

    head(k) = t[k+1, 2] * t[k+2, 3] + coeff(swap 2,3) * t[k+1, 3] * t[k+2, 2],

and every other term enters at its top position.  The cells of variables
2 and 3 are set so that every head sum is nonzero: all ones when
coeff(swap 2,3) is zero, an alternating 0/1 pattern otherwise (degree 2
has the identity alone, and every pivot is one chosen cell).  Each later
variable var = 4..m extends the heads: for each k, the pivot
contributions that involve only variables up to var split as
head * t[k+var-1, var] + remainder, where the remainder sums the terms
entering at var.  Because the head is nonzero, one of the probe values
1, 0 for the new cell keeps the extended head nonzero; cells never
constrained by the staircase stay 0.

Terms with a zero coefficient add nothing to any of these sums, so every
sum runs over a part of the polynomial's support: the work grows with
|supp|, m and n, never with m!.
"""

from __future__ import annotations

from . import errors
from .fields import FieldSpec
from .freealg import MultilinearPoly, Permutation

# The cell table holds (m - 1) * n cells; larger tables are refused.
CELL_CAP = 1_000_000


def pivot_terms(core: MultilinearPoly) -> list[tuple[Permutation, int]]:
    """The support terms that fix 1, with their coefficients' numerators
    (over the core's shared denominator L, 1 over GF(p)): the terms every
    pivot sum runs over."""
    return [(sigma, c) for sigma, c in core._nums.items() if sigma[0] == 1]


def _term_sum(terms, cells: list[list[int]], k: int, depth: int, spec: FieldSpec):
    """Sum, reduced mod p, of the coefficients of the terms sigma whose
    cells ``cells[sigma(t)][k + t - 1]``, t = 2..depth, all read 1."""
    total = 0
    for sigma, coeff in terms:
        for t in range(1, depth):
            if not cells[sigma[t]][k + t]:
                break
        else:
            total += coeff
    return total if spec.p is None else total % spec.p


def eval_pivot(cells: list[list[int]], core: MultilinearPoly, terms: list, k: int):
    """Pivot sum of equation k computed directly from the cells.

    This is a flat sum over ``terms = pivot_terms(core)``, with no
    staircase bookkeeping, so it doubles as an independent check on the
    head values the staircase extends one variable at a time.
    """
    return _term_sum(terms, cells, k, core.m, core.spec)


def witness_scalars(core: MultilinearPoly, n: int) -> tuple[list[list[int]], tuple]:
    """Choose every cell and return the rows with the n - m pivot values,
    numerators over the core's shared denominator L (1 over GF(p)).

    Fills variables 2 and 3 with the base pattern, then each variable
    4..m in turn, and re-verifies every pivot by direct summation before
    returning; a mismatch or a zero pivot means an implementation bug,
    never bad input.
    """
    m, spec = core.m, core.spec
    if core._nums.get(tuple(range(1, m + 1))) != core._den:
        raise errors.NotNormalized("expected coefficient one at the identity permutation")
    if not 2 <= m < n:
        raise errors.BadIndex(f"need 2 <= m < n, got m={m}, n={n}")
    if (m - 1) * n > CELL_CAP:  # priced before the rows are allocated
        raise errors.CapExceeded(f"{m - 1} x {n} cells exceed the cap {CELL_CAP}")
    terms = pivot_terms(core)
    # entering[var] holds the terms whose largest moved position is var;
    # the head terms (identity, swap of 2 and 3) sit at min(m, 3).
    entering = [[] for _ in range(m + 1)]
    for sigma, coeff in terms:
        top = m
        while top > 3 and sigma[top - 1] == top:
            top -= 1
        entering[top].append((sigma, coeff))
    # Base pattern: every head sum comes out 1 or coeff(swap 2,3).
    cells = [[], []] + [[0] * n for _ in range(m - 1)]
    if m == 2 or not core._nums.get((1, 3, 2, *range(4, m + 1))):
        for var in range(2, min(m, 3) + 1):
            cells[var][2:] = [1] * (n - 2)
    else:
        for slot in range(2, n):
            cells[2][slot], cells[3][slot] = (0, 1) if slot % 2 == 1 else (1, 0)
    heads = entering[min(m, 3)]
    partials = [_term_sum(heads, cells, k, min(m, 3), spec) for k in range(1, n - m + 1)]
    for var in range(4, m + 1):
        for k in range(1, n - m + 1):
            head = partials[k - 1]
            if not head:
                raise errors.InternalInvariantViolation(
                    f"zero head value at variable {var}, equation {k}"
                )
            rem = _term_sum(entering[var], cells, k, var, spec) if entering[var] else 0
            # Probe 1 first, fall back to 0; one of head + rem, rem is
            # nonzero because head is not.  Row var is still 0 from slot
            # k + var - 1 on, so the remainder reads only chosen cells.
            value = spec.reduce(head + rem)
            cells[var][k + var - 1] = 1 if value else 0
            partials[k - 1] = value if value else rem
    for k in range(1, n - m + 1):
        direct = eval_pivot(cells, core, terms, k)
        if direct != partials[k - 1]:
            raise errors.InternalInvariantViolation(
                f"staircase value {partials[k - 1]} disagrees with direct "
                f"sum {direct} at equation {k}"
            )
        if not direct:
            raise errors.InternalInvariantViolation(f"zero pivot at equation {k}")
    return cells, tuple(partials)
