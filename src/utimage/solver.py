"""Preimage construction and image classification.

The image of a nonzero degree-m multilinear polynomial on strictly upper
triangular n x n matrices is {0} when m >= n and the whole level-(m-1)
band otherwise.  The constructive direction works one diagonal at a time:
fix the arguments for x_2..x_m to the superdiagonal matrices produced by
the witness module, leave x_1 unknown and supported on the single diagonal
that multiplies up to the target diagonal, and solve a banded linear
system whose diagonal pivots are that module's nonzero pivot sums.

Because every fixed argument is superdiagonal, that system has a closed
form.  Write T(slot, v) = cells[v][slot] for the (slot, slot + 1) entry of
the argument for x_v; the witness module's cell rows hold only 0s and 1s.
For target diagonal i (entries (k, k+i-1)), column s is the unknown
entry of x_1 at (s, s+i-m), and row k is nonzero only at the columns
s = k+j-1, j = 1..m, where

    coeff(k, k+j-1) = sum over support terms sigma with sigma(j) = 1 of
        c_sigma * prod_{t<j} T(k+t-1, sigma(t)) * prod_{t>j} T(k+i-m+t-2, sigma(t)):

in a monomial with x_1 at position j, the j - 1 factors before it step
from row k to row s, x_1 jumps i - m diagonals, and the m - j factors
after it step on to column k+i-1.  Each product is c_sigma when all its
cells are 1 and zero otherwise, and the cells are zero at slot 1; j = 1
gives the pivot sums.  The cells before x_1 do not depend on i, and those
after it only shift with i, so ``term_masks`` reads each term's cells
once per solve, in O(n * |supp| * m), into two int bitmasks over the
rows, and ``band_system`` assembles a diagonal from them in
O(rows * |supp|) int operations, with no polynomial evaluation.  A system
is plain data: its band rows, a list whose entry k - 1 is the tuple
coeff(k, k), ..., coeff(k, k+m-1), and its right-hand side, the target's
diagonal i, zeros included.  ``preimage`` groups the scaled target's
entries by diagonal in one pass and assembles and solves only the
diagonals that hold one, by back-substitution with the free tail set to
zero: a zero right-hand side solves to zero.  A solve thus costs
O(nnz + n * |supp| * m) plus O(rows * |supp|) per nonzero diagonal, and
the per-diagonal solutions add up to the first argument of the witness.
The witness is then re-evaluated against the target with sparse matrix
products, a check that shares nothing with the closed form.

Over Q every value in this module is an integer numerator over a shared
denominator, as the containers store them: the band rows and pivots over
the core's L, the scaled target over its own, and each diagonal's
unknowns over one denominator that back-substitution grows only when a
pivot does not divide.  Fractions appear only in a trace.
"""

from __future__ import annotations

import math
from itertools import compress

from . import errors
from .fields import FieldSpec, value_text
from .freealg import MultilinearPoly
from .triangular import StrictUT, from_numerators
from .witness import witness_scalars


class ImageClass:
    """Image of a polynomial on the strictly upper triangular algebra:
    either {0} or the full band at level m - 1."""

    __slots__ = ("kind", "level", "dimension")

    def __init__(self, kind: str, level: int | None = None, dimension: int = 0):
        self.kind = kind  # "zero" | "band"
        self.level = level
        self.dimension = dimension

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def describe(self) -> str:
        if self.is_zero:
            return "Zero"
        return f"Band({self.level}), dim {value_text(self.dimension)}"


def image_description(f: MultilinearPoly, n: int) -> ImageClass:
    """Classify the image on strictly upper triangular n x n matrices."""
    if n < 2:
        raise errors.BadIndex(f"dimension {n} below 2")
    if f.is_zero or f.m >= n:
        return ImageClass("zero")
    return ImageClass("band", f.m - 1, (n - f.m) * (n - f.m + 1) // 2)


def term_masks(core: MultilinearPoly, cells: list[list[int]]) -> list[tuple]:
    """The support compiled for ``band_system`` from the 0/1 ``cells`` of
    ``witness_scalars``: (j - 1, before, after, c_sigma) per term sigma
    with x_1 at position j, c_sigma a numerator over the core's shared
    denominator L (a residue over GF(p)).  Bit k - 1 of ``before``
    (``after``) is set when the cells T(k+t-1, sigma(t)), t < j (t > j),
    all read 1; on diagonal i, row k reads ``after`` at bit k + i - m - 2.
    """
    masks = []
    for row in cells:
        mask = 0
        for slot in compress(range(len(row)), row):
            mask |= 1 << slot
        masks.append(mask)
    terms = []
    for sigma, coeff in core._nums.items():
        j = sigma.index(1)
        # -1 stands for every row, before any factor rules one out.
        before = after = -1
        for t, var in enumerate(sigma, start=1):
            if t <= j:
                before &= masks[var] >> t
            elif t > j + 1:
                after &= masks[var] >> t
        if before and after:
            terms.append((j, before, after, coeff))
    return terms


def band_system(
    core: MultilinearPoly, n: int, i: int, masks: list[tuple], pivots: tuple
) -> list[tuple]:
    """Assemble the band rows for target diagonal ``i`` (entries (k, k+i-1)).

    ``masks`` is ``term_masks(core, cells)`` and ``pivots`` the pivot sums
    for the cells ``witness_scalars`` chose.  Row k - 1 holds the m
    coefficients of equation k at the unknowns s = k..k+m-1, the pivot
    first: residues over GF(p), numerators over the core's L over Q.
    Each term adds its coefficient to column sigma^-1(1) of the rows set
    in ``before & (after >> (i - m - 1))``.  Every row's pivot is checked
    against the independent pivot sum, so a bookkeeping slip fails loudly
    instead of corrupting a witness.
    """
    m = core.m
    if not m + 1 <= i <= n:
        raise errors.BadIndex(f"diagonal index {i} outside {m + 1}..{n}")
    p = core.spec.p
    rows, shift = n - i + 1, i - m - 1
    flat = [0] * (rows * m)
    for j, before, after, coeff in masks:
        bits = before & (after >> shift) & ((1 << rows) - 1)
        while bits:
            low = bits & -bits
            flat[(low.bit_length() - 1) * m + j] += coeff
            bits ^= low
    if p is not None:
        flat = [v % p for v in flat]
    matrix = [tuple(flat[k : k + m]) for k in range(0, rows * m, m)]
    for k, row in enumerate(matrix, start=1):
        if row[0] != pivots[k + shift - 1]:
            raise errors.CoefficientMismatch(
                f"diagonal coefficient of row {k} disagrees with pivot {k + shift}"
            )
    return matrix


def solve_band(matrix: list[tuple], rhs: list, spec: FieldSpec, den: int = 1) -> tuple[list, int]:
    """Solve band rows (as ``band_system`` returns them) for the
    right-hand side rhs[k] / den, one value per row, by back-substitution.

    The rows hold degree = len(matrix[0]) coefficients each, so there are
    len(matrix) + degree - 1 unknowns.  The tail unknowns beyond the last
    equation are free; they are set to zero, then rows are solved from the
    last upward, dividing by the nonzero pivot.  A term whose coefficient
    or unknown is zero is skipped: it subtracts nothing, and most band
    coefficients off the pivot are zero because the fixed arguments are
    0/1 cells.  Over GF(p) the rows, ``rhs`` and the solution are
    residues, and den is 1; over Q they are ints, and the solution comes
    back as numerators over one denominator.  Returns the solution, one
    value per unknown, and that denominator (1 over GF(p)).
    """
    rows, degree = len(matrix), len(matrix[0])
    if len(rhs) != rows:
        raise errors.BadLength(
            f"right-hand side has {len(rhs)} values, expected {rows}"
        )
    p = spec.p
    ys = [0] * (rows + degree - 1)
    if p is not None:
        for k in range(rows - 1, -1, -1):
            row = matrix[k]
            acc = rhs[k]
            for j in range(1, degree):
                if row[j] and ys[k + j]:
                    acc -= row[j] * ys[k + j]
            if not row[0]:
                raise errors.DivisionByZero(f"zero pivot in row {k + 1}")
            ys[k] = acc * pow(row[0], -1, p) % p
        return ys, 1
    # Unknown s is the numerator ys[s] over over[s], the shared denominator
    # ``top`` when it was solved.  ``top`` starts at den and grows only
    # when a pivot does not divide its row's numerator; the unknowns solved
    # before are brought over it when read, and all of them at the end.
    top = den
    over = [den] * len(ys)
    for k in range(rows - 1, -1, -1):
        row = matrix[k]
        acc = rhs[k] if top == den else rhs[k] * (top // den)
        for j in range(1, degree):
            if row[j] and ys[k + j]:
                y, at = ys[k + j], over[k + j]
                acc -= row[j] * (y if at == top else y * (top // at))
        pivot = row[0]
        if not pivot:
            raise errors.DivisionByZero(f"zero pivot in row {k + 1}")
        y, rest = divmod(acc, pivot)
        if rest:  # y = acc / pivot over top * |pivot| / g, g = gcd(acc, pivot)
            g = math.gcd(acc, pivot)
            top *= abs(pivot) // g
            y = acc // g if pivot > 0 else -acc // g
        ys[k] = y
        over[k] = top
    if top != den:
        ys = [y if at == top else y * (top // at) for y, at in zip(ys, over)]
    return ys, top


def _check_band_target(target: StrictUT, m: int) -> None:
    if target.band_member(m - 1):
        return
    row, col = min((r, c) for r, c in target.entries if c - r <= m - 1)
    raise errors.TargetNotInImage(
        f"target entry ({row}, {col}) = {value_text(target.get(row, col))} sits "
        f"at distance {col - row} from the diagonal, inside the zero band "
        f"(distance <= {m - 1})"
    )


def preimage(
    f: MultilinearPoly, n: int, target: StrictUT, trace: dict | None = None
) -> tuple[StrictUT, ...]:
    """Construct matrices X_1..X_m with f(X_1, ..., X_m) = target.

    Returns the witness as the tuple (X_1, ..., X_m).  Raises
    ZeroPolynomial for a zero f, DimensionMismatch or FieldMismatch when
    the target is not n x n over f's field, and TargetNotInImage when the
    target is unreachable (nonzero while m >= n, or with entries inside
    the zero band).  The tuple is always re-evaluated against the target
    before being returned; pass a dict as ``trace`` to capture the 0/1
    cell rows and one (i, band rows, right-hand side) tuple per solved
    diagonal i, in increasing i.
    """
    if f.is_zero:
        raise errors.ZeroPolynomial("no preimages for the zero polynomial")
    if target.n != n:
        raise errors.DimensionMismatch(f"target is {target.n} x {target.n}, not {n}")
    if target.spec != f.spec:
        raise errors.FieldMismatch(f"{target.spec} target for {f.spec} polynomial")
    m = f.m
    if m >= n:
        if not target.is_zero:
            raise errors.TargetNotInImage(
                f"degree {m} >= dimension {n}: every value is zero"
            )
        return (StrictUT(n, f.spec, {}),) * m
    _check_band_target(target, m)
    if target.is_zero:
        return (StrictUT(n, f.spec, {}),) * m
    norm = f.normalize()
    spec, core, scale = f.spec, norm.core, norm.scale
    # Band rows are numerators over the core's L, so each diagonal solves
    # R y = L b: the target is divided by the scale and multiplied by L.
    factor = scale.denominator * core._den
    scaled_target = from_numerators(n, spec, *spec.canonical(
        {key: v * factor for key, v in target._nums.items()},
        target._den * scale.numerator,
    ))
    if m == 1:
        # Degree one is direct: f = scale * x1, and L is 1.
        witness = (scaled_target,)
    else:
        cells, pivots = witness_scalars(core, n)
        masks = term_masks(core, cells)
        fixed_args = [
            from_numerators(n, spec, {(slot, slot + 1): 1 for slot in compress(range(n), row)})
            for row in cells[2:]
        ]
        den = scaled_target._den
        diagonals: dict[int, dict] = {}  # i -> {k: entry (k, k+i-1)}
        for (row, col), value in scaled_target._nums.items():
            diagonals.setdefault(col - row + 1, {})[row] = value
        solved = []
        if trace is not None:
            trace.update(cells=cells, systems=[])
        for i in sorted(diagonals):  # a zero diagonal would solve to zero
            rhs = [0] * (n - i + 1)
            for k, value in diagonals[i].items():
                rhs[k - 1] = value
            matrix = band_system(core, n, i, masks, pivots)
            solved.append((i, *solve_band(matrix, rhs, spec, den)))
            if trace is not None:  # untraced, each diagonal's rows die here
                trace["systems"].append((
                    i,
                    [spec.values(row, core._den) for row in matrix],
                    spec.values(rhs, den * core._den),
                ))
        # The diagonals' unknowns fill disjoint cells of X_1: bring them over
        # one denominator (1 over GF(p)).
        x_den = math.lcm(*(e for _i, _ys, e in solved))
        first_entries = {}
        for i, ys, e in solved:
            lift = x_den // e
            for s, y in enumerate(ys, start=1):
                if y:
                    first_entries[s, s + i - m] = y * lift
        first = from_numerators(n, spec, *spec.canonical(first_entries, x_den))
        witness = norm.transfer([first] + fixed_args)
    if f.evaluate(witness) != target:
        raise errors.PostconditionViolation(
            "constructed witness does not evaluate to the target"
        )
    return witness
