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
cells are 1 and zero otherwise, and the cells are zero at slot 1.
Assembling one diagonal therefore costs O(rows * |supp| * m) cell reads
and additions of raw field values (ints mod p, or Fractions), with no
polynomial evaluation; j = 1 gives the pivot sums.  Each system is solved
by back-substitution with the free tail set to zero, and the per-diagonal
solutions add up to the first argument of the witness.  The witness is
then re-evaluated against the target with sparse matrix products, a check
that shares nothing with the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .fields import FieldSpec, value_text
from .freealg import MultilinearPoly
from .triangular import StrictUT, band_decompose
from .witness import witness_scalars


@dataclass
class BandSystem:
    """Linear system tying the unknown diagonal of x_1 to one target diagonal.

    Row k (1-based, k = 1..rows) is the equation for target entry
    (k, k + diagonal_index - 1); column s is the unknown entry of x_1 at
    (s, s + diagonal_index - degree).  The matrix is banded: row k is
    supported on columns k..k + degree - 1, so ``matrix[k - 1]`` holds just
    those ``degree`` coefficients, the diagonal one (a nonzero pivot sum)
    first.  Coefficients and ``rhs`` (one value per row) are raw values of
    ``spec``: ints mod p or Fractions.
    """

    diagonal_index: int
    degree: int
    rows: int
    cols: int
    spec: FieldSpec
    matrix: list[tuple]
    rhs: tuple | list | None = None

    def coeff(self, k: int, s: int):
        """1-based access to the system matrix, as a raw value; zero off
        the band."""
        if not (1 <= k <= self.rows and 1 <= s <= self.cols):
            raise errors.BadIndex(
                f"entry ({k}, {s}) outside {self.rows} x {self.cols}"
            )
        if 0 <= s - k < self.degree:
            return self.matrix[k - 1][s - k]
        return self.spec.zero

    def debug_dict(self) -> dict:
        """The dense rows x cols matrix and the right-hand side, as text."""
        doc = {
            "diagonal": self.diagonal_index,
            "matrix": [
                [value_text(self.coeff(k, s)) for s in range(1, self.cols + 1)]
                for k in range(1, self.rows + 1)
            ],
        }
        if self.rhs is not None:
            doc["rhs"] = [value_text(v) for v in self.rhs]
        return doc


@dataclass(frozen=True)
class ImageClass:
    """Image of a polynomial on the strictly upper triangular algebra:
    either {0} or the full band at level m - 1."""

    kind: str  # "zero" | "band"
    level: int | None = None
    dimension: int = 0

    @classmethod
    def zero(cls) -> "ImageClass":
        return cls("zero")

    @classmethod
    def band(cls, m: int, n: int) -> "ImageClass":
        return cls("band", m - 1, (n - m) * (n - m + 1) // 2)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def describe(self) -> str:
        if self.is_zero:
            return "Zero"
        return f"Band({self.level}), dim {self.dimension}"


def image_description(f: MultilinearPoly, n: int) -> ImageClass:
    """Classify the image on strictly upper triangular n x n matrices."""
    if n < 2:
        raise errors.BadIndex(f"dimension {n} below 2")
    if f.is_zero or f.m >= n:
        return ImageClass.zero()
    return ImageClass.band(f.m, n)


def band_system(
    core: MultilinearPoly,
    n: int,
    i: int,
    cells: list[list[int]],
    pivots: tuple,
) -> BandSystem:
    """Assemble the system for target diagonal ``i`` (entries (k, k+i-1)).

    ``cells`` and ``pivots`` are what ``witness_scalars`` returns: the 0/1
    cell rows of the fixed arguments and the raw pivot sums.  The
    coefficients come from the closed form in the module docstring.  Each
    support term sigma adds its coefficient to the column j = sigma^-1(1)
    of every row whose m - 1 cells all read 1, so one diagonal costs
    O(rows * |supp| * m) cell reads and no matrix products.  Every row's
    diagonal coefficient is checked against the independently computed
    pivot, so a bookkeeping slip fails loudly here instead of corrupting a
    witness.
    """
    m = core.m
    if not m + 1 <= i <= n:
        raise errors.BadIndex(f"diagonal index {i} outside {m + 1}..{n}")
    spec = core.spec
    rows = n - i + 1
    columns = [[spec.zero] * rows for _ in range(m)]
    for sigma, coeff in core.coeffs.items():
        j = sigma.images.index(1) + 1
        # Per factor: its variable's cells and its slot in row 1, which is
        # t before x_1 and t + i - m - 1 after x_1's jump of i - m diagonals.
        factors = [
            (cells[var], t if t < j else t + i - m - 1)
            for t, var in enumerate(sigma.images, start=1)
            if t != j
        ]
        column = columns[j - 1]
        for k in range(rows):
            if all(cell[first + k] for cell, first in factors):
                column[k] += coeff
    if spec.p is not None:
        columns = [[v % spec.p for v in column] for column in columns]
    matrix = list(zip(*columns))
    for k, row in enumerate(matrix, start=1):
        if row[0] != pivots[k + i - m - 2]:
            raise errors.CoefficientMismatch(
                f"diagonal coefficient of row {k} disagrees with pivot "
                f"{k + i - m - 1}"
            )
    return BandSystem(i, m, rows, n - i + m, spec, matrix)


def solve_band(system: BandSystem) -> list:
    """Solve a band system exactly by back-substitution.

    The tail unknowns beyond the last equation are free; they are set to
    zero, then rows are solved from the last upward, dividing by the
    nonzero diagonal pivot.  A term whose coefficient or unknown is zero
    is skipped: it subtracts nothing, and most band coefficients off the
    diagonal are zero because the fixed arguments are 0/1 cells.  The
    solution is one raw field value per column.
    """
    if system.rhs is None:
        raise errors.BadLength("system has no right-hand side")
    if len(system.rhs) != system.rows:
        raise errors.BadLength(
            f"right-hand side has {len(system.rhs)} values, expected {system.rows}"
        )
    spec = system.spec
    p = spec.p
    ys = [spec.zero] * system.cols
    for k in range(system.rows - 1, -1, -1):
        row = system.matrix[k]
        acc = system.rhs[k]
        for j in range(1, system.degree):
            if row[j] and ys[k + j]:
                acc -= row[j] * ys[k + j]
        if not row[0]:
            raise errors.DivisionByZero(f"zero pivot in row {k + 1}")
        ys[k] = acc / row[0] if p is None else acc * pow(row[0], -1, p) % p
    return ys


def _check_band_target(target: StrictUT, m: int) -> None:
    if target.band_member(min(m - 1, target.n - 1)):
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
    before being returned; pass a dict as ``trace`` to capture the
    normalized polynomial, the 0/1 cell rows and the band systems.
    """
    if f.is_zero:
        raise errors.ZeroPolynomial("no preimages for the zero polynomial")
    if target.n != n:
        raise errors.DimensionMismatch(f"target is {target.n} x {target.n}, not {n}")
    if target.spec != f.spec:
        raise errors.FieldMismatch(f"{target.spec} target for {f.spec} polynomial")
    m = f.m
    norm = f.normalize()
    if trace is not None:
        trace["normalized"] = norm
    if m >= n:
        if not target.is_zero:
            raise errors.TargetNotInImage(
                f"degree {m} >= dimension {n}: every value is zero"
            )
        return (StrictUT.zero(n, f.spec),) * m
    _check_band_target(target, m)
    if target.is_zero:
        return (StrictUT.zero(n, f.spec),) * m
    scaled_target = target.scaled(f.spec.inv(norm.scale))
    if m == 1:
        # Degree one is direct: f = scale * x1.
        witness = (scaled_target,)
    else:
        cells, pivots = witness_scalars(norm.core, n)
        one = f.spec.one
        fixed_args = [
            StrictUT(n, f.spec, {(slot, slot + 1): one for slot in range(n) if row[slot]})
            for row in cells[2:]
        ]
        first_entries = {}
        systems = []
        for index, values in band_decompose(scaled_target, m):
            system = band_system(norm.core, n, index, cells, pivots)
            system.rhs = values
            ys = solve_band(system)
            first_entries.update(
                ((s, s + index - m), y) for s, y in enumerate(ys, start=1) if y
            )
            systems.append(system)
        if trace is not None:
            trace["cells"] = cells
            trace["systems"] = systems
        witness = norm.transfer([StrictUT(n, f.spec, first_entries)] + fixed_args)
    if f.evaluate(witness) != target:
        raise errors.PostconditionViolation(
            "constructed witness does not evaluate to the target"
        )
    return witness
