"""Independent brute-force verification over small prime fields.

The scan enumerates every tuple of strictly upper triangular matrices over
GF(q), evaluates the polynomial on each, and collects the set of attained
values.  Nothing here shares code with the preimage solver: evaluation is
compiled directly from the combinatorics of matrix products (an entry
(p, q) of a degree-m monomial is a sum over strictly increasing chains
p = r0 < r1 < ... < rm = q of entry products), so agreement between the
scanned image and the predicted classification is a genuine cross-check.

Matrices are packed: the n(n-1)/2 strictly upper entries are laid out
row-major over (row, col), most significant first, and a matrix is the
base-q integer of its digit string.  Image sets are kept as sorted packed
keys, which makes reports independent of the scan's enumeration order.

Two performance levers, both exact:

* for q = 2 a matrix is one machine word of bits and a compiled term is a
  handful of bit probes,
* ``reduce_bands=True`` skips entries more than n - m diagonals above the
  main one.  In a degree-m monomial each of the m factors contributes one
  entry at least one diagonal up, so an entry further than n - m up can
  never appear in a product that stays inside the matrix; zeroing it
  changes no value, hence scanning only the truncated matrices attains
  exactly the same image.  This turns otherwise hopeless scans (the full
  tuple space grows like q^(m n(n-1)/2)) into small ones.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from . import errors
from .fields import FieldSpec
from .freealg import MultilinearPoly
from .solver import ImageClass, image_description
from .triangular import StrictUT

DEFAULT_CAP = 100_000_000


def strict_coords(n: int) -> list[tuple[int, int]]:
    """The strictly upper coordinates in packing order (row-major)."""
    return [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]


@dataclass(frozen=True)
class PackedMatrix:
    """A strictly upper triangular matrix over GF(q) as packed digits."""

    n: int
    q: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) != self.n * (self.n - 1) // 2:
            raise errors.BadLength(
                f"expected {self.n * (self.n - 1) // 2} digits, got "
                f"{len(self.digits)}"
            )
        if any(not 0 <= d < self.q for d in self.digits):
            raise errors.OutOfRange(f"digit outside 0..{self.q - 1}")

    @property
    def key(self) -> int:
        value = 0
        for d in self.digits:
            value = value * self.q + d
        return value

    @classmethod
    def from_key(cls, n: int, q: int, key: int) -> "PackedMatrix":
        count = n * (n - 1) // 2
        digits = [0] * count
        for idx in range(count - 1, -1, -1):
            key, digits[idx] = divmod(key, q)
        return cls(n, q, tuple(digits))

    @classmethod
    def from_strict_ut(cls, matrix: StrictUT, q: int) -> "PackedMatrix":
        if matrix.spec != FieldSpec.gf(q):
            raise errors.FieldMismatch(f"matrix is over {matrix.spec}, not gf:{q}")
        digits = tuple(
            matrix.get(p, c).value for p, c in strict_coords(matrix.n)
        )
        return cls(matrix.n, q, digits)

    def to_strict_ut(self) -> StrictUT:
        spec = FieldSpec.gf(self.q)
        return StrictUT.from_entries(
            self.n,
            spec,
            [
                (p, c, spec.scalar(d))
                for (p, c), d in zip(strict_coords(self.n), self.digits)
                if d
            ],
        )


def enumerate_strict_ut(n: int, q: int, cap: int = DEFAULT_CAP):
    """Yield all q^(n(n-1)/2) packed matrices once, in key order."""
    FieldSpec.gf(q)  # validates primality
    count = n * (n - 1) // 2
    total = q**count
    if total > cap:
        raise errors.CapExceeded(f"{total} matrices exceed the cap {cap}")
    for digits in itertools.product(range(q), repeat=count):
        yield PackedMatrix(n, q, digits)


def _compile_terms(f: MultilinearPoly, n: int, coords: list[tuple[int, int]]):
    """Flatten the polynomial into per-output-entry product terms.

    Each term is (coefficient, uses) where uses[t] is the index into
    ``coords`` of the entry drawn from the t-th argument matrix.  A chain
    needing an entry outside ``coords`` contributes nothing on the scanned
    matrices and is dropped.
    """
    m = f.m
    coord_index = {c: i for i, c in enumerate(coords)}
    all_coords = strict_coords(n)
    grouped = []
    for out_pos, (p, q) in enumerate(all_coords):
        terms = []
        for sigma, coeff in sorted(f.coeffs.items()):
            for inner in itertools.combinations(range(p + 1, q), m - 1):
                chain = (p, *inner, q)
                uses = [0] * m
                ok = True
                for t in range(m):
                    link = (chain[t], chain[t + 1])
                    if link not in coord_index:
                        ok = False
                        break
                    uses[sigma(t + 1) - 1] = coord_index[link]
                if ok:
                    terms.append((coeff.value, tuple(uses)))
        if terms:
            grouped.append((out_pos, terms))
    return grouped


def _scan_gf2(count, m, grouped_bits):
    seen = set()
    for xs in itertools.product(range(1 << count), repeat=m):
        key = 0
        for w, terms in grouped_bits:
            acc = 0
            for uses in terms:
                bit = 1
                for s in range(m):
                    bit &= xs[s] >> uses[s]
                acc ^= bit & 1
            if acc:
                key |= w
        seen.add(key)
    return seen


def _scan_generic(count, m, grouped, out_weights, q):
    seen = set()
    digit_rows = list(itertools.product(range(q), repeat=count))
    for dvec in itertools.product(digit_rows, repeat=m):
        key = 0
        for out_pos, terms in grouped:
            acc = 0
            for coeff, uses in terms:
                prod = coeff
                for s in range(m):
                    v = dvec[s][uses[s]]
                    if v == 0:
                        prod = 0
                        break
                    prod *= v
                acc += prod
            acc %= q
            if acc:
                key += acc * out_weights[out_pos]
        seen.add(key)
    return seen


def _image_keys(
    f: MultilinearPoly,
    n: int,
    q: int,
    cap: int,
    reduce_bands: bool,
) -> tuple[tuple[int, ...], int]:
    """Scan the tuple space; returns (sorted keys, evaluation count)."""
    if f.spec != FieldSpec.gf(q):
        raise errors.FieldMismatch(f"polynomial is over {f.spec}, not gf:{q}")
    m = f.m
    all_coords = strict_coords(n)
    if reduce_bands:
        coords = [(p, c) for p, c in all_coords if c - p <= n - m]
    else:
        coords = all_coords
    count = len(coords)
    per_matrix = q**count
    evaluations = per_matrix**m
    if evaluations > cap:
        raise errors.CapExceeded(
            f"{evaluations} tuple evaluations exceed the cap {cap}"
        )
    # Output keys always span the full coordinate list so reduced and full
    # scans produce directly comparable sets.
    out_weights = [q ** (len(all_coords) - 1 - i) for i in range(len(all_coords))]
    grouped = _compile_terms(f, n, coords)

    if q == 2:
        # Bit-packed fast path: a matrix is one int, bit i of coords[i].
        grouped_bits = [
            (
                out_weights[out_pos],
                [
                    tuple(count - 1 - u for u in uses)
                    for _coeff, uses in terms
                ],
            )
            for out_pos, terms in grouped
        ]
        seen = _scan_gf2(count, m, grouped_bits)
    else:
        seen = _scan_generic(count, m, grouped, out_weights, q)
    return tuple(sorted(seen)), evaluations


def image_bruteforce(
    f: MultilinearPoly,
    n: int,
    q: int,
    cap: int = DEFAULT_CAP,
    reduce_bands: bool = False,
) -> list[PackedMatrix]:
    """The exact set of values f attains, sorted by packed key."""
    keys, _ = _image_keys(f, n, q, cap, reduce_bands)
    return [PackedMatrix.from_key(n, q, key) for key in keys]


@dataclass(frozen=True)
class ImageReport:
    """Outcome of one brute-force check against the predicted image."""

    image_size: int
    expected_size: int
    matches: bool
    evaluations: int
    elapsed_ms: int

    def json_dict(self, poly_text: str, n: int, q: int) -> dict:
        return {
            "poly": poly_text,
            "n": n,
            "q": q,
            "image_size": self.image_size,
            "expected_size": self.expected_size,
            "matches": self.matches,
            "evaluations": self.evaluations,
            "elapsed_ms": self.elapsed_ms,
        }


def _predicted_keys(
    described: ImageClass, n: int, q: int
) -> tuple[tuple[int, ...], int]:
    all_coords = strict_coords(n)
    if described.is_zero:
        return (0,), 1
    level = described.level
    free = [i for i, (p, c) in enumerate(all_coords) if c - p > level]
    weights = [q ** (len(all_coords) - 1 - i) for i in free]
    keys = []
    for digits in itertools.product(range(q), repeat=len(free)):
        keys.append(sum(d * w for d, w in zip(digits, weights)))
    return tuple(sorted(keys)), len(keys)


def check_theorem(
    f: MultilinearPoly,
    n: int,
    q: int,
    cap: int = DEFAULT_CAP,
    reduce_bands: bool = False,
) -> ImageReport:
    """Scan the image by brute force and compare with the classification.

    ``matches`` requires exact set equality: the attained keys must be
    precisely the predicted ones ({0}, or every matrix supported beyond
    the level-(m-1) band).
    """
    started = time.perf_counter()
    image, evaluations = _image_keys(f, n, q, cap, reduce_bands)
    predicted, expected_size = _predicted_keys(image_description(f, n), n, q)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return ImageReport(
        image_size=len(image),
        expected_size=expected_size,
        matches=image == predicted,
        evaluations=evaluations,
        elapsed_ms=elapsed_ms,
    )
