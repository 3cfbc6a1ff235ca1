"""Independent brute-force verification over small prime fields.

The scan finds the exact set of values a polynomial attains on tuples of
strictly upper triangular matrices over GF(q).  Nothing here shares code
with the preimage solver: evaluation is compiled directly from the
combinatorics of matrix products (an entry (p, q) of a degree-m monomial
is a sum over strictly increasing chains p = r0 < r1 < ... < rm = q of
entry products), and the predicted image is stated here too, so
agreement between the scanned image and the prediction is a genuine
cross-check.

Values are named by packed keys: the key of a matrix is the base-q
integer whose digits are its n(n-1)/2 strictly upper entries, row-major
over (row, col), most significant first.  Image sets are sorted tuples of
keys, which makes reports independent of the scan's enumeration order.

Three performance levers, all exact:

* the linear slice.  A multilinear f is linear in X_1 once X_2..X_m are
  fixed, so the values over all X_1 are the span of f(E_i, X_2, ..., X_m)
  over the unit matrices E_i.  The scan visits the q^((m-1)c) tail tuples
  (c scanned entries per matrix), row-reduces each slice's c columns to a
  canonical basis, and enumerates each distinct span once.  It accounts
  for all q^(mc) argument tuples, and reports that count, while doing q^c
  times fewer steps; the cap bounds the tails.
* the early stop.  Only the entries an m-link chain can reach get a row,
  so every value lies in the space of those rows.  The first slice whose
  rank is the number of rows therefore spans the whole image, and the
  scan stops there.  Tails run dense-first, in descending digit order:
  a value at (p, q) needs a nonzero entry on every link of some m-link
  chain, so the sparse tails of ascending order cannot reach full rank,
  while the first tail, every scanned entry q - 1, does unless f's terms
  cancel on equal arguments.  The image is then known by its positions
  alone; no key is enumerated unless a caller asks for them.  If no
  slice reaches full rank, every tail is scanned, and the union of spans
  does not depend on the order.
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
import math
import time

from . import errors
from .fields import FieldSpec
from .freealg import MultilinearPoly

# The cap bounds the tails a scan may visit.  A full scan visits 5,400 to
# 84,000 tails per second, median 16,600, over nine shapes at n = 5..7
# (2 cores, Python 3.11.7), so a scan that finds no full-rank slice stays
# around a minute.
DEFAULT_CAP = 1_000_000


def strict_coords(n: int) -> list[tuple[int, int]]:
    """The strictly upper coordinates in packing order (row-major)."""
    return [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]


def _scanned_count(n: int, m: int, reduce_bands: bool) -> int:
    """Entries scanned per matrix: the n(n-1)/2 strictly upper ones, or
    with ``reduce_bands`` those at most n - m diagonals up."""
    top = max(0, n - m if reduce_bands else n - 1)
    return top * n - top * (top + 1) // 2


def _check_cap(q: int, exponent: int, cap: int) -> None:
    """Raise CapExceeded when q^exponent tail tuples exceed the cap, without
    forming the power."""
    limit, power = -1, 1
    while power <= cap:
        limit += 1
        power *= q
    if exponent > limit:
        try:
            tuples = f"{q}^{exponent}"
        except ValueError:  # past Python's int-to-decimal digit limit
            # the digit count, or one less, then corrected
            digits = int(exponent.bit_length() * math.log10(2))
            digits += 10**digits <= exponent
            tuples = f"{q}^({digits}-digit exponent)"
        raise errors.CapExceeded(f"{tuples} tail tuples exceed the cap {cap}")


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
    support = sorted(f.coeffs.items())
    grouped = []
    for out_pos, (p, q) in enumerate(all_coords):
        terms = []
        for sigma, coeff in support:
            for inner in itertools.combinations(range(p + 1, q), m - 1):
                chain = (p, *inner, q)
                uses = [0] * m
                ok = True
                for t in range(m):
                    link = (chain[t], chain[t + 1])
                    if link not in coord_index:
                        ok = False
                        break
                    uses[sigma[t] - 1] = coord_index[link]
                if ok:
                    terms.append((coeff, tuple(uses)))
        if terms:
            grouped.append((out_pos, terms))
    return grouped


def _row_reduce(vectors, q: int) -> tuple[tuple[int, ...], ...]:
    """The reduced row echelon basis of the span of ``vectors`` over GF(q).

    Every basis row has a leading 1 in a column where all other rows are
    0, and the rows are ordered by that column, so two lists of vectors
    spanning the same subspace give the same tuple.
    """
    basis: dict[int, list[int]] = {}
    for vector in vectors:
        for lead, row in basis.items():
            a = vector[lead]
            if a:
                vector = [(x - a * y) % q for x, y in zip(vector, row)]
        lead = next((k for k, x in enumerate(vector) if x), None)
        if lead is None:
            continue
        inverse = pow(vector[lead], -1, q)
        vector = [x * inverse % q for x in vector]
        for other, row in basis.items():
            a = row[lead]
            if a:
                basis[other] = [(x - a * y) % q for x, y in zip(row, vector)]
        basis[lead] = vector
    return tuple(tuple(basis[lead]) for lead in sorted(basis))


def _scan_slices(count, m, term_rows, weights, q):
    """Attained keys as the union, over every tail tuple X_2..X_m, of the
    span of f(E_i, X_2, ..., X_m) over the unit matrices E_i of X_1.

    ``term_rows[r]`` lists the compiled (coeff, uses) terms of the output
    entry whose key weight is ``weights[r]``.  Every value lies in the
    space of these rows, so the first slice of full rank spans the whole
    image: the scan stops there and returns None.  The tails run in
    descending digit order, densest first, so the first tail sets every
    scanned entry of X_2..X_m to q - 1 and usually stops the scan; when
    f's terms cancel on equal arguments (x1*x2*x3 - x1*x3*x2 with
    X_2 = X_3), the next few tails break the tie.
    """
    rows = len(term_rows)
    # by_entry[i]: (row, coeff, tail) per term reading entry i of X_1;
    # tail indexes the term's X_2..X_m entries in a flat tail tuple.
    by_entry = [[] for _ in range(count)]
    for row, terms in enumerate(term_rows):
        for coeff, uses in terms:
            tail = tuple(s * count + u for s, u in enumerate(uses[1:]))
            by_entry[uses[0]].append((row, coeff, tail))
    columns_terms = [terms for terms in by_entry if terms]

    spans = set()
    for digits in itertools.product(range(q - 1, -1, -1), repeat=(m - 1) * count):
        columns = []
        for terms in columns_terms:
            column = [0] * rows
            for row, coeff, tail in terms:
                value = coeff
                for k in tail:
                    value *= digits[k]
                column[row] += value
            columns.append([x % q for x in column])
        basis = _row_reduce(columns, q)
        if len(basis) == rows:
            return None
        spans.add(basis)

    seen = set()
    for basis in spans:
        span = [[0] * rows]
        for row in basis:
            span = [
                [(x + a * y) % q for x, y in zip(vector, row)]
                for vector in span
                for a in range(q)
            ]
        seen.update(sum(x * w for x, w in zip(v, weights)) for v in span)
    return seen


def _supported_keys(positions: tuple[int, ...], n: int, q: int) -> tuple[int, ...]:
    """Sorted keys of every matrix supported on the packed ``positions``,
    which must be increasing."""
    last = n * (n - 1) // 2 - 1
    weights = [q ** (last - i) for i in positions]
    # Digits run most significant first, so product order is key order.
    return tuple(
        sum(d * w for d, w in zip(digits, weights))
        for digits in itertools.product(range(q), repeat=len(positions))
    )


def _image_keys(
    f: MultilinearPoly,
    n: int,
    q: int,
    cap: int,
    reduce_bands: bool,
) -> tuple[tuple, int]:
    """Scan the tuple space; returns ((positions, keys), evaluation count).

    ``positions`` are the packed positions, increasing, of the entries an
    m-link chain can reach; every value is supported on them.  ``keys`` is
    None when a slice reached full rank, so the image is every matrix
    supported on ``positions``; otherwise it is the image's sorted keys.

    The count is the q^(m*c) argument tuples whose values the scan
    accounts for; the work is at most q^((m-1)*c) slices, and the cap
    bounds q^(max(m-1, 1)*c): at m = 1 the one slice's span is q^c keys
    when it is enumerated.
    """
    if f.spec != FieldSpec.gf(q):
        raise errors.FieldMismatch(f"polynomial is over {f.spec}, not gf:{q}")
    m = f.m
    count = _scanned_count(n, m, reduce_bands)
    _check_cap(q, max(m - 1, 1) * count, cap)
    if not count:
        # Nothing is scanned (m >= n with reduce_bands, or n < 2), so every
        # chain is dropped: the image is {0}, full rank on no position, and
        # compiling the chains would cost O(n^3) for nothing.
        return ((), None), 1
    all_coords = strict_coords(n)
    if reduce_bands:
        coords = [(p, c) for p, c in all_coords if c - p <= n - m]
    else:
        coords = all_coords
    grouped = _compile_terms(f, n, coords)
    positions = tuple(out_pos for out_pos, _terms in grouped)
    # Output keys always span the full coordinate list so reduced and full
    # scans produce directly comparable sets.
    weights = [q ** (len(all_coords) - 1 - out_pos) for out_pos in positions]
    term_rows = [terms for _out_pos, terms in grouped]
    seen = _scan_slices(count, m, term_rows, weights, q)
    keys = None if seen is None else tuple(sorted(seen))
    return (positions, keys), q ** (m * count)


class ImageReport:
    """Outcome of one brute-force check against the predicted image."""

    __slots__ = ("image_size", "expected_size", "matches", "evaluations", "elapsed_ms")

    def __init__(self, image_size: int, expected_size: int, matches: bool,
                 evaluations: int, elapsed_ms: int):
        self.image_size = image_size
        self.expected_size = expected_size
        self.matches = matches
        self.evaluations = evaluations
        self.elapsed_ms = elapsed_ms

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
    f: MultilinearPoly, n: int, q: int
) -> tuple[tuple[int, ...], int]:
    """The predicted image as (free packed positions, size).

    The dichotomy under test: on strictly upper triangular n x n matrices
    the image of f is {0} when f is zero or m >= n, and otherwise the
    whole level-(m-1) band, every matrix supported on the entries more
    than m - 1 diagonals above the main one.  {0} is free on no position.
    """
    if n < 2:
        raise errors.BadIndex(f"dimension {n} below 2")
    if f.is_zero or f.m >= n:
        free = ()
    else:
        level = f.m - 1
        free = tuple(
            i for i, (p, c) in enumerate(strict_coords(n)) if c - p > level
        )
    return free, q ** len(free)


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
    the level-(m-1) band).  When a slice reached full rank both sets are
    every matrix supported on some positions, so comparing the positions
    decides it; otherwise the keys are compared.
    """
    started = time.perf_counter()
    (positions, keys), evaluations = _image_keys(f, n, q, cap, reduce_bands)
    free, expected_size = _predicted_keys(f, n, q)
    if keys is None:
        image_size = q ** len(positions)
        matches = positions == free
    else:
        image_size = len(keys)
        matches = keys == _supported_keys(free, n, q)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return ImageReport(
        image_size=image_size,
        expected_size=expected_size,
        matches=matches,
        evaluations=evaluations,
        elapsed_ms=elapsed_ms,
    )
