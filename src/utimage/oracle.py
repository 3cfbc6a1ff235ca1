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

Four performance levers, all exact:

* the chain-once compile, made only for a scan past the first tail.
  Each output entry's chains are enumerated once and their links looked
  up once; every support term then reads its entries by permuting the
  same link indices, so compiling costs one chain enumeration per entry
  plus one tuple per term.  Entries fewer than m diagonals up have no
  chain and are skipped.
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
  cancel on equal arguments.  On that tail every term is its coefficient
  times a unit, so the slice is read off a_j, the summed coefficients of
  the keys with x_1 at position j, and chain counts.  With j0 the first
  j with a_j != 0, row (p, c) pivots on the link (p + j0, c - m + 1 + j0),
  which one chain uses; ordered by width, then by descending p, the
  pivots form a triangular minor with a_j0 on its diagonal.  That minor
  is checked entry by entry, and only if the check fails is the slice
  row-reduced.  The image is then known by its positions
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
from operator import add, itemgetter

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
    ``coords`` of the entry drawn from the t-th argument matrix.  The terms
    of an entry run over the support in key order, and for each key over
    the chains in lexicographic order.
    """
    m = f.m
    index = {c: i for i, c in enumerate(coords)}.__getitem__
    # The link drawn from argument sigma[t] is the chain's t-th, so uses
    # reads the links at sigma's inverse.  At m = 1 the links are the uses
    # (an itemgetter of one index returns the item, not a tuple).
    getters = []
    for sigma, coeff in sorted(f.coeffs.items()):
        inverse = [0] * m
        for t, s in enumerate(sigma):
            inverse[s - 1] = t
        getters.append((coeff, itemgetter(*inverse) if m > 1 else tuple))
    grouped = []
    out_pos = -1
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            out_pos += 1
            if q - p < m:  # no m-link chain spans (p, q)
                continue
            # Every link of an m-link chain is at most n - m wide, so it is
            # a scanned entry even when ``coords`` stops at that width.
            chains = [
                tuple(map(index, itertools.pairwise((p, *inner, q))))
                for inner in itertools.combinations(range(p + 1, q), m - 1)
            ]
            terms = []
            for coeff, get in getters:
                terms += zip(itertools.repeat(coeff), map(get, chains))
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


def _is_triangular(minor) -> bool:
    """Whether a square minor, given as its columns, has a nonzero diagonal
    and only zeros above it, so that its columns are independent.

    Column k need only hold its first k + 1 entries.
    """
    return all(column[k] and not any(column[:k]) for k, column in enumerate(minor))


def _first_tail_basis(f: MultilinearPoly, n: int, coords, rows, q: int):
    """The reduced basis of the first tail's slice, or None when a checked
    triangular minor shows that it has full rank.

    On the first tail every scanned entry of X_2..X_m is q - 1, so every
    term is its coefficient times the unit (q-1)^(m-1).  Up to that unit,
    the slice's entry at row (p, c) and column (a, b) is the sum over j of
    a_j times the chains p -> c whose j-th link is (a, b), where a_j sums
    the coefficients of the keys with x_1 at position j.  Such a chain
    takes j links from p to a and m - 1 - j from b to c, so the entry
    depends on (a - p, c - b) alone and is read off one table keyed by it.
    When every a_j is 0 mod q the slice is zero: its basis is ().
    """
    m = f.m
    sums = [0] * m
    for sigma, coeff in f.coeffs.items():
        sums[sigma.index(1)] += coeff
    nonzero = [(j, a % q) for j, a in enumerate(sums) if a % q]
    if not nonzero:
        return ()

    def ways(k):  # (d, the k-link chains spanning d diagonals), where nonzero
        return [(d, math.comb(d - 1, k - 1)) for d in range(k, n)] if k else [(0, 1)]

    table = {}
    for j, a in nonzero:
        after = ways(m - 1 - j)
        for d, x in ways(j):
            for e, y in after:
                table[d, e] = table.get((d, e), 0) + a * x * y

    def column(a, b, rows):
        return [table.get((a - p, c - b), 0) % q for p, c in rows]

    # Row (p, c) pivots on the link (p + j0, c - (m - 1 - j0)), which one
    # chain uses at position j0, the first with a_j0 != 0; in the order
    # below no earlier row should use it at a position with a_j != 0.
    # That is checked on the entries, not assumed.
    j0 = nonzero[0][0]
    order = sorted(rows, key=lambda row: (row[1] - row[0], -row[0]))
    pivots = [(p + j0, c - (m - 1 - j0)) for p, c in order]
    if set(pivots) <= set(coords) and _is_triangular(
        [column(a, b, order[: k + 1]) for k, (a, b) in enumerate(pivots)]
    ):
        return None
    columns = [column(a, b, rows) for a, b in coords]
    return _row_reduce([vector for vector in columns if any(vector)], q)


def _scan_slices(count, m, grouped, last, q, first):
    """Attained keys as the union, over every tail tuple X_2..X_m, of the
    span of f(E_i, X_2, ..., X_m) over the unit matrices E_i of X_1.

    Row r is the output entry of ``grouped[r]``, ``_compile_terms``'
    (position, terms) pair; its key weight is q^(last - position).  Every
    value lies in the space of these rows, so the first slice of full
    rank spans the whole image: the scan stops there and returns None.
    The tails run in descending digit order, densest first.  The first
    tail, every scanned entry of X_2..X_m at q - 1, is decided by
    ``_first_tail_basis`` and its basis passed as ``first``: the scan
    starts at the second tail.  It gets here when f's terms cancel on
    equal arguments (x1*x2*x3 - x1*x3*x2 with X_2 = X_3), and the next
    few tails usually break the tie.
    """
    rows = len(grouped)
    spans = {first}

    # by_entry[i]: (row, coeff, tail) per term reading entry i of X_1;
    # tail indexes the term's X_2..X_m entries in a flat tail tuple.
    by_entry = [[] for _ in range(count)]
    offsets = range(0, (m - 1) * count, count)
    for row, (_pos, terms) in enumerate(grouped):
        for coeff, uses in terms:
            by_entry[uses[0]].append((row, coeff, tuple(map(add, uses[1:], offsets))))
    columns_terms = [terms for terms in by_entry if terms]
    tails = itertools.product(range(q - 1, -1, -1), repeat=(m - 1) * count)
    next(tails)  # the first tail, given as ``first``
    for digits in tails:
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

    weights = [q ** (last - pos) for pos, _terms in grouped]
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
    m-link chain can reach, none when f is zero; every value is supported
    on them.  ``keys`` is None when a slice reached full rank, so the
    image is every matrix supported on ``positions``; otherwise it is the
    image's sorted keys.

    The count is the q^(m*c) argument tuples whose values the scan
    accounts for; the work is at most q^((m-1)*c) slices, and the cap
    bounds q^(max(m-1, 1)*c): at m = 1 the one slice's span is q^c keys
    when it is enumerated.
    """
    if f.spec.p != q:
        FieldSpec.gf(q)  # a q that names no prime field is refused first
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
    coords = all_coords
    if reduce_bands:
        coords = [(p, c) for p, c in coords if c - p <= n - m]
    # One row per entry an m-link chain reaches; a zero f reaches none.
    positions = () if f.is_zero else tuple(
        i for i, (p, c) in enumerate(all_coords) if c - p >= m
    )
    rows = [all_coords[i] for i in positions]
    first = _first_tail_basis(f, n, coords, rows, q)
    if first is None or len(first) == len(rows):
        return (positions, None), q ** (m * count)
    # Output keys always span the full coordinate list so reduced and full
    # scans produce directly comparable sets.
    grouped = _compile_terms(f, n, coords)
    seen = _scan_slices(count, m, grouped, len(all_coords) - 1, q, first)
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
