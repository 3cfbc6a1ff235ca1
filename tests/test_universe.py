"""Both halves agree on every nonzero polynomial of a small universe.

For (m, q) in UNIVERSE, every nonzero multilinear f of degree m over GF(q)
is generated one at a time, and at each n from 2 to 5:

* the oracle's scan matches the predicted image, with ``reduce_bands``
  where the full scan has more tails than the default cap;
* ``preimage`` solves every target of the level-(m-1) band (when the band
  has more than BAND_CAP elements, every target with one nonzero entry and
  every constant one), and each witness is re-evaluated on the oracle's
  compiled chains (``oracle._compile_terms``), which share no code with
  the solver or with ``MultilinearPoly.evaluate``;
* a target with an entry inside the zero band raises TargetNotInImage.

This is the exhaustive GF(p) check of how containers store values.  Degree
4 and up is out of reach: over GF(2) alone it has 2^24 - 1 polynomials, so
it stays with the seeded tests.
"""

import itertools

import pytest

from utimage import errors
from utimage.fields import FieldSpec
from utimage.freealg import MultilinearPoly
from utimage.oracle import DEFAULT_CAP, _compile_terms, _scanned_count, check_theorem, strict_coords
from utimage.solver import preimage
from utimage.triangular import StrictUT

UNIVERSE = ((1, 2), (1, 3), (2, 2), (2, 3), (2, 5), (3, 2))
DIMENSIONS = (2, 3, 4, 5)
BAND_CAP = 3**6


def polynomials(m, q):
    """Every nonzero degree-m polynomial over GF(q), built lazily."""
    spec = FieldSpec.gf(q)
    monomials = list(itertools.permutations(range(1, m + 1)))
    for coeffs in itertools.product(range(q), repeat=len(monomials)):
        if any(coeffs):
            yield MultilinearPoly(m, spec, dict(zip(monomials, coeffs)))


def band_targets(n, m, q):
    """Targets of the level-(m-1) band as {(row, col): value} maps."""
    cells = [(r, c) for r in range(1, n + 1) for c in range(r + m, n + 1)]
    if q ** len(cells) <= BAND_CAP:
        for values in itertools.product(range(q), repeat=len(cells)):
            yield dict(zip(cells, values))
        return
    for cell in cells:
        for v in range(1, q):
            yield {cell: v}
    for v in range(1, q):
        yield dict.fromkeys(cells, v)


def chain_values(grouped, coords, witness, q):
    """The nonzero entries of f at the witness, each summed over the
    compiled chains of its output position."""
    args = [x.entries for x in witness]
    values = {}
    for out_pos, terms in grouped:
        total = 0
        for coeff, uses in terms:
            for x, u in zip(args, uses):
                coeff *= x.get(coords[u], 0)
            total += coeff
        if total % q:
            values[coords[out_pos]] = total % q
    return values


@pytest.mark.parametrize("m, q", UNIVERSE)
def test_both_halves_agree_on_every_polynomial(m, q):
    spec = FieldSpec.gf(q)
    for n in DIMENSIONS:
        exponent = max(m - 1, 1)
        reduce_bands = q ** (exponent * _scanned_count(n, m, False)) > DEFAULT_CAP
        cap = q ** (exponent * _scanned_count(n, m, reduce_bands))
        coords = strict_coords(n)
        targets = [
            StrictUT.from_entries(n, spec, [(r, c, v) for (r, c), v in entries.items()])
            for entries in band_targets(n, m, q)
        ]
        outside = StrictUT.from_entries(n, spec, [(1, 2, 1)])
        for f in polynomials(m, q):
            where = f"{f.to_text()} at n={n} over GF({q})"
            assert check_theorem(f, n, q, cap=cap, reduce_bands=reduce_bands).matches, where
            grouped = _compile_terms(f, n, coords)
            for target in targets:
                witness = preimage(f, n, target)
                assert chain_values(grouped, coords, witness, q) == target.entries, where
            if m > 1:  # (1, 2) lies in the zero band; for m = 1 that band is empty
                with pytest.raises(errors.TargetNotInImage):
                    preimage(f, n, outside)
