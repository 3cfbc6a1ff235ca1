"""Self-verification: seeded random cases and the drivers ``selftest`` and
the test suite run on them.

Two layers: a fixed grid of brute-force theorem checks over small prime
fields, and seeded random preimage round trips.  Every generator takes an
explicit random.Random, and each trial seeds its own, so a failing case
can be replayed from its printed reproduction line; nothing here touches
the global RNG state.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import errors
from .fields import FieldSpec
from .freealg import MultilinearPoly, parse_poly
from .oracle import ImageReport, check_theorem
from .solver import preimage
from .triangular import StrictUT

# Fixed verification grid: (polynomial, n, q, reduce_bands).  The last
# entry's full tuple space is 2^40, far beyond any feasible scan, so it
# runs on the reduced coordinates (sound: dropped entries cannot occur in
# any degree-4 product inside a 5 x 5 matrix).
THEOREM_GRID = [
    ("x1*x2-x2*x1", 3, 2, False),
    ("x1*x2-x2*x1", 3, 3, False),
    ("x1*x2", 4, 2, False),
    ("x1*x2", 4, 3, False),
    ("x1*x2-x2*x1", 4, 2, False),
    ("x1*x2*x3", 4, 2, False),
    ("x1*x2*x3+x2*x1*x3", 4, 2, False),
    ("x1*x2*x3*x4", 5, 2, True),
]

# Degree >= dimension: the polynomial vanishes identically.
IDENTITY_GRID = [
    ("x1*x2*x3", 3, 2, False),
    ("x1*x2*x3", 3, 3, False),
    ("x1*x2-x2*x1", 2, 2, False),
    ("x1*x2-x2*x1", 2, 3, False),
]

TRIAL_FIELDS = ["gf:2", "gf:3", "gf:5", "rational"]

# Round trips (trials x fields) one selftest may run.  A GF(p) round trip
# takes about 0.14 ms and a rational one about 0.3 ms (2 cores, Python
# 3.11.7), so a run at the cap over TRIAL_FIELDS takes under a minute.
ROUND_TRIP_CAP = 250_000


def random_scalar(rng: random.Random, spec: FieldSpec, nonzero: bool = False):
    """A random raw value of ``spec``, optionally nonzero."""
    if spec.p is None:
        while True:
            value = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            if not (nonzero and value == 0):
                return value
    lo = 1 if nonzero else 0
    return rng.randrange(lo, spec.p)


def random_poly(rng: random.Random, spec: FieldSpec, m: int) -> MultilinearPoly:
    """A random nonzero polynomial with a bounded, varied support.

    Each permutation, in lexicographic order, is kept with probability
    12 / m! (capped at 1), so the expected support stays near 12.
    """
    keep = min(1.0, 12 / math.factorial(m))
    while True:
        coeffs = {
            images: random_scalar(rng, spec, nonzero=True)
            for images in itertools.permutations(range(1, m + 1))
            if rng.random() < keep
        }
        if coeffs:
            return MultilinearPoly(m, spec, coeffs)


def random_band_target(
    rng: random.Random, spec: FieldSpec, n: int, m: int
) -> StrictUT:
    """A random matrix supported beyond the level-(m-1) band."""
    pairs = []
    for p in range(1, n + 1):
        for q in range(p + m, n + 1):
            if rng.random() < 0.7:
                pairs.append((p, q, random_scalar(rng, spec)))
    return StrictUT.from_entries(n, spec, pairs)


def run_grid(grid=THEOREM_GRID) -> list[tuple[str, int, int, ImageReport]]:
    """Run check_theorem over a grid; returns (poly, n, q, report) rows."""
    rows = []
    for poly_text, n, q, reduce_bands in grid:
        f = parse_poly(poly_text, FieldSpec.gf(q))
        report = check_theorem(f, n, q, reduce_bands=reduce_bands)
        rows.append((poly_text, n, q, report))
    return rows


def _trial_rng(seed: int, field_text: str, index: int) -> random.Random:
    # String seeding hashes with sha512 inside random.seed: stable across
    # processes, unlike hash().
    return random.Random(f"{seed}:{field_text}:{index}")


def trial_case(
    seed: int, field_text: str, spec: FieldSpec, index: int
) -> tuple[int, int, MultilinearPoly, StrictUT]:
    """The (m, n, f, target) of one round trip over ``spec``, the field
    ``field_text`` names: a degree in 2..5, a dimension in m+1..8, a
    nonzero polynomial and a target inside the reachable band, drawn from
    the trial's own seeded stream."""
    rng = _trial_rng(seed, field_text, index)
    m = rng.randint(2, 5)
    n = rng.randint(m + 1, 8)
    f = random_poly(rng, spec, m)
    return m, n, f, random_band_target(rng, spec, n, m)


def run_round_trips(
    seed: int, field_text: str, trials: int
) -> tuple[int, list[tuple[int, str]]]:
    """Random (f, n, target) preimage round trips over one field; returns
    the pass count and, per failed trial, its index and the line that
    replays it.

    Each trial draws its case with ``trial_case`` and demands a witness:
    ``preimage`` itself checks that it evaluates back to the target
    exactly, raising PostconditionViolation otherwise.
    """
    spec = FieldSpec.from_text(field_text)
    passed, failures = 0, []
    for index in range(trials):
        m, n, f, target = trial_case(seed, field_text, spec, index)
        try:
            preimage(f, n, target)
        except errors.Error as exc:
            failures.append((index, f"trial={index} field={field_text} m={m} "
                                    f"n={n} poly={f.to_text()!r}: {exc}"))
        else:
            passed += 1
    return passed, failures
