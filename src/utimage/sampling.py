"""Seeded random generators for self-tests and round-trip suites.

All functions take an explicit random.Random so runs are reproducible from
a single integer seed; nothing here touches the global RNG state.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .fields import FieldSpec
from .freealg import MultilinearPoly
from .triangular import StrictUT


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

