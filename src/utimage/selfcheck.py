"""Reusable self-verification drivers shared by the CLI and the test suite.

Two layers: a fixed grid of brute-force theorem checks over small prime
fields, and seeded random preimage round trips.  Everything is pinned by
explicit seeds so that a failing case can be replayed from its printed
reproduction line, and witness documents serialize to identical bytes on
identical runs.  The CLI's JSON text comes from here too: reports through
``canonical_json``, witnesses through ``witness_json``, which writes the
same bytes straight from the matrices.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from . import errors
from .fields import FieldSpec
from .freealg import MultilinearPoly, parse_poly
from .oracle import ImageReport, check_theorem
from .sampling import random_band_target, random_poly
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


def canonical_json(doc: dict) -> str:
    """The byte-stable text of a document: sorted keys, 2-space indent and
    a trailing newline.  ``verify`` reports use it; ``solve`` writes the
    same text for its witness document with ``witness_json``."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def witness_document(
    poly_text: str, n: int, spec: FieldSpec, target: StrictUT, witness: tuple[StrictUT, ...]
) -> dict:
    return {
        "polynomial": poly_text,
        "n": n,
        "field": spec.to_text(),
        "target": target.to_json_dict(),
        "witness": [x.to_json_dict() for x in witness],
        "verified": True,
    }


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of already written items, laid out as ``canonical_json``
    lays it out when the list's key sits at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def _matrix_json(matrix: StrictUT, indent: str) -> str:
    """``canonical_json``'s text of ``matrix.to_json_dict()`` for an object
    whose closing brace sits at ``indent``."""
    item = indent + "    "
    rows = [
        f'{{\n{item}  "col": {c},\n{item}  "row": {r},\n{item}  "value": "{v}"\n{item}}}'
        for (r, c), v in sorted(matrix.entries.items())
    ]
    return (
        f'{{\n{indent}  "entries": {_json_list(rows, indent + "  ")},\n'
        f'{indent}  "field": "{matrix.spec.to_text()}",\n'
        f'{indent}  "n": {matrix.n}\n{indent}}}'
    )


def witness_json(
    poly_text: str, n: int, spec: FieldSpec, target: StrictUT, witness: tuple[StrictUT, ...]
) -> str:
    """``canonical_json(witness_document(...))``, written straight from the
    matrices' raw entries without building the document.  A value past
    Python's int-to-decimal limit raises CapExceeded, as it does there."""
    # The target is written first, so the first value too long to write
    # is the one the document's serialization would meet first.
    try:
        target_text = _matrix_json(target, "  ")
        witness_text = _json_list([_matrix_json(x, "    ") for x in witness], "  ")
    except ValueError as exc:  # past Python's int-to-decimal digit limit
        raise errors.CapExceeded(f"value too long to write: {exc}") from exc
    return (
        f'{{\n  "field": "{spec.to_text()}",\n  "n": {n},\n'
        f'  "polynomial": {json.dumps(poly_text)},\n'
        f'  "target": {target_text},\n  "verified": true,\n'
        f'  "witness": {witness_text}\n}}\n'
    )


def run_grid(grid=THEOREM_GRID) -> list[tuple[str, int, int, ImageReport]]:
    """Run check_theorem over a grid; returns (poly, n, q, report) rows."""
    rows = []
    for poly_text, n, q, reduce_bands in grid:
        f = parse_poly(poly_text, FieldSpec.gf(q))
        report = check_theorem(f, n, q, reduce_bands=reduce_bands)
        rows.append((poly_text, n, q, report))
    return rows


@dataclass
class TrialOutcome:
    """One preimage round trip, with everything needed to replay it."""

    index: int
    field_text: str
    m: int
    n: int
    poly_text: str
    ok: bool
    message: str

    def reproduction_line(self) -> str:
        return (
            f"trial={self.index} field={self.field_text} m={self.m} "
            f"n={self.n} poly={self.poly_text!r}: {self.message}"
        )


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


def run_round_trips(seed: int, field_text: str, trials: int) -> list[TrialOutcome]:
    """Random (f, n, target) preimage round trips over one field.

    Each trial draws its case with ``trial_case`` and demands a witness:
    ``preimage`` itself checks that it evaluates back to the target
    exactly, raising PostconditionViolation otherwise.
    """
    spec = FieldSpec.from_text(field_text)
    outcomes = []
    for index in range(trials):
        m, n, f, target = trial_case(seed, field_text, spec, index)
        try:
            preimage(f, n, target)
        except errors.Error as exc:
            ok, message = False, str(exc)
        else:
            ok, message = True, "ok"
        outcomes.append(TrialOutcome(index, field_text, m, n, f.to_text(), ok, message))
    return outcomes
