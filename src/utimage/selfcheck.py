"""The CLI's JSON writers: reports through ``canonical_json``, witnesses
through ``witness_json``, which writes the same bytes straight from the
matrices.  Equal documents give equal bytes, so witness files and reports
of identical runs are identical.
"""

from __future__ import annotations

import json

from . import errors
from .fields import FieldSpec, ratio_text

TYPE_CHECKING = False
if TYPE_CHECKING:  # a verify run, which writes reports only, never loads matrices
    from .triangular import StrictUT


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
    whose closing brace sits at ``indent``, written from the integer
    numerators: a value over a denominator of 1 is its numerator."""
    item = indent + "    "
    den = matrix._den
    rows = [
        f'{{\n{item}  "col": {c},\n{item}  "row": {r},\n{item}  '
        f'"value": "{v if den == 1 else ratio_text(v, den)}"\n{item}}}'
        for (r, c), v in sorted(matrix._nums.items())
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
    matrices' numerators without building the document or a Fraction.  A
    value past Python's int-to-decimal limit raises CapExceeded, as it
    does there."""
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
