"""Seeded inputs for the benchmark workloads and an independent output check.

Nothing in this module imports utimage.  Inputs are plain data: a
polynomial as (coefficient, permutation) terms, rendered to the CLI's
polynomial text, and a target matrix as a dict {(row, col): value} rendered
to matrix JSON.  Outputs are checked by re-evaluating them here with plain
ints mod p or ``fractions.Fraction``, so a bug in the program's arithmetic
cannot hide itself by agreeing with its own check.

Every op of a run is drawn from its own ``random.Random`` seeded with
"<seed>:<workload>:<stream>:<index>", so op i is the same for a given seed
however many ops the run reaches.  The properties that set an op's cost
(field, dimension, support size, verify shape) cycle with the op index
instead of being drawn, so two seeds differ only in which permutations,
coefficients and target values they use; that keeps the cost mix of a run
steady from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

SOLVE_FIELDS = ("gf:5", "gf:7", "rational")


@dataclass(frozen=True)
class Case:
    """One op: the CLI command and what its output must satisfy."""

    command: str  # "solve" | "verify"
    poly_text: str
    terms: tuple  # ((coefficient, permutation tuple), ...), in the field
    m: int
    n: int
    field: str
    target: dict | None = None  # solve only: {(row, col): nonzero value}
    reduce: bool = False  # verify only

    def target_document(self) -> dict:
        return {
            "n": self.n,
            "field": self.field,
            "entries": [
                {"row": r, "col": c, "value": str(v)}
                for (r, c), v in sorted(self.target.items())
            ],
        }

    def argv(self, target_path: str | None, out_path: str) -> list[str]:
        args = [self.command, "--poly", self.poly_text, "--n", str(self.n),
                "--field", self.field]
        if self.command == "solve":
            args += ["--target", target_path]
        elif self.reduce:
            args.append("--reduce")
        return args + ["--out", out_path]


def _modulus(field: str) -> int | None:
    return None if field == "rational" else int(field.split(":", 1)[1])


def _random_coeff(rng: random.Random, p: int | None):
    if p is not None:
        return rng.randrange(1, p)
    while True:
        value = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if value:
            return value


def _random_support(rng: random.Random, m: int, size: int) -> list[tuple]:
    """``size`` distinct permutations of 1..m, drawn by shuffling so that
    S_m is never enumerated."""
    chosen: set[tuple] = set()
    base = list(range(1, m + 1))
    while len(chosen) < size:
        rng.shuffle(base)
        chosen.add(tuple(base))
    return sorted(chosen)


def poly_text(terms) -> str:
    """Render terms in the CLI grammar: ``c*x_s(1)*...*x_s(m)`` joined
    by signs, with a rational's sign moved in front of its term."""
    pieces = []
    for coeff, perm in terms:
        mono = "*".join(f"x{v}" for v in perm)
        negative = isinstance(coeff, Fraction) and coeff < 0
        body = -coeff if negative else coeff
        text = mono if body == 1 else f"{body}*{mono}"
        if not pieces:
            pieces.append(f"-{text}" if negative else text)
        else:
            pieces.append(f" {'-' if negative else '+'} {text}")
    return "".join(pieces)


def _random_target(rng: random.Random, n: int, m: int, p: int | None) -> dict:
    """A random matrix in the reachable band (col - row >= m), never zero."""
    cells = [(r, c) for r in range(1, n + 1) for c in range(r + m, n + 1)]
    while True:
        target = {}
        for cell in cells:
            if rng.random() < 0.7:
                target[cell] = _random_coeff(rng, p)
        if target:
            return target


def solve_case(rng: random.Random, m: int, n: int, size: int, field: str) -> Case:
    """A solve op: ``size`` random terms of degree m, a random reachable
    n x n target."""
    p = _modulus(field)
    terms = tuple(
        (_random_coeff(rng, p), perm) for perm in _random_support(rng, m, size)
    )
    return Case("solve", poly_text(terms), terms, m, n, field,
                target=_random_target(rng, n, m, p))


def solve_deep(rng: random.Random, index: int) -> Case:
    """m=7, n cycling 9..13, |supp| cycling 4..12, fields cycling gf:5,
    gf:7, rational.

    Selection cost is nearly the same for every op of one n, so at a fixed
    n all ops would form one narrow cost cluster, and the median would
    flip between the box's quiet and busy speeds from run to run.  Cycling
    n spreads op costs over about 1.7x without a gap.
    """
    n = 9 + index % 5
    size = 4 + (index // len(SOLVE_FIELDS)) % 9
    return solve_case(rng, 7, n, size, SOLVE_FIELDS[index % len(SOLVE_FIELDS)])


def solve_wide(rng: random.Random, index: int) -> Case:
    """m=3, n=32, |supp| cycling 2..6, fields cycling as in solve-deep."""
    size = 2 + (index // len(SOLVE_FIELDS)) % 5
    return solve_case(rng, 3, 32, size, SOLVE_FIELDS[index % len(SOLVE_FIELDS)])


# verify-scan shapes: field, m, n, --reduce, and the support sizes the
# shape's ops cycle through.  Scan cost grows with the support size, so
# cycling the sizes spreads op costs from about 70 to 550 ms on a quiet
# box.
DIGIT_PATH = ("gf:3", 2, 4, True, (1, 2))
BIT_PATH = ("gf:2", 3, 4, False, (1, 2, 3, 4, 5, 6))


def verify_scan(rng: random.Random, index: int) -> Case:
    """Alternates an m=2, n=4, GF(3) --reduce scan (generic digit path)
    with an m=3, n=4, GF(2) full scan (bit-packed path); supports are
    random, of the cycled sizes."""
    field, m, n, reduce, sizes = (DIGIT_PATH, BIT_PATH)[index % 2]
    p = _modulus(field)
    size = sizes[(index // 2) % len(sizes)]
    terms = tuple(
        (_random_coeff(rng, p), perm) for perm in _random_support(rng, m, size)
    )
    return Case("verify", poly_text(terms), terms, m, n, field, reduce=reduce)


GENERATORS = {
    "solve-deep": solve_deep,
    "solve-wide": solve_wide,
    "verify-scan": verify_scan,
}

# Ops i and i + COST_CYCLE[workload] share the field, dimension, verify
# shape and, except in solve-deep, support size: the properties the cost
# mix is made of.  A run ends on a whole cycle, so its mix is exact.
COST_CYCLE = {"solve-deep": 15, "solve-wide": 15, "verify-scan": 12}


def make_case(workload: str, seed: int, index: int, stream: str = "ops") -> Case:
    """Op ``index`` of a workload; ``stream`` separates the warm-up inputs
    from the measured ones."""
    rng = random.Random(f"{seed}:{workload}:{stream}:{index}")
    return GENERATORS[workload](rng, index)


def same_work_key(case: Case):
    """A key shared by ops that do the same work whatever their random
    inputs, or None where an op's work depends on them.

    A scan evaluates every tuple of a space whose size the shape fixes,
    running one product per support term; the coefficients change only the
    values summed.  A solve op's work depends on its coefficients and
    target.
    """
    if case.command != "verify":
        return None
    return case.field, case.m, case.n, case.reduce, len(case.terms)


# ---------------------------------------------------------------------------
# Independent output check


def _parse_value(text, p: int | None):
    if not isinstance(text, str):
        raise ValueError(f"value {text!r} is not a string")
    if p is None:
        return Fraction(text)
    value = int(text)
    if not 0 <= value < p:
        raise ValueError(f"residue {value} outside [0, {p})")
    return value


def _parse_matrix(doc: dict, n: int, field: str) -> dict:
    if doc.get("n") != n or doc.get("field") != field:
        raise ValueError(f"matrix header {doc.get('n')}, {doc.get('field')}")
    p = _modulus(field)
    out = {}
    for item in doc["entries"]:
        row, col = item["row"], item["col"]
        if not 1 <= row < col <= n or (row, col) in out:
            raise ValueError(f"bad or repeated entry ({row}, {col})")
        value = _parse_value(item["value"], p)
        if value == 0:
            raise ValueError(f"explicit zero at ({row}, {col})")
        out[(row, col)] = value
    return out


def _mat_mul(a: dict, b: dict) -> dict:
    by_row: dict[int, list] = {}
    for (r, c), v in b.items():
        by_row.setdefault(r, []).append((c, v))
    out: dict = {}
    for (r, k), v in a.items():
        for c, w in by_row.get(k, ()):
            out[(r, c)] = out.get((r, c), 0) + v * w
    return out


def evaluate(terms, args: list[dict], p: int | None) -> dict:
    """sum of c * X_s(1) ... X_s(m) over the terms, as a sparse dict with
    zeros dropped."""
    total: dict = {}
    for coeff, perm in terms:
        prod = args[perm[0] - 1]
        for var in perm[1:]:
            if not prod:
                break
            prod = _mat_mul(prod, args[var - 1])
        for cell, v in prod.items():
            total[cell] = total.get(cell, 0) + coeff * v
    if p is not None:
        total = {cell: v % p for cell, v in total.items()}
    return {cell: v for cell, v in total.items() if v != 0}


def expected_image_size(case: Case) -> int:
    q = _modulus(case.field)
    d = case.n - case.m
    return q ** (d * (d + 1) // 2) if d > 0 else 1


def check_output(case: Case, code: int, text: str) -> str | None:
    """None when the op's exit code and output are right, else a reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(text)
        if case.command == "solve":
            return _check_solve(case, doc)
        return _check_verify(case, doc)
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


def _check_solve(case: Case, doc: dict) -> str | None:
    if (doc["polynomial"], doc["n"], doc["field"], doc["verified"]) != (
        case.poly_text, case.n, case.field, True
    ):
        return "witness header does not echo the input"
    if doc["target"] != case.target_document():
        return "witness document does not echo the target"
    witness = [_parse_matrix(x, case.n, case.field) for x in doc["witness"]]
    if len(witness) != case.m:
        return f"{len(witness)} witness matrices for degree {case.m}"
    value = evaluate(case.terms, witness, _modulus(case.field))
    if value != case.target:
        return "witness does not evaluate to the target"
    return None


def _check_verify(case: Case, doc: dict) -> str | None:
    q = _modulus(case.field)
    if (doc["poly"], doc["n"], doc["q"]) != (case.poly_text, case.n, q):
        return "report header does not echo the input"
    expected = expected_image_size(case)
    if doc["matches"] is not True:
        return "report says the image does not match"
    if doc["image_size"] != expected or doc["expected_size"] != expected:
        return f"image size {doc['image_size']}, expected {expected}"
    return None


def digest_text(case: Case, text: str) -> bytes:
    """The bytes an output contributes to the run digest: a witness
    document as written, a verify report without its timing field."""
    if case.command == "solve":
        return text.encode()
    doc = json.loads(text)
    doc.pop("elapsed_ms", None)
    return json.dumps(doc, sort_keys=True).encode()
