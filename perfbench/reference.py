"""One-shot re-timing of the reference cases recorded in ROADMAP.md "Recent".

Not one of the repeated workloads.  The recorded figures were taken by
calling the library directly, so each case here times ``preimage`` or
``check_theorem`` alone (parsing and target loading stay outside), runs it
REPEATS times and prints the median next to the recorded figure.  Every
result goes through the same independent check as the workloads.

Run from the repository root: ``python3 perfbench/run.py --reference``.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time

import workloads

REPEATS = 3

# (m, n, recorded ms or None) for preimage over GF(5); polynomials have
# min(10, m!) terms, as in the recorded m=8 figure.
PREIMAGE_CASES = (
    (2, 8, 1.2),
    (2, 12, None),
    (4, 12, 12.0),
    (6, 12, 44.0),
    (7, 12, 85.0),
    (8, 12, 1350.0),
    (4, 30, 700.0),
)

# (name, poly text, m, n, q, reduce_bands, recorded ms) for check_theorem.
SCAN_CASES = (
    ("x1x2_n5_gf2", "x1*x2", 2, 5, 2, False, 4350.0),
    ("commutator_n4_gf3", "x1*x2-x2*x1", 2, 4, 3, False, 1400.0),  # 1.2-1.6 s
    ("x1x2x3x4_n5_gf2_reduce", "x1*x2*x3*x4", 4, 5, 2, True, 33.0),
)


def _preimage_case(m: int, n: int) -> workloads.Case:
    rng = random.Random(f"reference:{m}:{n}")
    return workloads.solve_case(rng, m, n, min(10, math.factorial(m)), "gf:5")


def _median_ms(fn) -> tuple[float, object]:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times), result


def main() -> int:
    from utimage import selfcheck
    from utimage.fields import FieldSpec
    from utimage.freealg import parse_poly
    from utimage.oracle import check_theorem
    from utimage.solver import preimage
    from utimage.triangular import StrictUT

    rows = []  # (metric, ms, recorded ms, failure reason)
    spec = FieldSpec.gf(5)
    for m, n, recorded in PREIMAGE_CASES:
        case = _preimage_case(m, n)
        f = parse_poly(case.poly_text, spec)
        target = StrictUT.from_json_dict(case.target_document())
        ms, witness = _median_ms(lambda: preimage(f, n, target))
        text = selfcheck.canonical_json(
            selfcheck.witness_document(case.poly_text, n, spec, target, witness))
        reason = workloads.check_output(case, 0, text)
        rows.append((f"preimage.gf5.m{m}_n{n}.ms", ms, recorded, reason))
    for name, text, m, n, q, reduce_bands, recorded in SCAN_CASES:
        case = workloads.Case("verify", text, (), m, n, f"gf:{q}")
        f = parse_poly(text, FieldSpec.gf(q))
        ms, report = _median_ms(
            lambda: check_theorem(f, n, q, reduce_bands=reduce_bands))
        doc = json.dumps(report.json_dict(text, n, q))
        rows.append((f"check_theorem.{name}.ms", ms,
                     recorded, workloads.check_output(case, 0, doc)))

    failed = sum(1 for row in rows if row[3] is not None)
    print(f"reference cases, median of {REPEATS} runs each")
    for metric, ms, recorded, reason in rows:
        was = f"{recorded:10.1f}" if recorded is not None else "         -"
        ratio = f"{ms / recorded:6.2f}x" if recorded is not None else ""
        print(f"  {metric:42s} {ms:10.1f} ms   recorded {was} ms  {ratio}"
              + (f"  FAILED: {reason}" if reason else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {metric: {"value": ms, "unit": "ms"} for metric, ms, _, _ in rows},
    }))
    return 0
