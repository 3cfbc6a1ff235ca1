"""Acceptance suite: every criterion runs at exact-arithmetic tolerance
(equality) and prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import pytest

from utimage.fields import FieldSpec
from utimage.freealg import parse_poly
from utimage.sampling import (
    IDENTITY_GRID,
    THEOREM_GRID,
    TRIAL_FIELDS,
    run_grid,
    run_round_trips,
    trial_case,
)
from utimage.selfcheck import witness_json
from utimage.solver import image_description, preimage, solve_band
from utimage.witness import eval_pivot, pivot_terms, witness_scalars

from conftest import (
    image_bruteforce,
    mat,
    packed_key,
    random_pivot_coeffs,
    shared_denominator,
)

SEED = 1789
TRIALS_PER_FIELD = 100


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def round_trip_runs():
    """Criterion 3 workload, shared with criteria 5 and 7."""
    outcomes = {}
    started = time.perf_counter()
    for field_text in TRIAL_FIELDS:
        outcomes[field_text] = run_round_trips(SEED, field_text, TRIALS_PER_FIELD)
    elapsed = time.perf_counter() - started
    return outcomes, elapsed


@pytest.fixture(scope="module")
def theorem_grid_run():
    """Criterion 1 workload, shared with criterion 7."""
    started = time.perf_counter()
    rows = run_grid(THEOREM_GRID)
    return rows, time.perf_counter() - started


def test_criterion_1_theorem_grid(theorem_grid_run):
    rows, elapsed = theorem_grid_run
    ok = True
    for poly_text, n, q, rep in rows:
        m = parse_poly(poly_text, FieldSpec.gf(q)).m
        expected = q ** ((n - m) * (n - m + 1) // 2)
        ok = ok and rep.matches and rep.image_size == expected
    ok = ok and elapsed < 60
    report(
        1,
        ok,
        f"{len(rows)} grid points all match predicted band images "
        f"({elapsed:.2f}s < 60s)",
    )


def test_criterion_2_identity_cases():
    started = time.perf_counter()
    rows = run_grid(IDENTITY_GRID)
    elapsed = time.perf_counter() - started
    ok = True
    for poly_text, n, q, rep in rows:
        f = parse_poly(poly_text, FieldSpec.gf(q))
        image = image_bruteforce(f, n, q)
        ok = ok and rep.matches and rep.image_size == 1
        ok = ok and image == (0,)
        ok = ok and image_description(f, n).is_zero
    ok = ok and elapsed < 5
    report(
        2,
        ok,
        f"{len(rows)} identity cases brute-force to exactly {{0}} "
        f"({elapsed:.2f}s < 5s)",
    )


def test_criterion_3_round_trip_preimages(round_trip_runs):
    outcomes, elapsed = round_trip_runs
    good = sum(passed for passed, _failures in outcomes.values())
    total = good + sum(len(failures) for _passed, failures in outcomes.values())
    ok = (
        total == TRIALS_PER_FIELD * len(TRIAL_FIELDS)
        and good == total
        and elapsed < 30
    )
    report(
        3,
        ok,
        f"{good}/{total} seeded preimage round trips reproduce the target "
        f"exactly ({elapsed:.2f}s < 30s)",
    )


def test_criterion_4_pivot_selection_suite():
    fields = [FieldSpec.gf(2), FieldSpec.gf(3), FieldSpec.gf(5), FieldSpec()]
    started = time.perf_counter()
    vectors = forced = checked = 0
    ok = True
    for m in range(2, 7):
        for v in range(40):
            rng = random.Random(f"{SEED}:{m}:{v}")
            force = m >= 3 and v % 2 == 0
            spec = fields[v % 4]
            core = random_pivot_coeffs(rng, spec, m, force_swap23=force)
            forced += force
            vectors += 1
            for n in range(m + 1, 9):
                cells, pivots = witness_scalars(core, n)
                for k in range(1, n - m + 1):
                    value = eval_pivot(cells, core, pivot_terms(core), k)
                    ok = ok and value != 0 and value == pivots[k - 1]
                    checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and vectors == 200 and forced >= 50 and elapsed < 10
    report(
        4,
        ok,
        f"{vectors} coefficient vectors ({forced} with a forced 2,3-swap), "
        f"{checked} pivot sums all nonzero ({elapsed:.2f}s < 10s)",
    )


def replays(outcomes):
    """Replay each passing round trip from its seeded case, capturing the
    trace; yields (polynomial, trace, witness JSON).  Failed round trips are
    criterion 3's."""
    for field_text, (passed, failures) in outcomes.items():
        spec = FieldSpec.from_text(field_text)
        failed = {index for index, _line in failures}
        for index in range(passed + len(failed)):
            if index in failed:
                continue
            _m, n, f, target = trial_case(SEED, field_text, spec, index)
            trace = {}
            witness = preimage(f, n, target, trace=trace)
            yield f, trace, witness_json(f.to_text(), n, spec, target, witness)


def test_criterion_5_band_system_structure(round_trip_runs):
    outcomes, _elapsed = round_trip_runs
    systems_checked = violations = 0
    for f, trace, _text in replays(outcomes):
        if "systems" not in trace:
            continue
        core = f.normalize().core
        cells = trace["cells"]
        terms = pivot_terms(core)
        # The traced rows are raw values; pivot sums are numerators over L.
        scale = shared_denominator(core)
        m = core.m
        n = len(cells[-1])  # one cell per slot 0..n-1
        for i, matrix, rhs in trace["systems"]:
            systems_checked += 1
            # Row k holds the m coefficients of columns k..k+m-1, the pivot
            # first; nothing else can be stored.
            if len(matrix) != len(rhs) or len(matrix) != n - i + 1:
                violations += 1
            for k, row in enumerate(matrix, start=1):
                if len(row) != m:
                    violations += 1
                if row[0] * scale != eval_pivot(cells, core, terms, k + i - m - 1):
                    violations += 1
    ok = systems_checked > 0 and violations == 0
    report(
        5,
        ok,
        f"{systems_checked} assembled systems, {violations} band or pivot "
        "violations",
    )


def test_criterion_6_known_values():
    ok = True
    # the unit-chain substitution reaches the top corner for every degree
    for m in range(2, 7):
        for spec in (FieldSpec(), FieldSpec.gf(2)):
            f = parse_poly("*".join(f"x{j}" for j in range(1, m + 1)), spec)
            args = [mat(m + 1, spec, [(j, j + 1, 1)]) for j in range(1, m + 1)]
            ok = ok and f.evaluate(args) == mat(m + 1, spec, [(1, m + 1, 1)])
    # commutator image on 3 x 3 matrices over GF(2) is {0, corner}
    gf2 = FieldSpec.gf(2)
    image = image_bruteforce(parse_poly("x1*x2-x2*x1", gf2), 3, 2)
    ok = ok and image == (
        packed_key(mat(3, gf2, []), 2),
        packed_key(mat(3, gf2, [(1, 3, 1)]), 2),
    )
    # back-substitution on the fixed 2 x 3 system; row k holds integer
    # coefficients at columns k..k+1, and the solution comes back as
    # numerators over one denominator
    rational = FieldSpec()
    rows_q = [(1, -1), (1, -1)]
    ok = ok and solve_band(rows_q, [1, 1], rational) == ([2, 1, 0], 1)
    ok = ok and solve_band(rows_q, [1, 1], rational, 3) == ([2, 1, 0], 3)
    ok = ok and solve_band([(1, 1), (1, 1)], [1, 1], gf2) == ([0, 1, 0], 1)
    report(6, ok, "unit-chain values, commutator image, and fixed solves agree")


def test_criterion_7_determinism(round_trip_runs, theorem_grid_run):
    outcomes, _elapsed = round_trip_runs
    rerun = {
        field_text: run_round_trips(SEED, field_text, TRIALS_PER_FIELD)
        for field_text in TRIAL_FIELDS
    }
    first = "".join(text for _f, _trace, text in replays(outcomes))
    second = "".join(text for _f, _trace, text in replays(rerun))
    ok = rerun == outcomes and first == second and len(first) > 0

    def untimed(rows):
        return [
            {**report.json_dict(poly_text, n, q), "elapsed_ms": 0}
            for poly_text, n, q, report in rows
        ]

    grid_rows, _elapsed = theorem_grid_run
    ok = ok and untimed(grid_rows) == untimed(run_grid(THEOREM_GRID))
    report(
        7,
        ok,
        "seeded witness JSON is byte-identical across runs; repeated "
        "theorem-grid reports agree up to elapsed_ms",
    )
