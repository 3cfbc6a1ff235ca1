"""Tests of the benchmark itself: input generation, the independent output
check, failure counting, tracing hygiene, and the refusal to run without
the program.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import layers
import run
import workloads

ALL = sorted(workloads.GENERATORS)


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.fixture
def session(cli, tmp_path):
    def make(workload, seed=3):
        s = run.Session(workload, seed, str(tmp_path))
        s.cli = cli
        return s

    return make


@pytest.mark.parametrize("workload", ALL)
def test_generator_is_deterministic_for_a_seed(workload):
    first = [workloads.make_case(workload, 7, i) for i in range(9)]
    again = [workloads.make_case(workload, 7, i) for i in range(9)]
    other = [workloads.make_case(workload, 8, i) for i in range(9)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", ALL)
def test_cost_properties_follow_the_op_index_not_the_seed(workload):
    def shape(case):
        return case.command, case.field, case.m, case.n, case.reduce, len(case.terms)

    for i in range(12):
        assert shape(workloads.make_case(workload, 1, i)) == shape(
            workloads.make_case(workload, 2, i))


@pytest.mark.parametrize("workload", ALL)
def test_cost_properties_repeat_with_the_cost_cycle(workload):
    def shape(i):
        case = workloads.make_case(workload, 1, i)
        return case.command, case.field, case.m, case.n, case.reduce

    cycle = workloads.COST_CYCLE[workload]
    assert [shape(i) for i in range(cycle)] == [shape(i + cycle) for i in range(cycle)]


def test_same_work_ops_are_reported_at_their_fastest():
    solve = [workloads.make_case("solve-wide", 3, i) for i in range(3)]
    ns = [5_000_000, 9_000_000, 7_000_000]
    assert run.op_latencies_ms(ns, solve) == [5, 9, 7]
    verify = [workloads.make_case("verify-scan", s, 0) for s in (3, 4, 5)]
    verify.append(workloads.make_case("verify-scan", 3, 1))
    assert len({workloads.same_work_key(c) for c in verify[:3]}) == 1
    ns = [7_000_000, 5_000_000, 6_000_000, 9_000_000]
    assert run.op_latencies_ms(ns, verify) == [5, 5, 5, 9]


def test_loop_ends_on_a_whole_step(session):
    s = session("verify-scan")
    assert len(s.loop(0, 1, step=2)) == 2
    assert s.failed == 0


@pytest.mark.parametrize("workload", ALL)
def test_generated_ops_succeed_and_pass_the_check(session, workload):
    s = session(workload)
    s.loop(0, 3)
    assert (s.attempted, s.failed) == (3, 0), s.reasons


def _flip_one_entry(text: str) -> str:
    """Change one entry of the densest witness matrix.  That matrix is the
    back-substituted argument: each of its entries meets a nonzero pivot
    in the band system, so changing any one changes the value."""
    doc = json.loads(text)
    densest = max(doc["witness"], key=lambda x: len(x["entries"]))
    entry = densest["entries"][0]
    if doc["field"] == "rational":
        entry["value"] = str(Fraction(entry["value"]) + 1)
    else:
        p = int(doc["field"].split(":")[1])
        entry["value"] = str(int(entry["value"]) % (p - 1) + 1)
    return json.dumps(doc)


@pytest.mark.parametrize("index", [0, 2])  # gf:5 and rational ops
def test_witness_with_one_entry_flipped_counts_as_a_failure(session, cli, index):
    s = session("solve-wide")
    case = workloads.make_case("solve-wide", 3, index)
    _, text = s.op(case)
    assert s.failed == 0
    bad = _flip_one_entry(text)
    assert workloads.check_output(case, 0, bad) is not None

    def lying_main(argv):
        code = cli.main(argv)
        out = argv[argv.index("--out") + 1]
        Path(out).write_text(bad)
        return code

    s.op(case, call=lying_main)
    assert (s.attempted, s.failed) == (2, 1)


def test_wrong_exit_code_counts_as_a_failure(session):
    s = session("solve-deep")
    s.op(workloads.make_case("solve-deep", 3, 0), call=lambda argv: 3)
    assert s.failed == 1


def test_verify_report_needs_a_match_and_the_band_size(session):
    s = session("verify-scan")
    case = workloads.make_case("verify-scan", 3, 1)  # GF(2), m=3, n=4
    _, text = s.op(case)
    assert s.failed == 0
    doc = json.loads(text)
    assert doc["image_size"] == workloads.expected_image_size(case) == 2
    for key, value in (("matches", False), ("image_size", 4), ("expected_size", 1)):
        broken = dict(doc, **{key: value})
        assert workloads.check_output(case, 0, json.dumps(broken)) is not None


def test_digest_drops_the_verify_timing_field():
    case = workloads.make_case("verify-scan", 3, 0)
    doc = {"poly": case.poly_text, "n": 4, "q": 3, "image_size": 27,
           "expected_size": 27, "matches": True, "evaluations": 1}
    fast = json.dumps(dict(doc, elapsed_ms=5))
    slow = json.dumps(dict(doc, elapsed_ms=900))
    assert workloads.digest_text(case, fast) == workloads.digest_text(case, slow)


def test_tracer_restores_every_patched_name(cli):
    def current():
        return [layers._resolve(mod, path)[2] for mod, path, _ in layers.SPANS]

    before = current()
    tracer = layers.Tracer()
    with tracer.installed():
        during = current()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, current()))
    assert tracer.absent == []


def test_a_removed_name_is_reported_absent(cli, monkeypatch):
    monkeypatch.setattr(
        layers, "SPANS", layers.SPANS + (("utimage.solver", "gone", "solver.gone"),))
    tracer = layers.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["solver.gone"]


def test_counting_pass_counts_repeat_exactly(session):
    def counts():
        s = session("solve-wide")
        counter = layers.Counter()
        with counter.installed():
            s.loop(0, 2)
        assert s.failed == 0
        return dict(counter.counts)

    first = counts()
    assert first["scalar_mul"] > 0 and first["ut_mul"] > 0
    assert counts() == first


def test_refuses_to_run_without_the_program(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "solve-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
