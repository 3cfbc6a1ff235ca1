"""utimage benchmark: closed-loop CLI workloads and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload solve-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload verify-scan --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --reference

One client, one process, single-threaded: each op is one in-process call
of ``utimage.cli.main([...])`` at the CLI's defaults, issued only after
the previous op returned, with ``--out`` going to a file in a scratch
directory under the checkout and ``UTIMAGE_THREADS`` unset.  The program
gets only polynomial text and target JSON files; ``workloads.py`` makes
them from the seed and checks every output outside the timed region.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced pass (see layers.py).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
README.md in this directory for the workloads and metric names.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100  # p90 needs at least ten samples beyond it
DIGEST_OPS = 30  # every run reaches this many ops, so digests compare
SETUPS = 10  # set-up is repeated and its median reported
COUNT_OPS = 15  # ops in the counting pass (five turns of the field cycle)
CALIBRATION_LOOPS = 3_000_000


class ProgramMissing(Exception):
    pass


def load_cli():
    """Import ``utimage.cli`` afresh from this checkout's src/."""
    if not (SRC / "utimage" / "cli.py").is_file():
        raise ProgramMissing(f"no program source at {SRC / 'utimage'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "utimage" or n.startswith("utimage.")]:
        del sys.modules[name]
    cli = importlib.import_module("utimage.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"utimage imported from {cli.__file__}, not {SRC}")
    return cli


class Session:
    """Issues ops of one workload and keeps the failure tally."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.cli = None
        self.target_path = os.path.join(work_dir, "target.json")
        self.out_path = os.path.join(work_dir, "out.json")
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, case: workloads.Case, call=None) -> tuple[int, str | None]:
        """Run one op; returns its latency in ns and its output text.

        Only the CLI call is timed.  The output is checked here, so a wrong
        exit code, an exception or a wrong output each count as one failure.
        """
        if case.target is not None:
            with open(self.target_path, "w") as handle:
                json.dump(case.target_document(), handle)
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = case.argv(self.target_path, self.out_path)
        call = call or self.cli.main
        reason = None
        start = time.perf_counter_ns()
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op
            code, reason = None, f"raised {exc!r}"
        elapsed = time.perf_counter_ns() - start
        text = None
        if os.path.exists(self.out_path):
            with open(self.out_path) as handle:
                text = handle.read()
        if reason is None:
            reason = workloads.check_output(case, code, text or "")
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{case.command} {case.poly_text!r} n={case.n} "
                                    f"{case.field}: {reason}")
        return elapsed, text

    def warm_up(self) -> None:
        self.op(workloads.make_case(self.workload, self.seed, 0, stream="warmup"))

    def loop(self, seconds: float, min_ops: int, call=None, digest=None,
             first: int = 0, step: int = 1) -> list[int]:
        """Closed loop over ops first, first+1, ... until ``seconds`` have
        passed, at least ``min_ops`` ops are done and the next op index is
        a multiple of ``step``; returns the latencies in ns.  Outputs of
        ops below DIGEST_OPS feed ``digest`` when one is given."""
        latencies = []
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline or len(latencies) < min_ops
               or (first + len(latencies)) % step):
            index = first + len(latencies)
            case = workloads.make_case(self.workload, self.seed, index)
            elapsed, text = self.op(case, call)
            if digest is not None and index < DIGEST_OPS:
                try:
                    digest.update(workloads.digest_text(case, text or ""))
                except (ValueError, AttributeError):
                    digest.update(b"<unreadable output>")
                digest.update(b"\0")
            latencies.append(elapsed)
        return latencies


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, to tell a slow box from a
    slow program."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i & 7
    return time.perf_counter() - start


def git_commit() -> str:
    """The checkout's commit, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def op_latencies_ms(latencies: list[int], cases: list) -> list[float]:
    """The latency in ms that each op of the run is reported at.

    Noise on a shared box only ever adds time, in busy spells of several
    seconds.  Among ops that do the same work (equal, non-None
    ``workloads.same_work_key``), the fastest in the run is the steadiest
    measure of that work, as in timeit and in Chen & Revels, "Robust
    benchmarking in noisy environments" (2016), so each is reported at it.
    Ops whose work depends on their inputs are reported as measured.
    """
    ms = [ns / 1e6 for ns in latencies]
    keys = [workloads.same_work_key(case) for case in cases]
    best: dict = {}
    for key, value in zip(keys, ms):
        if key is not None:
            best[key] = min(value, best.get(key, value))
    return [value if key is None else best[key] for key, value in zip(keys, ms)]


def latency_summary(ms: list[float]) -> dict:
    return {
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "latency_ms.p50": (statistics.median(ms), "ms"),
        "latency_ms.p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
    }


def end_to_end(session: Session, seconds: float, digest) -> tuple[dict, int]:
    # The set-ups are spread over the run, one before each equal slice of
    # the measured loop, so their median samples the box's speed at
    # several moments instead of only at the start.  The last slice runs
    # on to a whole cost cycle, so the run's cost mix is exact.
    cycle = workloads.COST_CYCLE[session.workload]
    setups = []
    latencies: list[int] = []
    for k in range(SETUPS):
        start = time.perf_counter()
        session.cli = load_cli()
        session.warm_up()
        setups.append(time.perf_counter() - start)
        last = k == SETUPS - 1
        latencies += session.loop(seconds / SETUPS, MIN_OPS - len(latencies) if last else 0,
                                  digest=digest, first=len(latencies),
                                  step=cycle if last else 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = latency_summary([ns / 1e6 for ns in latencies])
    print("as measured: " + ", ".join(
        f"{name} {value:.4f}" for name, (value, _) in measured.items()))
    cases = [workloads.make_case(session.workload, session.seed, index)
             for index in range(len(latencies))]
    metrics = latency_summary(op_latencies_ms(latencies, cases))
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics, len(latencies)


def per_layer(session: Session, seconds: float, digest) -> tuple[dict, int]:
    session.cli = load_cli()
    session.warm_up()
    untraced = session.loop(seconds / 2, DIGEST_OPS, digest=digest)
    untraced_ops_per_s = len(untraced) / (sum(untraced) / 1e9)
    tracer = layers.Tracer()
    with tracer.installed():
        traced = session.loop(seconds / 2, 1, call=tracer.wrap(layers.ROOT, session.cli.main))
    counter = layers.Counter()
    with counter.installed():
        for index in range(COUNT_OPS):
            session.op(workloads.make_case(session.workload, session.seed, index))
    print(f"counts over ops 0..{COUNT_OPS - 1}: "
          + json.dumps(dict(sorted(counter.counts.items()))))
    absent = tracer.absent + counter.absent
    if absent:
        print("absent layers (reported as 0): " + ", ".join(absent))
    metrics = tracer.metrics(len(traced), untraced_ops_per_s)
    metrics.update(counter.metrics(COUNT_OPS))
    return metrics, len(untraced) + len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="time the fixed reference cases once instead")
    args = parser.parse_args(argv)
    if not args.reference and args.workload is None:
        parser.error("--workload is required unless --reference is given")
    os.environ.pop("UTIMAGE_THREADS", None)
    try:
        load_cli()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.reference:
        import reference

        return reference.main()

    context = machine_context()
    context["calibration_before_s"] = calibrate()
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as work_dir:
        session = Session(args.workload, args.seed, work_dir)
        measure = per_layer if args.trace else end_to_end
        metrics, measured_ops = measure(session, args.seconds, digest)
    context["calibration_after_s"] = calibrate()

    print("context: " + json.dumps(context, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{measured_ops} measured ops, {session.attempted} attempted, "
          f"{session.failed} failed, error_rate "
          f"{session.failed / session.attempted}")
    for reason in session.reasons:
        print(f"  failure: {reason}")
    print(f"digest sha256 (first {DIGEST_OPS} outputs): {digest.hexdigest()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
