"""Per-layer tracing and counting for the benchmark, from outside the program.

Spans are recorded by replacing names in the namespace the caller looks
them up in (``utimage.solver.band_system`` for the call in ``preimage``,
``utimage.cli.preimage`` for the call in ``cmd_solve``, class attributes for
methods) with wrappers that time the call.  No source file of the program
is edited.  A name a later refactor removes is reported as an absent layer;
its metrics read 0 and the run goes on.

Hot methods (``Scalar.__mul__``, ``StrictUT.__mul__``, ...) run up to a
hundred thousand times per op, so wrapping them would distort the stage
times; they are counted in a separate pass (``Counter``) instead.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = "cli.main"

# (module, attribute path, span name).  The module is the one whose
# namespace the caller reads the name from.
SPANS = (
    ("utimage.cli", "parse_poly", "freealg.parse_poly"),
    ("utimage.cli", "preimage", "solver.preimage"),
    ("utimage.cli", "check_theorem", "oracle.check_theorem"),
    ("utimage.triangular", "StrictUT.from_json_dict", "triangular.from_json_dict"),
    ("utimage.selfcheck", "canonical_json", "selfcheck.canonical_json"),
    ("utimage.freealg", "MultilinearPoly.normalize", "freealg.normalize"),
    ("utimage.freealg", "MultilinearPoly.evaluate", "freealg.evaluate"),
    ("utimage.solver", "witness_scalars", "witness.witness_scalars"),
    ("utimage.solver", "band_decompose", "triangular.band_decompose"),
    ("utimage.solver", "band_system", "solver.band_system"),
    ("utimage.solver", "solve_band", "solver.solve_band"),
    ("utimage.witness", "symmetric_group", "witness.symmetric_group"),
    ("utimage.oracle", "_image_keys", "oracle.image_keys"),
    ("utimage.oracle", "_compile_terms", "oracle.compile_terms"),
    ("utimage.oracle", "_predicted_keys", "oracle.predicted"),
)

# (module, attribute path, counter name) for the counting pass.
COUNTED = (
    ("utimage.freealg", "Permutation.__init__", "perm_new"),
    ("utimage.triangular", "StrictUT.__mul__", "ut_mul"),
    ("utimage.fields", "Scalar.__mul__", "scalar_mul"),
    ("utimage.fields", "Scalar.__rmul__", "scalar_mul"),
    ("utimage.fields", "Scalar.__add__", "scalar_add"),
    ("utimage.fields", "Scalar.__radd__", "scalar_add"),
)

PER_LAYER_TIMES = (
    # (metric, how it is read from the spans)
    ("cli.main.ms", ("incl", ROOT)),
    ("cli.main.self_ms", ("self", ROOT)),
    ("freealg.parse_poly.ms", ("incl", "freealg.parse_poly")),
    ("triangular.from_json_dict.ms", ("incl", "triangular.from_json_dict")),
    ("freealg.normalize.ms", ("incl", "freealg.normalize")),
    ("witness.witness_scalars.ms", ("incl", "witness.witness_scalars")),
    ("witness.witness_scalars.self_ms", ("self", "witness.witness_scalars")),
    ("witness.symmetric_group.ms", ("incl", "witness.symmetric_group")),
    ("triangular.band_decompose.ms", ("incl", "triangular.band_decompose")),
    ("solver.band_system.ms", ("incl", "solver.band_system")),
    ("solver.band_system.evaluate_ms", ("under", "freealg.evaluate", "solver.band_system")),
    ("solver.solve_band.ms", ("incl", "solver.solve_band")),
    ("solver.postcondition.ms", ("under", "freealg.evaluate", "solver.preimage")),
    ("selfcheck.canonical_json.ms", ("incl", "selfcheck.canonical_json")),
    ("oracle.compile_terms.ms", ("incl", "oracle.compile_terms")),
    ("oracle.predicted.ms", ("incl", "oracle.predicted")),
    ("oracle.compare.ms", ("self", "oracle.check_theorem")),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value), or None when absent."""
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        # Read from __dict__ on classes so a classmethod comes back as the
        # descriptor, which is what must be put back.
        value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError):
        return None
    return owner, attr, value


@contextmanager
def _patched(replacements):
    """Install (owner, attr, new value) triples; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr] if isinstance(owner, type)
              else getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """Aggregated spans: inclusive and self time per name, time per
    (name, parent) pair, call counts, and the layer-specific work counts
    read off arguments and results."""

    def __init__(self):
        self.stack: list[list] = []  # [name, child_ns]
        self.incl = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.under = defaultdict(int)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.absent: list[str] = []

    def wrap(self, name: str, fn, on_result=None):
        stack = self.stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.incl[name] += elapsed
                self.self_ns[name] += elapsed - frame[1]
                self.under[(name, parent)] += elapsed
                self.calls[name] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # The hooks read work counts off results.  A result whose shape a
    # refactor changed leaves its counts at 0 instead of failing the op.

    def _on_band_system(self, args, system):
        try:
            rows, degree = system.rows, system.degree
            stored = sum(len(row) for row in system.matrix)
        except (AttributeError, TypeError):
            return
        self.work["band_rows"] += rows
        self.work["band_useful"] += rows * degree
        self.work["band_stored"] += stored

    def _on_check_theorem(self, args, report):
        self.work["evaluations"] += getattr(report, "evaluations", 0)
        self.work["image_size"] += getattr(report, "image_size", 0)

    def _on_compile_terms(self, args, grouped):
        try:
            self.work["terms"] += sum(len(terms) for _pos, terms in grouped)
        except (TypeError, ValueError):
            pass

    @contextmanager
    def installed(self):
        hooks = {
            "solver.band_system": self._on_band_system,
            "oracle.check_theorem": self._on_check_theorem,
            "oracle.compile_terms": self._on_compile_terms,
        }
        replacements = []
        for module_name, path, name in SPANS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, value = found
            if isinstance(value, classmethod):
                bound = value.__get__(None, owner)
                new = staticmethod(self.wrap(name, bound, hooks.get(name)))
            else:
                new = self.wrap(name, value, hooks.get(name))
            replacements.append((owner, attr, new))
        with _patched(replacements):
            yield

    def metrics(self, ops: int, untraced_ops_per_s: float) -> dict:
        """Per-op layer metrics; times in ms per op, shares of the traced
        wall time (the root span)."""
        def ms(kind, name, parent=None):
            if kind == "incl":
                ns = self.incl[name]
            elif kind == "self":
                ns = self.self_ns[name]
            else:
                ns = self.under[(name, parent)]
            return ns / 1e6 / ops

        wall_ms = ms("incl", ROOT)
        out = {}
        for metric, how in PER_LAYER_TIMES:
            out[metric] = (ms(*how), "ms")
        scan_ms = ms("incl", "oracle.image_keys") - ms("incl", "oracle.compile_terms")
        out["oracle.scan.ms"] = (scan_ms, "ms")
        for metric in list(out):
            if metric != "cli.main.ms":
                # x.ms -> x.share, x.self_ms -> x.self_share
                share = out[metric][0] / wall_ms if wall_ms else 0.0
                out[metric[: -len("ms")] + "share"] = (share, "ratio")
        work = self.work
        evaluations = work["evaluations"]
        out["solver.band_system.systems_per_op"] = (self.calls["solver.band_system"] / ops, "count")
        out["solver.band_system.rows_per_op"] = (work["band_rows"] / ops, "count")
        out["solver.band_system.fill_ratio"] = (
            work["band_useful"] / work["band_stored"] if work["band_stored"] else 0.0, "ratio")
        out["oracle.scan.evaluations_per_op"] = (evaluations / ops, "count")
        out["oracle.scan.evals_per_s"] = (
            evaluations / (scan_ms * ops / 1e3) if scan_ms > 0 else 0.0, "1/s")
        out["oracle.useful_ratio"] = (work["image_size"] / evaluations if evaluations else 0.0, "ratio")
        out["oracle.compile_terms.terms_per_op"] = (work["terms"] / ops, "count")
        traced_ops_per_s = 1e3 / wall_ms if wall_ms else 0.0
        out["trace_overhead"] = (
            untraced_ops_per_s / traced_ops_per_s if traced_ops_per_s else 0.0, "ratio")
        return out


class Counter:
    """Exact call counts of the hot methods, for the counting pass."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.absent: list[str] = []

    def _wrap(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _on_witness_scalars(self, fn):
        counts = self.counts

        def observed(core, *args, **kwargs):
            support = getattr(core, "coeffs", ())
            counts["perm_useful"] += sum(1 for sigma in support if sigma(1) == 1)
            return fn(core, *args, **kwargs)

        return observed

    @contextmanager
    def installed(self):
        replacements = []
        for module_name, path, key in COUNTED:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(path)
                continue
            owner, attr, value = found
            replacements.append((owner, attr, self._wrap(key, value)))
        found = _resolve("utimage.solver", "witness_scalars")
        if found is None:
            self.absent.append("witness_scalars")
        else:
            owner, attr, value = found
            replacements.append((owner, attr, self._on_witness_scalars(value)))
        with _patched(replacements):
            yield

    def metrics(self, ops: int) -> dict:
        c = self.counts
        return {
            "freealg.Permutation.new_per_op": (c["perm_new"] / ops, "count"),
            "triangular.StrictUT.mul_per_op": (c["ut_mul"] / ops, "count"),
            "fields.Scalar.mul_per_op": (c["scalar_mul"] / ops, "count"),
            "fields.Scalar.add_per_op": (c["scalar_add"] / ops, "count"),
            "witness.perm_useful_ratio": (
                c["perm_useful"] / c["perm_new"] if c["perm_new"] else 0.0, "ratio"),
        }
