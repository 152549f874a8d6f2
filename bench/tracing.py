"""Spans around the library's public functions, recorded from outside it.

Each traced function is replaced, for the duration of ``installed``, by a
wrapper stored under the name its caller looks up: ``bpladmm.engine``
module globals, ``numpy.linalg.svd`` and ``rpca.soft_shrink`` as ``rpca``
sees them, ``DcOpfBlockProblem`` methods and the ``matpower`` functions.
A span records its name, start, end and parent; self time is its duration
minus the time its child spans cover.  Aggregates are kept for every span,
full span records up to a cap, all in memory until the benchmark writes
them out.
"""

import contextlib
import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy.linalg

from bpladmm import dcopf, engine, matpower, rpca

# (owner, attribute, span name, scope): a scope labels every span opened
# beneath it, so the same function can be counted per solver or phase
PATCH_POINTS = [
    (engine, "solve", "engine.solve", None),
    (engine, "step", "engine.step", None),
    (engine, "_x_sweep", "engine.x_sweep", None),
    (engine, "constraint_residual", "engine.constraint_residual", None),
    (engine, "augmented_lagrangian", "engine.augmented_lagrangian", None),
    (engine, "merit", "engine.merit", None),
    (engine, "objective_value", "engine.objective_value", None),
    (engine, "stacked_norm", "spaces.stacked_norm", None),
    (rpca, "generate_instance", "rpca.generate_instance", None),
    (rpca, "bpl_admm_rpca", "rpca.bpl", "bpl"),
    (rpca, "admm3_baseline", "rpca.admm3", "admm3"),
    (rpca, "recovery_metrics", "rpca.recovery_metrics", None),
    (rpca, "soft_shrink", "spaces.soft_shrink", None),
    (rpca, "stacked_norm", "spaces.stacked_norm", None),
    (numpy.linalg, "svd", "rpca.svd", None),
    (dcopf, "solve_dcopf", "dcopf.solve_dcopf", None),
    (dcopf, "build_problem", "dcopf.build_problem", None),
    (dcopf, "frozen_u_recheck", "dcopf.frozen_u_recheck", "recheck"),
    (dcopf, "dist_sq_nonneg_orthant", "spaces.dist_sq_nonneg_orthant", None),
    (dcopf.DcOpfBlockProblem, "__init__", "dcopf.block_problem_init", None),
    *[(dcopf.DcOpfBlockProblem, m, f"dcopf.{m}", None)
      for m in ("apply_A", "apply_B", "solve_x_block", "solve_y_block",
                "eval_f", "eval_H", "eval_G", "subgrad_G")],
    (matpower, "parse_case", "matpower.parse_case", None),
    (matpower, "to_dcopf_case", "matpower.to_dcopf_case", None),
]

# names whose individual durations are kept, for percentiles and per-call medians
KEEP_DURATIONS = {"engine.step", "dcopf.build_problem", "dcopf.block_problem_init"}
# report-evaluation calls engine.step makes after the multiplier update
REPORT_CALLS = {"engine.augmented_lagrangian", "engine.merit", "engine.objective_value",
                "spaces.stacked_norm"}


class Tracer:
    """Spans and per-name aggregates of one traced stretch of work."""

    def __init__(self, span_cap: int = 100_000):
        self.origin = perf_counter()
        self.scope = ""
        self.stack = []  # open spans: (id, name, [child seconds])
        self.next_id = 0
        self.calls = Counter()  # (scope, name) -> calls
        self.total_s = Counter()  # (scope, name) -> inclusive seconds
        self.self_s = Counter()  # (scope, name) -> self seconds
        self.under_parent_s = Counter()  # (name, parent name) -> inclusive seconds
        self.durations = defaultdict(list)
        self.spans = []  # (id, name, start, end, parent id), up to span_cap
        self.span_cap = span_cap
        self.dropped_spans = 0

    def wrap(self, name, fn, scope):
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            outer_scope = self.scope
            if scope is not None:
                self.scope = scope
            child_s = [0.0]
            self.stack.append((span_id, name, child_s))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                key = (self.scope, name)
                self.scope = outer_scope
                elapsed = end - start
                self.calls[key] += 1
                self.total_s[key] += elapsed
                self.self_s[key] += elapsed - child_s[0]
                if name in KEEP_DURATIONS:
                    self.durations[name].append(elapsed)
                if parent is not None:
                    parent[2][0] += elapsed
                    self.under_parent_s[(name, parent[1])] += elapsed
                if len(self.spans) < self.span_cap:
                    self.spans.append((span_id, name, start - self.origin, end - self.origin,
                                       None if parent is None else parent[0]))
                else:
                    self.dropped_spans += 1

        traced.__wrapped__ = fn
        return traced

    def count(self, name, scope=None) -> int:
        return sum(v for (s, n), v in self.calls.items() if n == name and scope in (None, s))

    def seconds(self, name, *, self_time=False) -> float:
        table = self.self_s if self_time else self.total_s
        return sum(v for (_, n), v in table.items() if n == name)

    def aggregates(self) -> dict:
        return {f"{scope}/{name}" if scope else name: {
                    "calls": calls,
                    "total_s": self.total_s[(scope, name)],
                    "self_s": self.self_s[(scope, name)]}
                for (scope, name), calls in sorted(self.calls.items())}


@contextlib.contextmanager
def patched(points, wrap):
    """Replace each ``(owner, attribute, *how)`` of ``points`` by
    ``wrap(original, *how)``; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, *how in points:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original, *how))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextlib.contextmanager
def installed(tracer):
    """Route every patch point through ``tracer``; restore on exit.

    With ``tracer`` None nothing is patched.
    """
    if tracer is None:
        yield
        return
    with patched(PATCH_POINTS, lambda fn, name, scope: tracer.wrap(name, fn, scope)):
        yield


def layer_metrics(setup: Tracer, passes: list, pass_sweeps: list, info: dict) -> dict:
    """Per-layer metrics of one workload from its traced setup and passes.

    ``passes`` holds one Tracer per traced pass and ``pass_sweeps`` the
    matching solver sweep counts ({"bpl": n, "admm3": n, "engine": n}).
    Counts come from the first pass (every pass runs the same inputs);
    times are medians over passes.
    """
    first, sweeps0 = passes[0], pass_sweeps[0]

    def median_over_passes(fn):
        return statistics.median(fn(t) for t in passes)

    def median_call(name):
        values = setup.durations[name] + [d for t in passes for d in t.durations[name]]
        return statistics.median(values) if values else 0.0

    step_us = sorted(d * 1e6 for t in passes for d in t.durations["engine.step"])
    engine_sweeps = first.count("engine.step")
    all_sweeps = engine_sweeps + sweeps0.get("bpl", 0) + sweeps0.get("admm3", 0)

    def rpca_ms(label):
        n = sweeps0.get(label, 0)
        return median_over_passes(lambda t: t.seconds(f"rpca.{label}")) * 1e3 / n if n else 0.0

    def svd_per_sweep(label):
        n = sweeps0.get(label, 0)
        return first.count("rpca.svd", scope=label) / n if n else 0.0

    def report_s(t):
        return sum(t.under_parent_s[(name, "engine.step")] for name in REPORT_CALLS)

    self_s = lambda name: median_over_passes(lambda t: t.seconds(name, self_time=True))

    def layer_self_s(tracer, layer):
        return sum(v for (_, n), v in tracer.self_s.items() if n.startswith(layer + "."))

    calls_per = lambda name: first.count(name) / all_sweeps if all_sweeps else 0.0
    return {
        # self time of every span of a module; matpower runs only in set-up
        **{f"{layer}.self_s": (median_over_passes(lambda t: layer_self_s(t, layer)), "s")
           for layer in ("engine", "dcopf", "rpca", "spaces")},
        "matpower.self_s": (layer_self_s(setup, "matpower"), "s"),
        "engine.step.calls": (engine_sweeps, "count"),
        "engine.iterations": (engine_sweeps - first.count("engine.step", scope="recheck"), "count"),
        "engine.step.self_s": (self_s("engine.step"), "s"),
        "engine.step.p50_us": (percentile(step_us, 0.50), "us"),
        "engine.step.p99_us": (percentile(step_us, 0.99), "us"),
        "engine.constraint_residual.calls_per_sweep": (calls_per("engine.constraint_residual"), "calls/sweep"),
        "engine.constraint_residual.self_s": (self_s("engine.constraint_residual"), "s"),
        "engine.augmented_lagrangian.calls_per_sweep": (calls_per("engine.augmented_lagrangian"), "calls/sweep"),
        "engine.objective_value.calls_per_sweep": (calls_per("engine.objective_value"), "calls/sweep"),
        "engine.report.self_s": (median_over_passes(report_s), "s"),
        "dcopf.apply_A.calls_per_sweep": (calls_per("dcopf.apply_A"), "calls/sweep"),
        "dcopf.apply_A.self_s": (self_s("dcopf.apply_A"), "s"),
        "dcopf.A_bytes_computed": (info.get("A_bytes", 0), "B"),
        "dcopf.A_nonzeros": (info.get("A_nonzeros", 0), "count"),
        "dcopf.solve_x_block.self_s": (self_s("dcopf.solve_x_block"), "s"),
        "dcopf.solve_y_block.self_s": (self_s("dcopf.solve_y_block"), "s"),
        "dcopf.eval_f.calls_per_sweep": (calls_per("dcopf.eval_f"), "calls/sweep"),
        "dcopf.build_problem_s": (median_call("dcopf.build_problem"), "s"),
        "dcopf.block_problem_init_s": (median_call("dcopf.block_problem_init"), "s"),
        "dcopf.recheck_s": (median_over_passes(lambda t: t.seconds("dcopf.frozen_u_recheck")), "s"),
        "dcopf.recheck_iterations": (first.count("engine.step", scope="recheck"), "count"),
        "rpca.svd.calls_per_sweep.bpl": (svd_per_sweep("bpl"), "calls/sweep"),
        "rpca.svd.calls_per_sweep.admm3": (svd_per_sweep("admm3"), "calls/sweep"),
        "rpca.svd.self_s": (self_s("rpca.svd"), "s"),
        "rpca.iterations.bpl": (sweeps0.get("bpl", 0), "count"),
        "rpca.iterations.admm3": (sweeps0.get("admm3", 0), "count"),
        "rpca.sweep_ms.bpl": (rpca_ms("bpl"), "ms"),
        "rpca.sweep_ms.admm3": (rpca_ms("admm3"), "ms"),
        "rpca.recovery_metrics_s": (median_over_passes(lambda t: t.seconds("rpca.recovery_metrics")), "s"),
        "rpca.generate_instance_s": (setup.seconds("rpca.generate_instance"), "s"),
        "spaces.soft_shrink.self_s": (self_s("spaces.soft_shrink"), "s"),
        "spaces.stacked_norm.calls_per_sweep": (calls_per("spaces.stacked_norm"), "calls/sweep"),
        "spaces.dist_sq_nonneg_orthant.calls_per_sweep": (calls_per("spaces.dist_sq_nonneg_orthant"), "calls/sweep"),
        "matpower.parse_case_s": (setup.seconds("matpower.parse_case"), "s"),
        "matpower.to_dcopf_case_s": (setup.seconds("matpower.to_dcopf_case"), "s"),
    }


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 for an empty one."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]
