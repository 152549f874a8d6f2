"""Benchmark of the bpladmm solvers on three workloads.

Run from the repository root:

    python3 bench/run.py --workload rpca-desk --seed 0 --seconds 35 --trace 0

The benchmark imports ``bpladmm`` from ``src/`` next to this directory,
builds the workload's inputs from ``--seed``, and repeats passes over them
for about ``--seconds`` seconds, timing every solver call from outside the
library and checking every output.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Details (environment, per-solve records, span aggregates
and spans) go to ``bench/out/``.  See ``bench/README.md``.
"""

import os

# one BLAS thread (at most nproc): steadier timings, and no thread start-up
# cost on the first solve; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 6  # fresh processes that repeat the set-up, besides this one


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="rpca-desk, dcopf-2bus or dcopf-radial141")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the inputs, then print the seconds taken")
    return parser.parse_args(argv)


def import_library():
    """Import the workloads (and with them numpy and bpladmm) from this checkout."""
    if not (SRC_DIR / "bpladmm" / "__init__.py").is_file():
        raise SystemExit(f"error: no bpladmm package under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import bpladmm
    import workloads

    if not Path(bpladmm.__file__).resolve().is_relative_to(SRC_DIR):
        raise SystemExit(f"error: bpladmm imported from {bpladmm.__file__}, not {SRC_DIR}")
    return workloads


def setup_probe_seconds(args) -> list[float]:
    """Set-up time of fresh processes: import bpladmm and build every input."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Run:
    """Solves, checks and timings of one benchmark invocation."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (input label, description)
        self.answers = {}  # input label -> answer of its first solve
        self.records = []

    def solve(self, item, clock=None):
        """Time one solve from outside the library, then check it.

        A solve that raises counts as failed, and the run goes on.  A
        ``clock`` also takes the solve's sweep latencies.
        """
        # every timed solve starts from the same collected heap
        gc.collect()
        if clock is not None:
            clock.start_solve()
        start = time.perf_counter()
        try:
            result = self.workload.solve(item)
        except Exception as exc:  # noqa: BLE001 - reported as a failed solve
            seconds = time.perf_counter() - start
            from workloads import Outcome

            outcome = Outcome({}, None, [f"raised {exc!r}"])
        else:
            end = time.perf_counter()
            seconds = end - start
            outcome = self.workload.check(item, result)
            if clock is not None:
                outcome.problems += self.check_clock(clock.end_solve(), outcome)
        problems = list(outcome.problems)
        first = self.answers.setdefault(item.label, outcome.answer)
        if outcome.answer != first:
            problems.append(f"answer {outcome.answer} differs from the first solve {first}")
        self.record_check(item.label, problems)
        self.records.append({"input": item.label, "seconds": seconds, "sweeps": outcome.sweeps,
                             "ok": not problems})
        return seconds, outcome

    def cross_check(self, item):
        """Run ``item`` through the CLI and compare its CSV row with this run's answer."""
        answer = self.answers[item.label]
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            try:
                problems = (["the benchmark's own solve raised"] if answer is None
                            else self.workload.cross_check(item, answer, tmp))
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                problems = [f"raised {exc!r}"]
        self.record_check(f"CLI {item.label}", problems)

    def check_clock(self, runs, outcome) -> list[str]:
        """The clock must see the sweeps the solvers report, run by run.

        A solve makes one run per reported solver, in order, then
        ``workload.unreported_runs`` runs (the frozen-u recheck) of its own.
        """
        reported = list(outcome.sweeps.values())
        expected_runs = len(reported) + self.workload.unreported_runs
        if runs[:len(reported)] == reported and len(runs) == expected_runs:
            return []
        return [f"sweep clock saw runs of {runs} sweeps, the solvers report {reported}: "
                "the clock points in sweepclock.py no longer match the library"]

    def record_check(self, label, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [(label, p) for p in problems]

    def passes(self, budget_s, tracer_factory=None, clock=None):
        """Repeat passes over every input for about ``budget_s`` seconds.

        Returns [(pass seconds, solve seconds, outcomes, tracer)]; the first
        pass always runs whole.  Traced passes run whole while another one
        fits in the budget, so that every traced pass makes the same calls.
        Clocked passes go on until the budget is spent, the last one cut
        short: a slow stretch must not shorten the time the sweep latencies
        are drawn from.
        """
        import sweepclock
        import tracing

        done = []
        start = time.perf_counter()
        while True:
            tracer = tracer_factory() if tracer_factory else None
            timed = []
            with tracing.installed(tracer), sweepclock.installed(clock):
                pass_start = time.perf_counter()
                for item in self.items:
                    if done and clock is not None and time.perf_counter() - start > budget_s:
                        break
                    timed.append(self.solve(item, clock))
                pass_s = time.perf_counter() - pass_start
            if timed:
                done.append((pass_s, [s for s, _ in timed], [o for _, o in timed], tracer))
            left = budget_s - (time.perf_counter() - start)
            if left <= (0 if clock is not None else statistics.median(p[0] for p in done)):
                return done


def environment(seed, warmup_gap_s) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "warmup_gap_s": warmup_gap_s,
    }


def blas_threads():
    """Threads the loaded OpenBLAS will use, or the pinned setting if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_start = time.perf_counter()
    workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.setup(args.seed)
        print(f"{time.perf_counter() - setup_start:.9f}")
        return 0

    import sweepclock
    import tracing

    setup_tracer = tracing.Tracer() if args.trace else None
    with tracing.installed(setup_tracer):
        items, info = workload.setup(args.seed)
    setup_samples = [time.perf_counter() - setup_start]
    if not args.trace:
        setup_samples += setup_probe_seconds(args)

    run = Run(workload, items)
    # the first solve in this process runs outside every measured pass
    warmup_s, _ = run.solve(items[0])
    clock = sweepclock.SweepClock()
    if args.trace:
        untraced = run.passes(args.seconds / 2, clock=clock)
        traced = run.passes(args.seconds / 2, tracing.Tracer)
    else:
        untraced = run.passes(args.seconds, clock=clock)
        traced = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment(args.seed, warmup_s - statistics.median(p[1][0] for p in untraced))

    OUT_DIR.mkdir(exist_ok=True)
    crosscheck_s = None
    if workload.cross_check is not None:
        start = time.perf_counter()
        run.cross_check(items[-1])  # the seeded input
        crosscheck_s = time.perf_counter() - start

    # the host's load moves whole-solve times by tens of percent from one
    # run to the next; the fastest 0.1% of each solver's sweeps hardly moves
    # (sweepclock.py), so that is the gated time
    kinds = [kind for kind in clock.size if clock.size[kind]]
    sweep_ms = {f"sweep_ms.p0.1.run{kind}": (clock.quantile(kind, 0.001) * 1e3, "ms")
                for kind in kinds}
    fastest = [min(p[1][k] for p in untraced if k < len(p[1])) for k in range(len(items))]
    end_to_end = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "sweep_ms.p0.1": (sum(v for v, _ in sweep_ms.values()), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "quality_loss": (workload.quality(untraced[0][2]), "1"),
    }
    # whole-solve times, each input at its fastest solve: printed and kept
    # in the details, too noisy here to gate
    solve_times = {
        "wall_s": (sum(fastest), "s"),
        "solve_s.p50": (statistics.median(fastest), "s"),
        "sweeps_per_s": (sum(sum_sweeps(untraced[0][2]).values()) / sum(fastest), "1/s"),
    }
    per_layer = {}
    if traced:
        tracers = [p[3] for p in traced]
        run.record_check("traced call counts", [
            f"traced pass {k} call counts differ from pass 0"
            for k, t in enumerate(tracers) if t.calls != tracers[0].calls])
        per_layer = tracing.layer_metrics(
            setup_tracer, tracers, [sum_sweeps(p[2]) for p in traced], info)
        traced_fastest = [min(p[1][k] for p in traced) for k in range(len(items))]
        per_layer["trace.overhead_s"] = (sum(traced_fastest) - sum(fastest), "s")

    failed_frac = run.failed / run.attempted
    print(f"{workload.name} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes over {len(items)} inputs; sweep_ms.p0.1 over {sum(clock.size.values())} "
          f"sweeps; wall_s, solve_s.p50 and sweeps_per_s from each input's fastest of up to "
          f"{len(untraced)} solves; setup_s over {len(setup_samples)} set-ups")
    print("environment " + json.dumps(env))
    print("inputs " + json.dumps(info))
    shown = dict(end_to_end, **sweep_ms, **solve_times, **per_layer)
    shown["failed_frac"] = (failed_frac, f"of {run.attempted}")
    shown[workload.quality_name] = (end_to_end["quality_loss"][0], "(quality_loss)")
    for name, (value, unit) in shown.items():
        print(f"  {name:<46} {value:.6g} {unit}")
    for label, problem in run.problems:
        print(f"  FAILED {label}: {problem}")

    details = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "inputs": info,
        "setup_samples_s": setup_samples, "warmup_s": warmup_s, "crosscheck_s": crosscheck_s,
        "passes_s": {"untraced": [p[0] for p in untraced], "traced": [p[0] for p in traced]},
        "clocked_sweeps": clock.size, "dropped_sweeps": clock.dropped,
        "sweep_ms": sweep_ms, "solve_times": solve_times,
        "sweep_ms_quantiles": {kind: {q: clock.quantile(kind, q) * 1e3 for q in (0.0, 0.001, 0.01, 0.5)}
                               for kind in kinds},
        "solves": run.records, "problems": run.problems, "failed_frac": failed_frac,
        "end_to_end": end_to_end, "per_layer": per_layer,
    }
    if traced:
        details["spans"] = {
            "setup": setup_tracer.aggregates(),
            "passes": [p[3].aggregates() for p in traced],
            "first_pass_spans": traced[0][3].spans,
            "first_pass_spans_dropped": traced[0][3].dropped_spans,
            "columns": ["id", "name", "start_s", "end_s", "parent_id"],
        }
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details))
    print(f"details in {path}")

    metrics = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def sum_sweeps(outcomes) -> dict:
    total = {}
    for outcome in outcomes:
        for solver, n in outcome.sweeps.items():
            total[solver] = total.get(solver, 0) + n
    return total


if __name__ == "__main__":
    sys.exit(main())
