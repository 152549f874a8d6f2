"""Sweep latencies, clocked from outside the library.

On a shared machine the host runs a process in a fast or a slow state,
1.3-1.6x apart, switching every few seconds to half a minute, so the time
of a whole solve (0.3-3 s) moves with the mix of states it falls in.
Single sweeps (0.1-15 ms) are short enough that some of them, in nearly
every run, fall in the fast state, so a low quantile of many sweep
latencies stays put where solve times do not.

The clock wraps, for the length of an untraced pass, the function each
solver calls once per sweep, under the name its caller looks up:
``engine.step`` for engine solves and ``rpca.soft_shrink`` for the RPCA
solvers.  ``engine.solve`` and the two RPCA solvers start a new *run*.
The latency of a sweep is the time from its call to the next call in the
same run: the solver's whole loop body, bookkeeping included.  Runs are
told apart by their place in the solve (``kind``): on ``rpca-desk`` run 0
is BPL-ADMM and run 1 admm3; on ``dcopf-2bus`` run 0 is the main solve
and run 1 the frozen-u recheck.
"""

import contextlib
from time import perf_counter

import numpy as np

from bpladmm import engine, rpca

import tracing

# (owner, attribute, what a call marks)
CLOCK_POINTS = [
    (engine, "solve", "run"),
    (engine, "step", "sweep"),
    (rpca, "bpl_admm_rpca", "run"),
    (rpca, "admm3_baseline", "run"),
    (rpca, "soft_shrink", "sweep"),
]


class SweepClock:
    """Sweep latencies by kind, in storage of a fixed size.

    Each kind's storage is written in full when the kind first appears, so
    the process's peak resident memory does not depend on how many sweeps
    fit in a run.
    """

    def __init__(self, capacity: int = 1_000_000):
        self.capacity = capacity
        self.runs = []  # stamps of each run of the current solve
        self.latency = {}  # kind -> seconds, nan past the end
        self.size = {}  # kind -> latencies stored
        self.dropped = 0

    def wrap(self, mark, fn):
        runs = self.runs

        def clocked(*args, **kwargs):
            if mark == "run":
                runs.append([])
            elif runs:
                runs[-1].append(perf_counter())
            return fn(*args, **kwargs)

        clocked.__wrapped__ = fn
        return clocked

    def start_solve(self):
        self.runs.clear()

    def end_solve(self) -> list[int]:
        """Store the latencies of the solve just ended; returns its sweeps per run.

        Runs without a sweep are dropped, so a solver entry point that
        hands its work to ``engine.solve`` counts once.
        """
        self.runs[:] = [stamps for stamps in self.runs if stamps]
        for kind, stamps in enumerate(self.runs):
            gaps = np.diff(stamps)
            if kind not in self.latency:
                self.latency[kind] = np.full(self.capacity, np.nan)
                self.size[kind] = 0
            start = self.size[kind]
            kept = gaps[: self.capacity - start]
            self.latency[kind][start:start + len(kept)] = kept
            self.size[kind] += len(kept)
            self.dropped += len(gaps) - len(kept)
        sweeps = [len(stamps) for stamps in self.runs]
        self.runs.clear()
        return sweeps

    def quantile(self, kind, q) -> float:
        return float(np.quantile(self.latency[kind][: self.size[kind]], q))


@contextlib.contextmanager
def installed(clock):
    """Route every clock point through ``clock``; restore on exit.

    With ``clock`` None nothing is patched.
    """
    if clock is None:
        yield
        return
    with tracing.patched(CLOCK_POINTS, lambda fn, mark: clock.wrap(mark, fn)):
        yield
