"""Time the sweeps of two checkouts of the library side by side.

    python3 tools/sweep_ab.py SRC_A SRC_B [--sweeps N]

Each SRC holds a ``bpladmm`` package.  Both are imported into this one
process, as the packages ``bpladmm_a`` and ``bpladmm_b``; that works
because the package imports its own modules only relatively.  On each
problem below, both trees start from the same inputs and take N sweeps of
their own engine, alternating one sweep of each, the first tree to go
switching every sweep.  A sweep is what ``engine.run`` does per loop and
what the benchmark's sweep clock times from one ``engine.step`` call to
the next: ``engine.step`` and then the stop rule ``engine.stopped`` on
its report.  The problems are:

- ``radial141`` and ``radial1000``: the seeded radial 141- and 1000-bus
  feeders of ``bench/radial.py`` (feeder seed 0, p = 1550 and 10999);
- ``2bus``: the two-bus fixture, from the jitter-0.1 start of seed 0;
- ``2bus-frozen-u``: its frozen-u problem at the placement u = (1, 0), from
  the zero start;
- ``rpca-bpl`` and ``rpca-plain``: ``RpcaBlockProblem`` and
  ``PlainRpcaBlockProblem`` on the 100x100 instance of seed 0, from the
  start ``bpl_admm_rpca`` and ``admm3_baseline`` use, with their
  parameters.

It prints, per problem, each tree's 0.1% quantile of its sweep latencies,
their ratio B/A, whether the two trees' iterates (x, y, z, residual),
report fields and stop decisions stayed bit-equal over every sweep (the
run goes on after a stop), and the worst scaled gap
max|a - b| / max(1, max|a|) of those iterates over all sweeps.  The gap
tells a change of rounding from a wrong one: a reordered but exact update
stays far below 1e-10 over 2000 sweeps of these problems.  The host's
speed can move by up to 2x between separate runs, so two trees are
compared only inside one run, where both meet the same host states.
"""

import argparse
import importlib
import importlib.util
import sys
from dataclasses import astuple
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from radial import radial_case_text  # noqa: E402

QUANTILE = 0.001
SUBMODULES = ("engine", "dcopf", "matpower", "rpca", "cli")


def load_tree(src: str, name: str) -> dict:
    """The submodules of the ``bpladmm`` package under ``src``, imported as
    the package ``name``; an earlier import under that name is replaced."""
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    init = Path(src).resolve() / "bpladmm" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {sub: importlib.import_module(f"{name}.{sub}") for sub in SUBMODULES}


def problems(tree: dict) -> dict:
    """Problem name -> (problem, params, initial state), built with ``tree``."""
    dcopf, engine, matpower, rpca = (tree[m] for m in ("dcopf", "engine", "matpower", "rpca"))
    out = {}
    for buses in (141, 1000):
        radial = matpower.to_dcopf_case(matpower.parse_case(radial_case_text(buses, 0)))
        problem = dcopf.build_problem(radial)
        out[f"radial{buses}"] = (problem, dcopf.solver_params_for(radial, tol=0.0),
                                 dcopf.lower_bound_init(problem))
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    params = dcopf.solver_params_for(case)
    out["2bus"] = (problem, params, dcopf.lower_bound_init(problem, jitter=0.1, seed=0))
    frozen = dcopf.frozen_u_problem(problem, np.array([1.0, 0.0]))
    out["2bus-frozen-u"] = (frozen, params, dcopf.lower_bound_init(frozen))
    instance = rpca.generate_instance(100, 100, 10, 0.05, 1e-2, seed=0)
    config = rpca.RpcaConfig(rows=100, cols=100)
    plain = engine.SolverParams(rho=2.0, lipschitz_H=config.gamma, strong_convexity=0.0)
    for label, model, params in (("rpca-bpl", rpca.RpcaBlockProblem, config.solver_params()),
                                 ("rpca-plain", rpca.PlainRpcaBlockProblem, plain)):
        problem = model(instance, config)
        # the init seed the CLI and the benchmark draw for instance seed 0
        out[label] = (problem, params, rpca._initial_state(problem, tree["cli"].INIT_SEED_OFFSET))
    return out


ITERATE = ("x", "y", "z", "residual")


def same_iterate(a, b) -> bool:
    return (all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ITERATE)
            and astuple(a.report) == astuple(b.report))


def scaled_gap(a, b) -> float:
    """The worst max|a - b| / max(1, max|a|) over the iterate's arrays."""
    return max(float(np.max(np.abs(getattr(a, f) - getattr(b, f))))
               / max(1.0, float(np.max(np.abs(getattr(a, f))))) for f in ITERATE)


def race(engine_a, engine_b, a: tuple, b: tuple, sweeps: int) -> tuple:
    """Alternate ``sweeps`` sweeps of each tree, each a step and the stop
    rule on it; returns (latencies of A, latencies of B, whether every pair
    of iterates and stop decisions was bit-equal, the worst scaled gap
    between the iterates)."""
    engines, runs = (engine_a, engine_b), (list(a), list(b))
    stops = [None, None]
    times = np.empty((2, sweeps))
    equal, gap = True, 0.0
    for k in range(sweeps):
        for side in (k % 2, 1 - k % 2):
            engine, (problem, params, state) = engines[side], runs[side]
            start = perf_counter()
            new = engine.step(problem, params, state)
            stops[side] = engine.stopped(params, state, new.report)
            times[side, k] = perf_counter() - start
            runs[side][2] = new
        state_a, state_b = runs[0][2], runs[1][2]
        equal = equal and stops[0] == stops[1] and same_iterate(state_a, state_b)
        gap = max(gap, scaled_gap(state_a, state_b))
    return times[0], times[1], equal, gap


def compare(src_a: str, src_b: str, sweeps: int) -> list[tuple]:
    """(problem, A's quantile in ms, B's quantile in ms, bit-equal, worst
    scaled gap) per problem."""
    tree_a, tree_b = load_tree(src_a, "bpladmm_a"), load_tree(src_b, "bpladmm_b")
    built_a, built_b = problems(tree_a), problems(tree_b)
    rows = []
    for name in built_a:
        time_a, time_b, equal, gap = race(tree_a["engine"], tree_b["engine"],
                                          built_a[name], built_b[name], sweeps)
        rows.append((name, 1e3 * np.quantile(time_a, QUANTILE),
                     1e3 * np.quantile(time_b, QUANTILE), equal, gap))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", metavar="SRC_A")
    parser.add_argument("src_b", metavar="SRC_B")
    parser.add_argument("--sweeps", type=int, default=2000,
                        help="sweeps of each tree per problem (default 2000)")
    args = parser.parse_args(argv)
    print(f"{'problem':<14} {'A p0.1 ms':>10} {'B p0.1 ms':>10} {'B/A':>6}  bit-equal"
          f"  {'worst gap':>9}")
    for name, ms_a, ms_b, equal, gap in compare(args.src_a, args.src_b, args.sweeps):
        print(f"{name:<14} {ms_a:>10.4f} {ms_b:>10.4f} {ms_b / ms_a:>6.3f}  "
              f"{'yes' if equal else 'NO':>9}  {gap:>9.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
