"""Seeded synthetic radial feeder written as MATPOWER case text.

MATPOWER's ``case141.m`` is not shipped with the repository, so the
141-bus workload runs on a deterministic stand-in with the same shape: a
tree of N buses and N - 1 branches, small per-bus demands, one generator
at the root, and a quadratic polynomial cost.
"""

import numpy as np

BASE_MVA = 10.0


def radial_case_text(num_buses: int, seed: int) -> str:
    """MATPOWER text of a seeded radial feeder with ``num_buses`` buses.

    Bus k > 1 extends the feeder from bus k - 1 with probability 0.7 and
    otherwise starts a lateral at a uniformly chosen earlier bus.
    """
    if num_buses < 2:
        raise ValueError("a feeder needs at least two buses")
    rng = np.random.default_rng(seed)
    parents = [
        k - 1 if rng.random() < 0.7 else int(rng.integers(1, k))
        for k in range(2, num_buses + 1)
    ]
    demand_mw = np.r_[0.0, rng.uniform(0.01, 0.05, num_buses - 1)]
    reactance = rng.uniform(0.02, 0.2, num_buses - 1)
    c2, c1, c0 = rng.uniform(0.01, 0.05), rng.uniform(10.0, 30.0), rng.uniform(0.5, 2.0)

    lines = [
        f"function mpc = synthetic_radial_{num_buses}_seed{seed}",
        "mpc.version = '2';",
        f"mpc.baseMVA = {BASE_MVA:.17g};",
        "%% bus_i type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin",
        "mpc.bus = [",
    ]
    for k in range(1, num_buses + 1):
        bus_type = 3 if k == 1 else 1
        lines.append(f"\t{k}\t{bus_type}\t{demand_mw[k - 1]:.17g}\t0\t0\t0\t1\t1\t0\t12.66\t1\t1.1\t0.9;")
    lines += [
        "];",
        "%% bus Pg Qg Qmax Qmin Vg mBase status Pmax Pmin",
        "mpc.gen = [",
        f"\t1\t0\t0\t10\t-10\t1\t{BASE_MVA:.17g}\t1\t50\t0;",
        "];",
        "%% fbus tbus r x b rateA rateB rateC ratio angle status angmin angmax",
        "mpc.branch = [",
    ]
    for k, (parent, x) in enumerate(zip(parents, reactance), start=2):
        lines.append(f"\t{parent}\t{k}\t{x / 4:.17g}\t{x:.17g}\t0\t0\t0\t0\t0\t0\t1\t-360\t360;")
    lines += [
        "];",
        "%% model startup shutdown n c2 c1 c0",
        "mpc.gencost = [",
        f"\t2\t0\t0\t3\t{c2:.17g}\t{c1:.17g}\t{c0:.17g};",
        "];",
    ]
    return "\n".join(lines) + "\n"
