"""Property tests of the engine's stacked sweep on random small radial
DC-OPF cases, against the plain per-block reference sweep of ``oracles``."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bpladmm import dcopf, engine  # noqa: E402
from oracles import dcopf_reference_sweep  # noqa: E402

SWEEPS = 20
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def random_radial_case(num_buses, seed):
    """A seeded radial feeder: bus k > 0 hangs off a uniformly drawn earlier bus."""
    rng = np.random.default_rng(seed)
    lines = tuple((int(rng.integers(0, k)), k, float(rng.uniform(2.0, 10.0)))
                  for k in range(1, num_buses))
    return dcopf.DcOpfCase(
        demand=rng.uniform(0.1, 0.8, num_buses),
        lines=lines,
        pv_cost=float(rng.uniform(0.5, 2.0)),
        gen_cost_a=rng.uniform(0.1, 0.5, num_buses),
        gen_cost_b=rng.uniform(0.01, 0.1, num_buses),
        gen_cost_c=rng.uniform(0.0, 0.5, num_buses),
        pv_capacity=float(rng.uniform(0.3, 1.0)),
        gen_capacity=rng.uniform(0.5, 5.0, num_buses),
        line_limit=float(rng.uniform(0.3, 2.0)),
        gamma=float(rng.uniform(1.0, 80.0)),
        eta=float(10.0 ** rng.uniform(3.0, 5.0)),
    )


def make_run(num_buses, case_seed, jitter_seed):
    case = random_radial_case(num_buses, case_seed)
    rho = 2.0 * case.eta + 1e-10
    block_problem = dcopf.DcOpfBlockProblem(dcopf.build_problem(case), rho=rho, alpha=1e-2)
    params = dcopf.solver_params_for(case, rho=rho, alpha=1e-2, tol=0.0, max_iterations=SWEEPS)
    state = dcopf.lower_bound_init(block_problem, jitter=0.1, seed=jitter_seed)
    return block_problem, params, state


CASES = dict(num_buses=st.integers(2, 8), case_seed=st.integers(0, 2**32 - 1),
             jitter_seed=st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(**CASES)
def test_one_step_matches_the_reference_sweep(num_buses, case_seed, jitter_seed):
    block_problem, params, state = make_run(num_buses, case_seed, jitter_seed)
    new = engine.step(block_problem, params, state)
    ref_x, ref_y, ref_z = dcopf_reference_sweep(block_problem, list(state.x), state.y, state.z)
    for name, mine, reference in (("x", new.x, np.array(ref_x)), ("y", new.y, ref_y),
                                  ("z", new.z, ref_z)):
        assert mine.shape == reference.shape
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(mine - reference)) <= 1e-12 * scale, name


@PROPERTY_SETTINGS
@given(**CASES)
def test_merit_is_nonincreasing_over_twenty_sweeps(num_buses, case_seed, jitter_seed):
    block_problem, params, state = make_run(num_buses, case_seed, jitter_seed)
    result = engine.solve(block_problem, params, state)
    assert result.iterations == SWEEPS
    merits = [r.merit for r in result.reports]
    slack = 1e-8 * (1.0 + abs(merits[1]))  # acceptance criterion 5's slack
    assert all(later - earlier <= slack for earlier, later in zip(merits[1:], merits[2:]))
