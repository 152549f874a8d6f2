"""Property test of x-oracle optimality: on random radial DC-OPF cases (the
whole model and a frozen-u one) and random robust PCA blocks, each output of
``solve_x_block`` scores no higher in ``oracles.x_subproblem_value`` than
the incumbent iterate or small random perturbations of the output."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bpladmm import dcopf, rpca  # noqa: E402
from oracles import x_subproblem_value  # noqa: E402
from test_sweep_properties import random_radial_case  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
PERTURBATIONS = 8
SEEDS = st.integers(0, 2**32 - 1)


def random_data(rng, problem):
    """The arguments of ``solve_x_block`` after i: standard normal vectors,
    a penalty rho in [0.1, 1e4] and a proximal weight in [1e-3, 10], both
    log-uniform."""
    x_i, linear_i = (rng.standard_normal(problem.block_shape) for _ in range(2))
    z, partial_residual = (rng.standard_normal(problem.b.shape) for _ in range(2))
    rho = float(10.0 ** rng.uniform(-1.0, 4.0))
    return x_i, linear_i, z, partial_residual, rho, float(10.0 ** rng.uniform(-3.0, 1.0))


def assert_oracle_optimal(problem, rng):
    """Every block's oracle output beats its incumbent and perturbations of
    itself of relative size 1e-6 to 1e-2, up to rounding of the values."""
    for i in range(problem.num_blocks):
        data = random_data(rng, problem)
        out = problem.solve_x_block(i, *data)
        best = x_subproblem_value(problem, i, out, *data)
        slack = 1e-12 * (1.0 + abs(best))
        assert best <= x_subproblem_value(problem, i, data[0], *data) + slack, i
        scale = 1.0 + float(np.max(np.abs(out)))
        for size in 10.0 ** rng.uniform(-6.0, -2.0, PERTURBATIONS):
            direction = rng.standard_normal(out.shape)
            nearby = out + size * scale * direction / np.linalg.norm(direction)
            assert best <= x_subproblem_value(problem, i, nearby, *data) + slack, (i, size)


@PROPERTY_SETTINGS
@given(num_buses=st.integers(2, 8), case_seed=SEEDS, ctx_seed=SEEDS,
       u_seed=st.none() | SEEDS)
def test_dcopf_x_oracle_is_optimal(num_buses, case_seed, ctx_seed, u_seed):
    # u_seed None tests the whole problem, an integer the frozen-u one of a random placement
    problem = dcopf.build_problem(random_radial_case(num_buses, case_seed))
    if u_seed is not None:
        u = np.random.default_rng(u_seed).integers(0, 2, num_buses).astype(float)
        problem = dcopf.frozen_u_problem(problem, u)
    assert_oracle_optimal(problem, np.random.default_rng(ctx_seed))


@PROPERTY_SETTINGS
@given(rows=st.integers(2, 8), cols=st.integers(2, 8), rank_share=st.floats(0.0, 1.0),
       seed=SEEDS)
def test_rpca_x_oracle_is_optimal(rows, cols, rank_share, seed):
    rank = 1 + int(rank_share * (min(rows, cols) - 1))
    instance = rpca.generate_instance(rows, cols, rank, 0.2, 1e-2, seed)
    problem = rpca.RpcaBlockProblem(instance, rpca.RpcaConfig(rows=rows, cols=cols))
    assert_oracle_optimal(problem, np.random.default_rng(seed + 1))
