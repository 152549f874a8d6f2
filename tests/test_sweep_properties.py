"""Property tests on random small radial DC-OPF cases: the compact assembly
against the dense row-by-row oracle, and the engine's stacked sweep against
the plain per-block reference sweep of ``oracles``."""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bpladmm import dcopf, engine  # noqa: E402
from oracles import (  # noqa: E402
    dcopf_reference_sweep,
    dense_frozen_problem,
    dense_reference_problem,
    random_radial_case,
)

SWEEPS = 20
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def with_cancelled_line(case):
    """``case`` plus a parallel line of opposite susceptance to its last
    one, which leaves the two buses' line rows all zero."""
    i, j, susceptance = case.lines[-1]
    return replace(case, lines=case.lines + ((j, i, -susceptance),))


def make_run(num_buses, case_seed, jitter_seed, cancelled_line=False, u_frozen=None):
    """A problem, its parameters and a jittered start; with
    ``u_frozen`` the problem is the frozen-u one of that placement."""
    case = random_radial_case(num_buses, case_seed)
    if cancelled_line:
        case = with_cancelled_line(case)
    problem = dcopf.build_problem(case)
    if u_frozen is not None:
        problem = dcopf.frozen_u_problem(problem, u_frozen)
    params = dcopf.solver_params_for(case, tol=0.0, max_iterations=SWEEPS)
    state = dcopf.lower_bound_init(problem, jitter=0.1, seed=jitter_seed)
    return problem, params, state


# the x sweep runs in chunks of 8 buses, so cases reach into a third chunk
CASES = dict(num_buses=st.integers(2, 20), case_seed=st.integers(0, 2**32 - 1),
             jitter_seed=st.integers(0, 2**32 - 1))
# a full chunk, one bus past it, two full chunks and one bus past them
CHUNK_EDGES = (8, 9, 16, 17)


def at_chunk_edges(**fixed):
    """``hypothesis.example``s at every size of ``CHUNK_EDGES``, with ``fixed``."""
    def decorate(test):
        for num_buses in CHUNK_EDGES:
            test = example(num_buses=num_buses, case_seed=num_buses, jitter_seed=1,
                           **fixed)(test)
        return test
    return decorate


def assert_step_matches_the_reference_sweep(problem, params, state, u_frozen):
    """One engine step from ``state`` gives the reference sweep's (x, y, z)
    to 1e-12 of each one's largest entry (or 1), and its carried residual
    is the dense A x + y - b to 1e-12 of the largest of 1, the dense
    residual and the start's z/rho, which the x pass adds and takes off."""
    new = engine.step(problem, params, state)
    ref_x, ref_y, ref_z = dcopf_reference_sweep(problem, params, list(state.x), state.y,
                                                 state.z, u_frozen)
    for name, mine, reference in (("x", new.x, np.array(ref_x)), ("y", new.y, ref_y),
                                  ("z", new.z, ref_z)):
        assert mine.shape == reference.shape
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(mine - reference)) <= 1e-12 * scale, name
    if u_frozen is None:
        A, b = dense_reference_problem(problem.case)
    else:
        A, b = dense_frozen_problem(problem.case, u_frozen)
    dense = sum(Ai @ xi for Ai, xi in zip(A, new.x)) + new.y - b
    scale = max(1.0, float(np.max(np.abs(state.z))) / params.rho, float(np.max(np.abs(dense))))
    assert np.max(np.abs(new.residual - dense)) <= 1e-12 * scale, "residual"


def random_placement(num_buses, u_seed):
    """None for u_seed None (the whole problem), else a random 0/1 placement."""
    return (None if u_seed is None else
            np.random.default_rng(u_seed).integers(0, 2, num_buses).astype(float))


@PROPERTY_SETTINGS
@given(**CASES, cancelled_line=st.booleans(), u_seed=st.none() | st.integers(0, 2**32 - 1))
@at_chunk_edges(cancelled_line=False, u_seed=None)
@at_chunk_edges(cancelled_line=True, u_seed=7)
def test_one_step_matches_the_reference_sweep(num_buses, case_seed, jitter_seed,
                                              cancelled_line, u_seed):
    u_frozen = random_placement(num_buses, u_seed)
    problem, params, state = make_run(num_buses, case_seed, jitter_seed, cancelled_line,
                                      u_frozen)
    assert_step_matches_the_reference_sweep(problem, params, state, u_frozen)


@PROPERTY_SETTINGS
@given(**CASES, u_seed=st.none() | st.integers(0, 2**32 - 1), z_seed=st.integers(0, 2**32 - 1),
       magnitude=st.floats(1e2, 1e6))
@at_chunk_edges(u_seed=None, z_seed=0, magnitude=1e6)
def test_one_step_from_a_large_multiplier_matches_the_reference_sweep(
        num_buses, case_seed, jitter_seed, u_seed, z_seed, magnitude):
    # z/rho is ``magnitude`` times the start's largest residual entry, so in
    # the z/rho + r that the x pass carries, r sits far below z/rho
    u_frozen = random_placement(num_buses, u_seed)
    problem, params, state = make_run(num_buses, case_seed, jitter_seed, u_frozen=u_frozen)
    state.z = (params.rho * magnitude * max(1.0, float(np.max(np.abs(state.residual))))
               * np.random.default_rng(z_seed).standard_normal(problem.p))
    assert_step_matches_the_reference_sweep(problem, params, state, u_frozen)


@PROPERTY_SETTINGS
@given(**CASES)
@at_chunk_edges()
def test_merit_is_nonincreasing_over_twenty_sweeps(num_buses, case_seed, jitter_seed):
    problem, params, state = make_run(num_buses, case_seed, jitter_seed)
    result = engine.solve(problem, params, state)
    assert result.iterations == SWEEPS
    merits = [r.merit for r in result.reports]
    slack = 1e-8 * (1.0 + abs(merits[1]))  # acceptance criterion 5's slack
    assert all(later - earlier <= slack for earlier, later in zip(merits[1:], merits[2:]))


def within_rounding(mine, reference):
    """Entrywise agreement to 1e-12 of the reference's largest entry (or 1)."""
    scale = max(1.0, float(np.max(np.abs(reference))))
    return np.max(np.abs(mine - reference)) <= 1e-12 * scale


def assert_blocks_match(problem, A, b, rng):
    """``problem`` holds the dense blocks ``A`` and right-hand side ``b``,
    each block exactly on its nonzero rows, and at a random (x, y) drawn
    from ``rng`` its A_i x_i and A x + y - b are the dense ones on every row."""
    assert np.array_equal(problem.b, b)
    x = rng.standard_normal((len(A), A[0].shape[1]))
    y = rng.standard_normal(len(b))
    for i, dense in enumerate(A):
        rows = np.flatnonzero(np.any(dense != 0.0, axis=1))
        assert np.array_equal(problem.rows[i], rows), i
        assert np.array_equal(problem.blocks[i], dense[rows]), i
        assert np.array_equal(problem.A[i], dense), i
        assert within_rounding(problem.apply_A(i, x[i]), dense @ x[i]), i
    dense_residual = sum(Ai @ xi for Ai, xi in zip(A, x)) + y - b
    assert within_rounding(engine.constraint_residual(problem, x, y), dense_residual)


@PROPERTY_SETTINGS
@given(num_buses=CASES["num_buses"], case_seed=CASES["case_seed"],
       u_seed=st.integers(0, 2**32 - 1), cancelled_line=st.booleans())
def test_assembly_matches_the_dense_row_by_row_oracle(num_buses, case_seed, u_seed,
                                                      cancelled_line):
    case = random_radial_case(num_buses, case_seed)
    if cancelled_line:
        case = with_cancelled_line(case)
    problem = dcopf.build_problem(case)
    A, b = dense_reference_problem(case)
    assert dcopf.expected_row_count(case) == len(b)  # the formula against the rows written
    rng = np.random.default_rng(u_seed)
    u = rng.integers(0, 2, num_buses).astype(float)
    assert_blocks_match(problem, A, b, rng)
    U = dcopf.U
    assert_blocks_match(dcopf.frozen_u_problem(problem, u), [Ai[:, :U] for Ai in A],
                        b - sum(Ai[:, U] * ui for Ai, ui in zip(A, u)), rng)


@PROPERTY_SETTINGS
@given(num_buses=CASES["num_buses"], case_seed=CASES["case_seed"],
       u_seed=st.none() | st.integers(0, 2**32 - 1), xy_seed=st.integers(0, 2**32 - 1),
       cancelled_line=st.booleans())
def test_stacked_residual_matches_the_per_block_sum(num_buses, case_seed, u_seed, xy_seed,
                                                    cancelled_line):
    # the DC-OPF override against the engine's default sum of apply_A products
    case = random_radial_case(num_buses, case_seed)
    if cancelled_line:
        case = with_cancelled_line(case)
    problem = dcopf.build_problem(case)
    u_frozen = random_placement(num_buses, u_seed)
    if u_frozen is not None:
        problem = dcopf.frozen_u_problem(problem, u_frozen)
    rng = np.random.default_rng(xy_seed)
    x = rng.standard_normal((num_buses, *problem.block_shape))
    y = rng.standard_normal(problem.p)
    assert within_rounding(problem.residual(x, y), engine.BlockProblem.residual(problem, x, y))
