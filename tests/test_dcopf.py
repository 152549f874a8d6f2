from dataclasses import replace

import numpy as np
import pytest

from bpladmm import dcopf, engine
from oracles import finite_difference_gradient, golden_section, newton_fd

REL = 1e-10
TWO_PI = 2.0 * np.pi


def expected_two_bus_matrices(case):
    """The 21-row constraint system of a two-bus network, written out by
    hand in the documented row order."""
    d1, d2 = case.demand
    b12 = case.lines[0][2]
    pv = case.pv_capacity
    g1, g2 = case.gen_capacity
    lim = case.line_limit
    A1 = np.array([
        [-1, -1, b12, 0],
        [0, 0, -b12, 0],
        [-1, 0, 0, 0],
        [0, 0, b12, 0],
        [0, 0, -b12, 0],
        [1, 0, 0, -pv],
        [-1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 1, 0, 0],
        [0, -1, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, -1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, -1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ], dtype=float)
    A2 = np.array([
        [0, 0, -b12, 0],
        [-1, -1, b12, 0],
        [-1, 0, 0, 0],
        [0, 0, -b12, 0],
        [0, 0, b12, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 0, -pv],
        [-1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 1, 0, 0],
        [0, -1, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, -1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, -1, 0],
    ], dtype=float)
    b = np.array([
        -d1, -d2, -(d1 + d2) / 2.0, lim, lim,
        0, 0, 0, 0,
        g1, 0, g2, 0,
        1, 0, 1, 0,
        TWO_PI, 0, TWO_PI, 0,
    ], dtype=float)
    return A1, A2, b


def test_two_bus_constraint_matrices_entry_for_entry():
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    A1, A2, b = expected_two_bus_matrices(case)
    assert problem.p == 21
    assert np.array_equal(problem.A[0], A1)
    assert np.array_equal(problem.A[1], A2)
    assert np.array_equal(problem.b, b)


def test_row_count_formula():
    case = dcopf.two_bus_fixture()
    assert dcopf.expected_row_count(case) == 9 * 2 + 2 + 1 == 21


def test_constraint_blocks_have_full_column_rank():
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    for A in problem.A:
        assert np.linalg.matrix_rank(A) == 4


def test_build_problem_rejects_bad_cases():
    case = dcopf.two_bus_fixture()
    bad_line = dcopf.DcOpfCase(
        **{**case.__dict__, "lines": ((0, 5, 1.0),)}
    )
    with pytest.raises(ValueError, match="endpoint"):
        dcopf.build_problem(bad_line)
    bad_cap = dcopf.DcOpfCase(
        **{**case.__dict__, "gen_capacity": np.array([-1.0, 0.0])}
    )
    with pytest.raises(ValueError, match="nonnegative"):
        dcopf.build_problem(bad_cap)


def test_adjoint_identity_for_assembled_operators(rng):
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    block_problem = dcopf.DcOpfBlockProblem(problem, rho=2.0 * case.eta + 1e-10, alpha=1e-2)
    assert engine.check_adjoints(block_problem, rng, tol=1e-12) <= 1e-12


def small_radial_case():
    """A six-bus radial feeder: bus 0 is the substation, buses 2, 4 and 5 leaves."""
    return dcopf.DcOpfCase(
        demand=np.array([0.0, 0.5, 0.3, 0.4, 0.2, 0.6]),
        lines=((0, 1, 8.0), (1, 2, 6.0), (1, 3, 5.0), (3, 4, 7.0), (3, 5, 4.0)),
        pv_cost=1.0,
        gen_cost_a=np.array([0.1, 0.3, 0.3, 0.2, 0.4, 0.3]),
        gen_cost_b=np.full(6, 0.05),
        gen_cost_c=np.full(6, 0.2),
        pv_capacity=0.6,
        gen_capacity=np.array([4.0, 1.0, 0.5, 1.0, 0.5, 0.5]),
        line_limit=1.5,
        gamma=10.0,
        eta=1e3,
    )


def block_problem_for(case):
    rho = 2.0 * case.eta + 1e-10
    problem = dcopf.build_problem(case)
    block_problem = dcopf.DcOpfBlockProblem(problem, rho=rho, alpha=1e-2)
    params = dcopf.solver_params_for(case, rho=rho, alpha=1e-2, tol=1e-5, max_iterations=300)
    return problem, block_problem, params


CASES = [pytest.param(dcopf.two_bus_fixture, id="two-bus"),
         pytest.param(small_radial_case, id="radial6")]


@pytest.mark.parametrize("make_case", CASES)
def test_compact_blocks_scatter_back_to_the_dense_blocks(make_case, rng):
    problem, block_problem, params = block_problem_for(make_case())
    for i, A in enumerate(problem.A):
        rows = block_problem.block_rows(i)
        assert np.array_equal(rows, np.unique(rows))
        compact = np.column_stack([block_problem.apply_A(i, e) for e in np.eye(4)])
        full = np.zeros_like(A)
        full[rows] = compact
        assert np.array_equal(full, A)
        assert not np.delete(A, rows, axis=0).any()
        # the oracle on the block's rows matches the dense update on every row
        partial = rng.standard_normal(problem.p)
        multiplier = rng.standard_normal(problem.p)
        ctx = tame_block_context(rng, rho=params.rho)
        dense = dcopf.x_block_update(
            replace(ctx, block_index=i, multiplier=multiplier, partial_residual=partial),
            problem.Q[i], problem.q[i], A, block_problem.alpha)
        on_rows = block_problem.solve_x_block(
            i, replace(ctx, block_index=i, multiplier=multiplier[rows],
                       partial_residual=partial[rows]))
        assert np.allclose(on_rows, dense, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("make_case", CASES)
def test_carried_residual_matches_a_fresh_one(make_case):
    # The residual is a difference of O(1) terms (b, B y, A x), so each
    # entry carries rounding of the terms' size: gaps are scaled by
    # max(1, max|fresh|).
    _, block_problem, params = block_problem_for(make_case())
    state = dcopf.lower_bound_init(block_problem, jitter=0.1, seed=3)
    for _ in range(50):
        previous = state.residual.copy()
        new_state = engine.step(block_problem, params, state)
        assert np.array_equal(state.residual, previous)  # the old state's is left alone
        state = new_state
        fresh = engine.constraint_residual(block_problem, state.x, state.y)
        scale = max(1.0, float(np.max(np.abs(fresh))))
        assert np.max(np.abs(state.residual - fresh)) <= 1e-12 * scale


@pytest.mark.parametrize("make_case", CASES)
def test_stationarity_report_of_a_result_uses_its_own_residual(make_case):
    _, block_problem, params = block_problem_for(make_case())
    result = engine.solve(block_problem, params,
                          dcopf.lower_bound_init(block_problem, jitter=0.1, seed=3))
    final = result.state
    carried = engine.stationarity_report(block_problem, params, final)
    fresh = engine.stationarity_report(
        block_problem, params, engine.initial_state(block_problem, final.x, final.y, final.z))
    assert carried.dual_y == fresh.dual_y
    assert carried.feasibility == fresh.feasibility
    assert carried.x_fixed_point == pytest.approx(fresh.x_fixed_point, rel=1e-9)


def test_placement_gradient_values_and_finite_differences(rng):
    gamma = 80.0
    x = [np.array([0.0, 0.0, 0.0, 0.5]), np.array([0.0, 0.0, 0.0, 1.0])]
    grads = dcopf.g_gradient(x, gamma)
    assert grads[0][dcopf.U] == 0.0
    assert grads[1][dcopf.U] == pytest.approx(gamma, rel=REL)
    assert all(g[: dcopf.U].sum() == 0.0 for g in grads)

    def penalty(u):
        return gamma * float(np.sum(u * u - u))

    x = [rng.standard_normal(4) for _ in range(3)]
    u = np.array([xi[dcopf.U] for xi in x])
    numeric = finite_difference_gradient(penalty, u)
    grads = dcopf.g_gradient(x, gamma)
    assert np.allclose([g[dcopf.U] for g in grads], numeric, atol=1e-6)


def tame_block_context(rng, rho=2.0, mu=1.0):
    return engine.XBlockContext(
        block_index=0,
        current_iterate=rng.standard_normal(4),
        linear_term=rng.standard_normal(4),
        multiplier=rng.standard_normal(21),
        partial_residual=rng.standard_normal(21),
        rho=rho,
        mu=mu,
        bregman=None,
    )


def test_x_block_update_matches_newton_oracle(rng):
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    alpha = 0.5
    for i in range(2):
        ctx = tame_block_context(rng)
        out = dcopf.x_block_update(ctx, problem.Q[i], problem.q[i], problem.A[i], alpha)

        def objective(x, i=i, ctx=ctx):
            coupling = problem.A[i] @ x + ctx.partial_residual
            return (
                0.5 * x @ problem.Q[i] @ x
                + problem.q[i] @ x
                + float(np.vdot(ctx.linear_term, x))
                + float(np.vdot(ctx.multiplier, problem.A[i] @ x))
                + 0.5 * ctx.rho * float(np.vdot(coupling, coupling))
                + 0.5 * ctx.mu * alpha * float(np.vdot(x - ctx.current_iterate, x - ctx.current_iterate))
            )

        reference = newton_fd(objective, np.zeros(4))
        assert np.allclose(out, reference, atol=1e-8)


def test_x_block_update_decoupled_case(rng):
    # rho = 0 and no quadratic cost leaves x = (alpha x_n - q) / alpha
    alpha = 0.25
    q = np.array([0.0, 0.3, 0.0, 1.0])
    ctx = engine.XBlockContext(
        block_index=0,
        current_iterate=rng.standard_normal(4),
        linear_term=np.zeros(4),
        multiplier=np.zeros(21),
        partial_residual=np.zeros(21),
        rho=0.0,
        mu=1.0,
        bregman=None,
    )
    out = dcopf.x_block_update(ctx, np.zeros((4, 4)), q, np.zeros((21, 4)), alpha)
    assert np.allclose(out, (alpha * ctx.current_iterate - q) / alpha, rtol=REL)


def test_x_block_update_fixed_point(rng):
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    alpha = 0.3
    rho = 2.0
    i = 0
    x_star = rng.standard_normal(4)
    # choose the context so the subproblem gradient vanishes at x_star
    partial = rng.standard_normal(21)
    multiplier = rng.standard_normal(21)
    linear = -(
        problem.Q[i] @ x_star
        + problem.q[i]
        + problem.A[i].T @ (multiplier + rho * (problem.A[i] @ x_star + partial))
    )
    ctx = engine.XBlockContext(
        block_index=i,
        current_iterate=x_star,
        linear_term=linear,
        multiplier=multiplier,
        partial_residual=partial,
        rho=rho,
        mu=1.0,
        bregman=None,
    )
    out = dcopf.x_block_update(ctx, problem.Q[i], problem.q[i], problem.A[i], alpha)
    assert np.allclose(out, x_star, atol=1e-10)


def test_y_block_update_branches_and_oracle():
    eta, rho = 3.0, 6.0  # rho = 2 eta
    z = np.zeros(2)
    x_residual = -np.array([3.0, -2.0])  # v = (3, -2)
    out = dcopf.y_block_update(x_residual, z, eta, rho)
    assert out[0] == pytest.approx(3.0, rel=REL)
    assert out[1] == pytest.approx(-4.0 / 3.0, rel=REL)

    def scalar_objective(y, v):
        return 0.5 * eta * min(y, 0.0) ** 2 + 0.5 * rho * (y - v) ** 2

    for v in (3.0, -2.0):
        numeric = golden_section(lambda s: scalar_objective(s, v), -10, 10)
        formula = dcopf.y_block_update(np.array([-v]), np.zeros(1), eta, rho)[0]
        assert formula == pytest.approx(numeric, abs=1e-6)


def test_y_block_update_local_minimality_probe(rng):
    eta, rho = 9.0, 20.0
    z = rng.standard_normal(15)
    x_residual = rng.standard_normal(15)
    y = dcopf.y_block_update(x_residual, z, eta, rho)

    def objective(candidate):
        neg = np.minimum(candidate, 0.0)
        coupling = x_residual + candidate
        return (
            0.5 * eta * float(np.vdot(neg, neg))
            + float(np.vdot(z, candidate))
            + 0.5 * rho * float(np.vdot(coupling, coupling))
        )

    base = objective(y)
    for _ in range(1000):
        direction = rng.standard_normal(15)
        direction /= np.linalg.norm(direction)
        assert base <= objective(y + 1e-3 * direction) + 1e-10


@pytest.fixture(scope="module")
def fixture_solution():
    case = dcopf.two_bus_fixture()
    return case, dcopf.solve_dcopf(case, max_iterations=20000)


def test_two_bus_binary_recovery(fixture_solution):
    case, sol = fixture_solution
    assert sol.converged
    distance = np.minimum(np.abs(sol.u), np.abs(sol.u - 1.0))
    assert np.all(distance <= 1e-2)
    assert sol.rounded_feasible
    assert sol.rounded_violation <= 1e-3


def test_two_bus_termination_invariants(fixture_solution):
    case, sol = fixture_solution
    b = dcopf.build_problem(case).b
    assert sol.feasibility_residual <= 1e-4 * (1.0 + np.linalg.norm(b))
    assert sol.y.min() >= -1e-3
    merits = [r.merit for r in sol.reports]
    slack = 1e-8 * (1.0 + abs(merits[1]))
    assert all(later - earlier <= slack for earlier, later in zip(merits[1:], merits[2:]))


def test_two_bus_places_one_unit(fixture_solution):
    _, sol = fixture_solution
    assert sorted(sol.u_rounded.tolist()) == [0.0, 1.0]
    # the penetration floor forces one full PV unit into the network
    assert sol.pv.sum() == pytest.approx(0.8, abs=1e-2)
    assert sol.objective_opf1_rounded < 2.5


def test_rounding_ties_go_up():
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    u = np.array([0.5, 0.49999])
    rounded = np.where(u >= 0.5, 1.0, 0.0)
    assert rounded.tolist() == [1.0, 0.0]
    feasible, violation, _ = dcopf.frozen_u_recheck(
        problem, np.array([1.0, 1.0]), rho=2.0 * case.eta + 1e-10, alpha=1e-2
    )
    assert feasible
    assert violation <= 1e-3


def test_frozen_recheck_flags_infeasible_rounding():
    # with no PV anywhere the penetration floor cannot be met
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    feasible, violation, _ = dcopf.frozen_u_recheck(
        problem, np.zeros(2), rho=2.0 * case.eta + 1e-10, alpha=1e-2
    )
    assert not feasible
    assert violation > 1e-2


def test_gamma_zero_leaves_fractional_placement():
    case = dcopf.DcOpfCase(
        demand=np.array([0.5, 0.5]),
        lines=((0, 1, 5.0),),
        pv_cost=1.0,
        gen_cost_a=np.array([1.0, 1.0]),
        gen_cost_b=np.array([0.05, 0.05]),
        gen_cost_c=np.array([0.0, 0.0]),
        pv_capacity=0.8,
        gen_capacity=np.array([5.0, 5.0]),
        line_limit=0.3,
        gamma=0.0,
        eta=1e4,
    )
    sol = dcopf.solve_dcopf(case, max_iterations=20000, recheck=False)
    assert sol.converged
    assert sol.binary_violation > 1e-2
    assert np.any((sol.u > 0.05) & (sol.u < 0.95))


def test_parameter_gate_is_twice_eta():
    case = dcopf.two_bus_fixture()
    params = dcopf.solver_params_for(case, rho=2.0 * case.eta, alpha=1e-2, tol=1e-5,
                                     max_iterations=10)
    with pytest.raises(engine.ParameterError):
        engine.validate_parameters(params)
    params = dcopf.solver_params_for(case, rho=2.0 * case.eta + 1e-10, alpha=1e-2,
                                     tol=1e-5, max_iterations=10)
    _, bound = engine.validate_parameters(params)
    assert bound == pytest.approx(2.0 * case.eta, rel=1e-14)


def test_objective_reports_raw_and_rounded(fixture_solution):
    case, sol = fixture_solution
    expected_rounded = dcopf.opf1_objective(case, sol.u_rounded, sol.gen)
    expected_raw = dcopf.opf1_objective(case, sol.u, sol.gen)
    assert sol.objective_opf1_rounded == pytest.approx(expected_rounded, rel=REL)
    assert sol.objective_opf1_raw == pytest.approx(expected_raw, rel=REL)
    assert sol.binary_violation == pytest.approx(float(np.sum(sol.u - sol.u**2)), rel=1e-8)
