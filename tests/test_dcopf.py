import re
from dataclasses import replace

import numpy as np
import pytest

from bpladmm import dcopf, engine
from oracles import (
    dcopf_x_block_solve,
    dense_frozen_problem,
    finite_difference_gradient,
    golden_section,
    newton_fd,
    opf1_cost,
    random_radial_case,
)

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
    # build_problem lays its rows out without the formula
    radial = small_radial_case()
    assert dcopf.build_problem(radial).p == dcopf.expected_row_count(radial) == 9 * 6 + 10 + 1


def test_constraint_blocks_have_full_column_rank():
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    for A in problem.A:
        assert np.linalg.matrix_rank(A) == 4


def test_build_problem_rejects_bad_cases():
    # a case checks itself when built, so no bad case reaches build_problem
    case = dcopf.two_bus_fixture()
    with pytest.raises(ValueError, match="endpoint"):
        dcopf.DcOpfCase(**{**case.__dict__, "lines": ((0, 5, 1.0),)})
    with pytest.raises(ValueError, match="nonnegative"):
        dcopf.DcOpfCase(**{**case.__dict__, "gen_capacity": np.array([-1.0, 0.0])})
    with pytest.raises(ValueError, match=r"line \(0, 1\) susceptance nan must be finite"):
        replace(case, lines=((0, 1, np.nan),))


@pytest.mark.parametrize("end", [1.5, 1.0, True, np.float64(1.0), np.True_])
def test_a_line_endpoint_must_be_an_integer_bus_index(end):
    # a float would index by truncation and a bool would be bus 0 or 1
    for line in ((0, end), (end, 0)):
        with pytest.raises(ValueError, match=re.escape(
                f"line ({line[0]}, {line[1]}) has an endpoint that is not a bus index")):
            replace(dcopf.two_bus_fixture(), lines=((*line, 5.0),))


def test_a_numpy_integer_endpoint_is_a_bus_index():
    case = replace(dcopf.two_bus_fixture(), lines=((np.int64(0), np.int32(1), 5.0),))
    assert dcopf.build_problem(case).p == dcopf.expected_row_count(case) == 21


@pytest.mark.parametrize("jitter", [-0.1, np.nan, np.inf])
def test_lower_bound_init_rejects_a_negative_or_non_finite_jitter(jitter):
    problem = dcopf.build_problem(dcopf.two_bus_fixture())
    with pytest.raises(ValueError, match=f"jitter must be finite and non-negative, got {jitter}"):
        dcopf.lower_bound_init(problem, jitter=jitter, seed=0)


@pytest.mark.parametrize("name", ["demand", "pv_cost", "gen_cost_a", "gen_cost_b", "gen_cost_c",
                                  "pv_capacity", "gen_capacity", "line_limit", "gamma", "eta"])
def test_validate_names_a_field_that_is_not_finite(name):
    case = dcopf.two_bus_fixture()
    value = getattr(case, name)
    for bad in (np.inf, np.nan):
        if np.ndim(value):
            bad = np.array([value[0], bad])
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            replace(case, **{name: bad})


@pytest.mark.parametrize("name", ["gen_capacity", "gen_cost_a", "gen_cost_b", "gen_cost_c"])
def test_validate_names_a_per_bus_field_of_another_length(name):
    case = dcopf.two_bus_fixture()
    with pytest.raises(ValueError, match=re.escape(f"{name} of shape (1,) does not hold one "
                                                   "entry per bus (2)")):
        replace(case, **{name: getattr(case, name)[:1]})


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


def problem_for(case):
    problem = dcopf.build_problem(case)
    params = dcopf.solver_params_for(case, tol=1e-5, max_iterations=300)
    return problem, params


CASES = [pytest.param(dcopf.two_bus_fixture, id="two-bus"),
         pytest.param(small_radial_case, id="radial6")]


@pytest.mark.parametrize("make_case", CASES)
def test_compact_blocks_scatter_back_to_the_dense_blocks(make_case, rng):
    problem, params = problem_for(make_case())
    assert len(problem.A) == problem.num_blocks
    for i, A in enumerate(problem.A):
        rows = problem.rows[i]
        assert np.array_equal(rows, np.unique(rows))
        full = np.zeros_like(A)
        full[rows] = problem.blocks[i]
        assert np.array_equal(full, A)
        assert not np.delete(A, rows, axis=0).any()
        # apply_A scatters the compact product into the whole constraint space
        assert np.array_equal(np.column_stack([problem.apply_A(i, e) for e in np.eye(4)]), A)
        # the oracle, which gathers the block's rows, matches the dense update
        data = block_data(rng, problem, rho=params.rho, prox_weight=params.strong_convexity)
        dense = dcopf_x_block_solve(problem.Q_diag[i], problem.q[i], A, *data)
        assert np.allclose(problem.solve_x_block(i, *data), dense, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("make_case", CASES)
def test_the_solve_path_never_builds_the_dense_blocks(make_case, monkeypatch):
    # the recheck builds its frozen-u problem inside; record it on the way out
    frozen, build_frozen = [], dcopf.frozen_u_problem

    def recorded_frozen_u_problem(problem, u_rounded):
        frozen.append(build_frozen(problem, u_rounded))
        return frozen[-1]

    monkeypatch.setattr(dcopf, "frozen_u_problem", recorded_frozen_u_problem)
    problem, params = problem_for(make_case())
    result = engine.solve(problem, params, dcopf.lower_bound_init(problem))
    x = result.state.x
    dcopf.frozen_u_recheck(problem, np.where(x[:, dcopf.U] >= 0.5, 1.0, 0.0), params, warm_x=x)
    assert len(frozen) == 1
    for built in (problem, *frozen):
        assert "A" not in vars(built)


@pytest.mark.parametrize("make_case", CASES)
def test_carried_residual_matches_a_fresh_one(make_case):
    # The residual is a difference of O(1) terms (b, B y, A x), so each
    # entry carries rounding of the terms' size: gaps are scaled by
    # max(1, max|fresh|).
    problem, params = problem_for(make_case())
    state = dcopf.lower_bound_init(problem, jitter=0.1, seed=3)
    for _ in range(50):
        previous = state.residual.copy()
        new_state = engine.step(problem, params, state)
        assert np.array_equal(state.residual, previous)  # the old state's is left alone
        state = new_state
        fresh = engine.constraint_residual(problem, state.x, state.y)
        scale = max(1.0, float(np.max(np.abs(fresh))))
        assert np.max(np.abs(state.residual - fresh)) <= 1e-12 * scale


@pytest.mark.parametrize("make_case", CASES)
def test_per_bus_blocks_are_views_of_one_stacked_copy(make_case):
    problem = dcopf.build_problem(make_case())
    frozen = dcopf.frozen_u_problem(problem, np.arange(problem.num_blocks) % 2.0)
    for model in (problem, frozen):
        for rows, block in zip(model.rows, model.blocks, strict=True):
            assert np.shares_memory(rows, model._stacked_rows)
            assert np.shares_memory(block, model._stacked_A)


@pytest.mark.parametrize("make_case", CASES)
def test_lower_bound_init_forms_the_residual_once(make_case, monkeypatch):
    calls, constraint_residual = [], engine.constraint_residual

    def counted(*args):
        calls.append(args)
        return constraint_residual(*args)

    problem = dcopf.build_problem(make_case())
    monkeypatch.setattr(engine, "constraint_residual", counted)
    state = dcopf.lower_bound_init(problem, jitter=0.1, seed=3)
    assert len(calls) == 1
    assert (state.y >= 0.0).all() and (state.residual >= 0.0).all()
    # the tolerance of test_carried_residual_matches_a_fresh_one
    fresh = constraint_residual(problem, state.x, state.y)
    scale = max(1.0, float(np.max(np.abs(fresh))))
    assert np.max(np.abs(state.residual - fresh)) <= 1e-12 * scale


def test_placement_gradient_values_and_finite_differences(rng):
    gamma = 80.0
    problem = dcopf.build_problem(replace(dcopf.two_bus_fixture(), gamma=gamma))
    x = np.array([[0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 1.0]])
    grads = problem.subgrad_G(x)
    assert grads[0][dcopf.U] == 0.0
    assert grads[1][dcopf.U] == pytest.approx(gamma, rel=REL)
    assert all(g[: dcopf.U].sum() == 0.0 for g in grads)

    def penalty(u):
        return gamma * float(np.sum(u * u - u))

    x = rng.standard_normal((2, 4))
    numeric = finite_difference_gradient(penalty, x[:, dcopf.U])
    grads = problem.subgrad_G(x)
    assert np.allclose(grads[:, dcopf.U], numeric, atol=1e-6)


def block_data(rng, problem, rho=2.0, prox_weight=1.0):
    """Random subproblem data for a bus block of ``problem``, on every row:
    the arguments of ``solve_x_block`` after i."""
    x_i, linear_i = rng.standard_normal(4), rng.standard_normal(4)
    z, partial_residual = rng.standard_normal(problem.p), rng.standard_normal(problem.p)
    return x_i, linear_i, z, partial_residual, rho, prox_weight


@pytest.mark.parametrize("make_case", CASES)
@pytest.mark.parametrize("changed", ["rho", "prox_weight"])
def test_x_oracle_solves_each_pair_afresh(make_case, changed, rng):
    # each call solves the system of its own (rho, w), also when the calls
    # alternate between two pairs
    problem, params = problem_for(make_case())
    first = dict(rho=params.rho, prox_weight=params.strong_convexity)
    other = {**first, changed: 3.0 * first[changed]}
    for pair in (first, other, first):
        for i, A in enumerate(problem.A):
            data = block_data(rng, problem, **pair)
            reference = dcopf_x_block_solve(problem.Q_diag[i], problem.q[i], A, *data)
            out = problem.solve_x_block(i, *data)
            assert np.max(np.abs(out - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))


def counted_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` with a wrapper that records each call's arguments."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_x_oracle_builds_no_chunk_operator(monkeypatch, rng):
    # the per-bus oracle solves its own 4x4 system; the chunk operators are the sweep's
    problem, params = problem_for(random_radial_case(20, 5))
    built = counted_calls(monkeypatch, dcopf.DcOpfBlockProblem, "_chunk_operator")
    for i in range(problem.num_blocks):
        problem.solve_x_block(i, *block_data(rng, problem, rho=params.rho,
                                             prox_weight=params.strong_convexity))
    assert built == []


def test_a_solve_inverts_one_matrix_per_chunk(monkeypatch):
    # 20 buses make chunks of 8, 8 and 4, each inverted once for the run's (rho, alpha)
    problem, params = problem_for(random_radial_case(20, 5))
    inverted = counted_calls(monkeypatch, np.linalg, "inv")
    engine.solve(problem, replace(params, max_iterations=5), dcopf.lower_bound_init(problem))
    assert [len(matrix) for (matrix,) in inverted] == [32, 32, 16]


def test_x_oracle_matches_newton_oracle(rng):
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    alpha = 0.5
    for i, A in enumerate(problem.A):
        x_i, linear_i, z, partial, rho, _ = data = block_data(rng, problem, prox_weight=alpha)
        out = problem.solve_x_block(i, *data)

        def objective(x, A=A, i=i, x_i=x_i, linear_i=linear_i, z=z, partial=partial, rho=rho):
            coupling = A @ x + partial
            return (
                0.5 * x @ (problem.Q_diag[i] * x)
                + problem.q[i] @ x
                + float(np.vdot(linear_i, x))
                + float(np.vdot(z, A @ x))
                + 0.5 * rho * float(np.vdot(coupling, coupling))
                + 0.5 * alpha * float(np.vdot(x - x_i, x - x_i))
            )

        reference = newton_fd(objective, np.zeros(4))
        assert np.allclose(out, reference, atol=1e-8)


def test_x_oracle_decoupled_case(rng):
    # rho = 0 with no multiplier and no linear term leaves the diagonal
    # system (diag(Q_diag) + alpha I) x = alpha x_n - q
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    alpha = 0.25
    for i in range(case.num_buses):
        x_i, _, _, partial, _, _ = block_data(rng, problem)
        out = problem.solve_x_block(i, x_i, np.zeros(4), np.zeros(problem.p), partial, 0.0, alpha)
        expected = (alpha * x_i - problem.q[i]) / (problem.Q_diag[i] + alpha)
        assert np.allclose(out, expected, rtol=REL)


def test_x_oracle_fixed_point(rng):
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    alpha = 0.3
    rho = 2.0
    i = 0
    A = problem.A[i]
    x_star = rng.standard_normal(4)
    # choose the data so the subproblem gradient vanishes at x_star
    partial = rng.standard_normal(problem.p)
    multiplier = rng.standard_normal(problem.p)
    linear = -(
        problem.Q_diag[i] * x_star
        + problem.q[i]
        + A.T @ (multiplier + rho * (A @ x_star + partial))
    )
    out = problem.solve_x_block(i, x_star, linear, multiplier, partial, rho, alpha)
    assert np.allclose(out, x_star, atol=1e-10)


def slack_step(eta):
    """``solve_y_block`` of the two-bus problem with slack penalty ``eta``;
    the step is componentwise, so it takes vectors of any length."""
    return dcopf.build_problem(replace(dcopf.two_bus_fixture(), eta=eta)).solve_y_block


def test_slack_step_branches_and_oracle():
    eta, rho = 3.0, 6.0  # rho = 2 eta
    z = np.zeros(2)
    x_residual = -np.array([3.0, -2.0])  # v = (3, -2)
    out = slack_step(eta)(z, x_residual, rho)
    assert out[0] == pytest.approx(3.0, rel=REL)
    assert out[1] == pytest.approx(-4.0 / 3.0, rel=REL)

    def scalar_objective(y, v):
        return 0.5 * eta * min(y, 0.0) ** 2 + 0.5 * rho * (y - v) ** 2

    for v in (3.0, -2.0):
        numeric = golden_section(lambda s: scalar_objective(s, v), -10, 10)
        formula = slack_step(eta)(np.zeros(1), np.array([-v]), rho)[0]
        assert formula == pytest.approx(numeric, abs=1e-6)

    # the one-call form max(v, k v) equals the two-branch formula exactly,
    # also at signed zeros, subnormals and the ends of the float range
    def assert_two_branch_value(x_residual, z, eta, rho):
        v = -x_residual - z / rho
        k = rho / (eta + rho)
        expected = np.maximum(v, 0.0) + k * np.minimum(v, 0.0)
        assert (slack_step(eta)(z, x_residual, rho) == expected).all()

    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300, 3.0, -2.0])
    assert_two_branch_value(edges, np.zeros_like(edges), eta, rho)
    assert_two_branch_value(edges, edges[::-1].copy(), 1e-3, 1e6)

    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    values = st.floats(-1e300, 1e300) | st.sampled_from(list(edges))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.tuples(values, values), min_size=1, max_size=30),
                      st.floats(1e-6, 1e6), st.floats(1.0, 1e6))
    def check(pairs, eta, rho):
        x_residual, z = np.array(pairs).T
        assert_two_branch_value(x_residual, z, eta, rho)

    check()


def test_slack_step_local_minimality_probe(rng):
    eta, rho = 9.0, 20.0
    z = rng.standard_normal(15)
    x_residual = rng.standard_normal(15)
    y = slack_step(eta)(z, x_residual, rho)

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
    feasible, violation = dcopf.frozen_u_recheck(
        problem, np.array([1.0, 1.0]), dcopf.solver_params_for(case), np.zeros((2, 4))
    )
    assert feasible
    assert violation <= 1e-3


def test_frozen_recheck_flags_infeasible_rounding():
    # with no PV anywhere the penetration floor cannot be met
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    feasible, violation = dcopf.frozen_u_recheck(
        problem, np.zeros(2), dcopf.solver_params_for(case), np.zeros((2, 4))
    )
    assert not feasible
    assert violation > 1e-2


@pytest.mark.parametrize("u_rounded, warm_x, message", [
    ([1.0], np.zeros((2, 4)), "u_rounded must hold one 0 or 1 per bus (2), got [1.]"),
    ([np.nan, 0.0], np.zeros((2, 4)), "u_rounded must hold one 0 or 1 per bus (2), got [nan  0.]"),
    ([0.5, 0.5], np.zeros((2, 4)), "u_rounded must hold one 0 or 1 per bus (2), got [0.5 0.5]"),
    ([1.0, 0.0], np.zeros(8), "warm_x of shape (8,) is not of shape (2, 4)"),
], ids=["short-placement", "nan-placement", "fractional-placement", "flat-warm-x"])
def test_recheck_rejects_a_malformed_placement_or_start(u_rounded, warm_x, message):
    case = dcopf.two_bus_fixture()
    with pytest.raises(ValueError, match=re.escape(message)):
        dcopf.frozen_u_recheck(dcopf.build_problem(case), np.array(u_rounded),
                               dcopf.solver_params_for(case), warm_x)


def test_iteration_cap_must_be_an_integer():
    with pytest.raises(engine.ParameterError,
                       match=re.escape("max_iterations must be an integer, got 10.0")):
        dcopf.solve_dcopf(dcopf.two_bus_fixture(), max_iterations=10.0)
    # a bool is a Python int, but no count of sweeps
    with pytest.raises(engine.ParameterError,
                       match=re.escape("max_iterations must be an integer, got True")):
        dcopf.solve_dcopf(dcopf.two_bus_fixture(), max_iterations=True, recheck=False)
    # a numpy integer is an integer
    solution = dcopf.solve_dcopf(dcopf.two_bus_fixture(), max_iterations=np.int64(10),
                                 recheck=False)
    assert solution.iterations == 10


def test_a_two_bus_step_forms_no_zero_array(monkeypatch):
    # the x pass forms its own linearization; there is no P, so it has no zeros to add
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    state = dcopf.lower_bound_init(problem, jitter=0.1, seed=0)
    calls, zeros_like = [], np.zeros_like

    def counted(*args, **kwargs):
        calls.append(args)
        return zeros_like(*args, **kwargs)

    monkeypatch.setattr(np, "zeros_like", counted)
    engine.step(problem, dcopf.solver_params_for(case), state)
    assert calls == []


def test_recheck_forms_the_whole_residual_once(monkeypatch):
    # the start's A x + y - b'; the closing violation reads the carried residual
    calls, constraint_residual = [], engine.constraint_residual

    def counted(*args):
        calls.append(args)
        return constraint_residual(*args)

    case = dcopf.two_bus_fixture()
    monkeypatch.setattr(engine, "constraint_residual", counted)
    dcopf.frozen_u_recheck(dcopf.build_problem(case), np.array([1.0, 0.0]),
                           dcopf.solver_params_for(case), np.zeros((2, 4)))
    assert len(calls) == 1


@pytest.mark.parametrize("placement", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
def test_recheck_violation_is_the_dense_frozen_residual(placement, monkeypatch):
    # the largest entry of a fresh dense A' x - b' at the recheck's final iterate
    results, solve = [], engine.solve

    def recorded_solve(*args):
        results.append(solve(*args))
        return results[-1]

    case = dcopf.two_bus_fixture()
    u = np.array(placement)
    monkeypatch.setattr(engine, "solve", recorded_solve)
    _, violation = dcopf.frozen_u_recheck(dcopf.build_problem(case), u,
                                          dcopf.solver_params_for(case), np.zeros((2, 4)))
    (result,) = results
    A, b = dense_frozen_problem(case, u)
    dense = sum(Ai @ xi for Ai, xi in zip(A, result.state.x)) - b
    assert violation == pytest.approx(max(float(np.max(dense)), 0.0), rel=0.0, abs=1e-12)


def test_recheck_oracle_failure_raises(monkeypatch):
    # only the frozen-u problem, whose blocks lack the u column, returns inf
    x_sweep = dcopf.DcOpfBlockProblem.x_sweep

    def inf_without_u(self, state, rho, prox_weight):
        x_new, residual = x_sweep(self, state, rho, prox_weight)
        if self.block_shape == (dcopf.U,):
            x_new = np.full_like(x_new, np.inf)
        return x_new, residual

    monkeypatch.setattr(dcopf.DcOpfBlockProblem, "x_sweep", inf_without_u)
    with pytest.raises(engine.BlockOracleError, match="x-block 0 oracle failed at iteration 1"):
        dcopf.solve_dcopf(dcopf.two_bus_fixture(), max_iterations=50)


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


@pytest.mark.parametrize("eta", [0.7, 50.0, 900.0, 1e3, 1e4, 1e5])
def test_default_penalty_is_twice_eta_plus_1e_10(eta):
    case = replace(dcopf.two_bus_fixture(), eta=eta)
    assert dcopf.solver_params_for(case).rho == 2.0 * eta + 1e-10
    assert dcopf.solver_params_for(case, rho=7.0 * eta).rho == 7.0 * eta


@pytest.mark.parametrize("frozen", [False, True], ids=["two-bus", "frozen-u"])
def test_eval_f_is_the_opf1_objective(frozen, rng):
    # f prices u (PV installation) and the generation; the frozen-u problem has no u column
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    if frozen:
        problem = dcopf.frozen_u_problem(problem, np.array([1.0, 0.0]))
    for _ in range(10):
        x = rng.standard_normal((problem.num_blocks, *problem.block_shape)) * rng.uniform(0.1, 10)
        u = np.zeros(2) if frozen else x[:, dcopf.U]
        expected = opf1_cost(case, u, x[:, dcopf.GEN])
        assert problem.eval_f(x) == pytest.approx(expected, rel=1e-12)


def test_objective_reports_raw_and_rounded(fixture_solution):
    case, sol = fixture_solution
    expected_rounded = opf1_cost(case, sol.u_rounded, sol.gen)
    expected_raw = opf1_cost(case, sol.u, sol.gen)
    assert sol.objective_opf1_rounded == pytest.approx(expected_rounded, rel=REL)
    assert sol.objective_opf1_raw == pytest.approx(expected_raw, rel=REL)
    assert sol.binary_violation == pytest.approx(float(np.sum(sol.u - sol.u**2)), rel=1e-8)
