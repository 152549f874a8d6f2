import numpy as np
import pytest

from bpladmm import dcopf, engine, rpca
from bpladmm.spaces import scaled_squared_norm

REL = 1e-10


class ScalarToy(engine.BlockProblem):
    """m = 1, f = H = P = G = 0, A = I, B = -I, b = 0; exact solution x = y."""

    def __init__(self, dim=1):
        self.block_shapes = [(dim,)]
        self.y_shape = (dim,)
        self.rhs = np.zeros(dim)

    def apply_A(self, i, x):
        return x

    def apply_A_transpose(self, i, v):
        return v

    def apply_B(self, y):
        return -y

    def apply_B_transpose(self, v):
        return -v

    def solve_x_block(self, i, ctx):
        # alpha = 1 gives the prox term (mu/2)||x - x_n||^2
        return (
            ctx.mu * ctx.current_iterate
            - ctx.linear_term
            - ctx.multiplier
            - ctx.rho * ctx.partial_residual
        ) / (ctx.rho + ctx.mu)

    def solve_y_block(self, ctx):
        return ctx.x_residual + ctx.multiplier / ctx.rho


def toy_params(**overrides):
    defaults = dict(
        rho=3.0,
        mu=1.0,
        strong_convexity=1.0,
        lambda_min_BtB=1.0,
        stop_tolerance=1e-9,
    )
    defaults.update(overrides)
    return engine.SolverParams(**defaults)


class RecordingProblem(engine.BlockProblem):
    """Three scalar blocks embedded as the coordinates of R^3; the oracle
    logs its context so the Gauss-Seidel ordering can be inspected."""

    def __init__(self):
        self.block_shapes = [(1,)] * 3
        self.y_shape = (3,)
        self.rhs = np.zeros(3)
        self.seen = []

    def apply_A(self, i, x):
        out = np.zeros(3)
        out[i] = x[0]
        return out

    def apply_A_transpose(self, i, v):
        return np.array([v[i]])

    def apply_B(self, y):
        return -y

    def apply_B_transpose(self, v):
        return -v

    def solve_x_block(self, i, ctx):
        self.seen.append((i, ctx.partial_residual.copy()))
        return ctx.current_iterate + 1.0

    def solve_y_block(self, ctx):
        return ctx.current_iterate


class RowRecordingProblem(RecordingProblem):
    """RecordingProblem with block i declared to touch row i only."""

    def block_rows(self, i):
        return [i]

    def apply_A(self, i, x):
        return x.copy()

    def apply_A_transpose(self, i, v):
        return v.copy()


def test_validate_parameters_rpca_setting():
    params = engine.SolverParams(rho=2.0 + 1e-10, lipschitz_H=1.0, strong_convexity=0.01)
    mu_bound, rho_bound = engine.validate_parameters(params)
    assert mu_bound == 0.0
    assert abs(rho_bound - 2.0) < 1e-12
    with pytest.raises(engine.ParameterError, match="rho"):
        engine.validate_parameters(
            engine.SolverParams(rho=2.0, lipschitz_H=1.0, strong_convexity=0.01)
        )


def test_validate_parameters_power_flow_setting():
    params = engine.SolverParams(rho=1800.0 + 1e-10, lipschitz_H=900.0, strong_convexity=0.01)
    _, rho_bound = engine.validate_parameters(params)
    assert abs(rho_bound - 1800.0) < 1e-12
    with pytest.raises(engine.ParameterError):
        engine.validate_parameters(
            engine.SolverParams(rho=1800.0, lipschitz_H=900.0, strong_convexity=0.01)
        )


def test_validate_parameters_mu_gate():
    # l_P = beta = 0 makes the mu bound 0, so mu = 1 passes for any alpha > 0
    mu_bound, _ = engine.validate_parameters(engine.SolverParams(rho=1.0, strong_convexity=0.5))
    assert mu_bound == 0.0
    with pytest.raises(engine.ParameterError, match="mu"):
        engine.validate_parameters(
            engine.SolverParams(rho=10.0, mu=0.5, lipschitz_P=1.0, strong_convexity=1.0)
        )


def test_validate_parameters_rank_deficient_B():
    with pytest.raises(engine.ParameterError, match="full column rank"):
        engine.validate_parameters(engine.SolverParams(rho=1.0, lambda_min_BtB=0.0))


def test_smallest_eigenvalue_btb():
    assert engine.smallest_eigenvalue_btb(-np.eye(4)) == pytest.approx(1.0, rel=REL)
    assert engine.smallest_eigenvalue_btb(np.eye(3)) == pytest.approx(1.0, rel=REL)
    stacked = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    assert engine.smallest_eigenvalue_btb(stacked) == pytest.approx(4.0, rel=REL)


def test_step_matches_hand_minimized_quadratic():
    toy = ScalarToy()
    state = engine.initial_state(toy, [np.array([1.0])], np.zeros(1), np.zeros(1))
    out = engine.step(toy, toy_params(), state)
    # argmin (rho/2)(x - y0)^2 + (1/2)(x - x0)^2 = (rho*y0 + x0)/(rho + 1)
    assert out.x[0][0] == pytest.approx(0.25, rel=REL)
    assert out.y[0] == pytest.approx(0.25, rel=REL)
    assert out.z[0] == pytest.approx(0.0, abs=1e-15)


def test_z_update_is_fixed_point_on_feasible_iterates():
    toy = ScalarToy()
    state = engine.initial_state(toy, [np.array([0.7])], np.array([0.7]), np.zeros(1))
    out = engine.step(toy, toy_params(rho=5.0), state)
    # the sweep lands exactly on A x + B y = b, so z must not move
    assert np.linalg.norm(out.x[0] - out.y) == 0.0
    assert out.z[0] == state.z[0]


def test_z_update_exactness_in_reports():
    instance = rpca.generate_instance(6, 5, 2, 0.2, 1e-2, seed=3)
    config = rpca.RpcaConfig(rows=6, cols=5)
    problem = rpca.RpcaBlockProblem(instance, config)
    params = config.solver_params()
    state = engine.initial_state(
        problem, [np.zeros((6, 5)), np.zeros((6, 5))], instance.M.copy(), np.zeros((6, 5))
    )
    for _ in range(5):
        state = engine.step(problem, params, state)
        report = state.history[-1]
        assert report.step_z == pytest.approx(params.rho * report.feasibility, rel=1e-12)


def test_solve_toy_from_stationary_point_converges_immediately():
    toy = ScalarToy()
    init = engine.initial_state(toy, [np.zeros(1)], np.zeros(1), np.zeros(1))
    result = engine.solve(toy, toy_params(), init)
    assert result.status == engine.STATUS_CONVERGED
    assert result.iterations <= 2


def test_solve_toy_converges_and_merit_descends():
    toy = ScalarToy(dim=3)
    rng = np.random.default_rng(5)
    init = engine.initial_state(
        toy, [rng.standard_normal(3)], rng.standard_normal(3), rng.standard_normal(3)
    )
    result = engine.solve(toy, toy_params(stop_tolerance=1e-10), init)
    assert result.status == engine.STATUS_CONVERGED
    merits = [r.merit for r in result.reports]
    slack = 1e-8 * (1.0 + abs(merits[1]))
    assert all(b - a <= slack for a, b in zip(merits[1:], merits[2:]))
    assert result.merit_increase_count == 0


def assert_gauss_seidel_splice(problem):
    x = [np.array([10.0]), np.array([20.0]), np.array([30.0])]
    y = np.array([1.0, 2.0, 3.0])
    state = engine.initial_state(problem, x, y, np.zeros(3))
    engine.step(problem, toy_params(rho=2.0), state)
    assert [i for i, _ in problem.seen] == [0, 1, 2]
    # block i sees blocks < i at the new value (old + 1) and blocks > i old,
    # and never its own contribution, on the rows it touches
    by = -y
    expected = {
        0: np.array([0.0, 20.0, 30.0]) + by,
        1: np.array([11.0, 0.0, 30.0]) + by,
        2: np.array([11.0, 21.0, 0.0]) + by,
    }
    for i, partial in problem.seen:
        assert np.allclose(partial, expected[i][problem.block_rows(i)], rtol=REL, atol=1e-12)


def test_gauss_seidel_ordering():
    assert_gauss_seidel_splice(RecordingProblem())


def test_gauss_seidel_ordering_on_block_rows():
    assert_gauss_seidel_splice(RowRecordingProblem())


def test_block_rows_give_the_whole_space_iterates():
    whole, rows = RecordingProblem(), RowRecordingProblem()
    params = toy_params(rho=2.0)
    start = ([np.array([10.0]), np.array([20.0]), np.array([30.0])],
             np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 0.25]))
    a, b = engine.initial_state(whole, *start), engine.initial_state(rows, *start)
    assert np.array_equal(a.residual, b.residual)
    for _ in range(5):
        a, b = engine.step(whole, params, a), engine.step(rows, params, b)
        for left, right in zip([a.x, a.y, a.z, a.residual], [b.x, b.y, b.z, b.residual]):
            assert np.array_equal(left, right)
    assert [r.csv_row() for r in a.history] == [r.csv_row() for r in b.history]
    assert engine.check_adjoints(rows, np.random.default_rng(0)) == 0.0


def test_block_oracle_never_worse_than_incumbent():
    instance = rpca.generate_instance(5, 5, 2, 0.2, 1e-2, seed=11)
    config = rpca.RpcaConfig(rows=5, cols=5)
    problem = rpca.RpcaBlockProblem(instance, config)
    params = config.solver_params()
    rng = np.random.default_rng(2)
    state = engine.initial_state(
        problem,
        [rng.standard_normal((5, 5)), rng.standard_normal((5, 5))],
        instance.M.copy(),
        rng.standard_normal((5, 5)),
    )
    residual = engine.constraint_residual(problem, state.x, state.y)
    for i in range(2):
        ctx = engine.XBlockContext(
            block_index=i,
            current_iterate=state.x[i],
            linear_term=problem.subgrad_G(state.x)[i] * -1.0,
            multiplier=state.z,
            partial_residual=residual - problem.apply_A(i, state.x[i]),
            rho=params.rho,
            mu=1.0,
            bregman=scaled_squared_norm(params.strong_convexity),
        )
        candidate = problem.solve_x_block(i, ctx)
        assert engine.x_subproblem_value(problem, ctx, candidate) <= (
            engine.x_subproblem_value(problem, ctx, state.x[i]) + 1e-10
        )
    y_ctx = engine.YBlockContext(
        current_iterate=state.y,
        multiplier=state.z,
        x_residual=residual - problem.apply_B(state.y),
        rho=params.rho,
    )
    y_new = problem.solve_y_block(y_ctx)
    assert engine.y_subproblem_value(problem, y_ctx, y_new) <= (
        engine.y_subproblem_value(problem, y_ctx, state.y) + 1e-10
    )


def test_merit_reduces_to_augmented_lagrangian_without_displacement():
    toy = ScalarToy()
    params = toy_params(lipschitz_H=1.0, rho=13.0)
    state = engine.initial_state(toy, [np.array([0.4])], np.array([0.9]), np.array([-0.3]))
    assert engine.merit(toy, params, state) == pytest.approx(
        engine.augmented_lagrangian(toy, params.rho, state.x, state.y, state.z), rel=REL
    )


def assert_report_matches_one_shot_functions(problem, params, state, report=None):
    report = state.history[-1] if report is None else report
    assert report.n == state.n
    l_rho = engine.augmented_lagrangian(problem, params.rho, state.x, state.y, state.z)
    assert report.augmented_lagrangian == pytest.approx(l_rho, rel=1e-12)
    assert report.merit == pytest.approx(engine.merit(problem, params, state), rel=1e-12)
    assert report.objective == pytest.approx(
        engine.objective_value(problem, state.x, state.y), rel=1e-12
    )


def test_report_matches_one_shot_functions_on_two_bus_fixture():
    case = dcopf.two_bus_fixture()
    problem = dcopf.DcOpfBlockProblem(dcopf.build_problem(case), rho=2e5 + 1e-10, alpha=1e-2)
    params = dcopf.solver_params_for(case, rho=2e5 + 1e-10, alpha=1e-2, tol=1e-5,
                                     max_iterations=200)
    init = dcopf.lower_bound_init(problem, jitter=0.1, seed=3)
    result = engine.solve(problem, params, init)
    assert_report_matches_one_shot_functions(problem, params, init, result.reports[0])
    assert_report_matches_one_shot_functions(problem, params, result.state)
    state = result.state
    for _ in range(20):
        state = engine.step(problem, params, state)
        assert_report_matches_one_shot_functions(problem, params, state)


def test_report_matches_one_shot_functions_on_rpca_engine_run():
    instance = rpca.generate_instance(6, 5, 2, 0.2, 1e-2, seed=7)
    config = rpca.RpcaConfig(rows=6, cols=5)
    problem = rpca.RpcaBlockProblem(instance, config)
    params = config.solver_params()
    rng = np.random.default_rng(6)
    state = engine.initial_state(
        problem, [rng.standard_normal((6, 5)), rng.standard_normal((6, 5))],
        instance.M.copy(), np.zeros((6, 5)),
    )
    for _ in range(20):
        state = engine.step(problem, params, state)
        assert_report_matches_one_shot_functions(problem, params, state)


def test_quantified_merit_descent_on_rpca_engine_run():
    instance = rpca.generate_instance(6, 6, 2, 0.1, 1e-2, seed=9)
    config = rpca.RpcaConfig(rows=6, cols=6)
    problem = rpca.RpcaBlockProblem(instance, config)
    params = config.solver_params()
    rng = np.random.default_rng(4)
    state = engine.initial_state(
        problem,
        [rng.standard_normal((6, 6)), rng.standard_normal((6, 6))],
        instance.M.copy(),
        np.zeros((6, 6)),
    )
    result = engine.solve(problem, params, state)
    slack = 1e-8 * (1.0 + abs(result.reports[1].merit))
    for before, after in zip(result.reports[1:], result.reports[2:]):
        drop = before.merit - after.merit
        floor = params.delta_x * after.step_x**2 + params.delta_y * after.step_y**2
        assert drop >= floor - slack


def test_block_oracle_failure_names_the_block():
    class Broken(ScalarToy):
        def solve_x_block(self, i, ctx):
            raise np.linalg.LinAlgError("singular subproblem")

    toy = Broken()
    state = engine.initial_state(toy, [np.zeros(1)], np.zeros(1), np.zeros(1))
    with pytest.raises(engine.BlockOracleError, match="x-block 0"):
        engine.step(toy, toy_params(), state)
    result = engine.solve(toy, toy_params(), state)
    assert result.status == engine.STATUS_ORACLE_FAILURE
    assert "x-block 0" in str(result.oracle_error)


class InfiniteOutput(dcopf.DcOpfBlockProblem):
    """Two-bus adapter whose chosen oracle returns inf from a chosen sweep on."""

    def __init__(self, *args, block, iteration, **kwargs):
        super().__init__(*args, **kwargs)
        self.block = block
        self.iteration = iteration
        self.sweep = 0

    def solve_x_block(self, i, ctx):
        if i == 0:
            self.sweep += 1
        out = super().solve_x_block(i, ctx)
        if self.block == i and self.sweep >= self.iteration:
            out[dcopf.GEN] = np.inf
        return out

    def solve_y_block(self, ctx):
        out = super().solve_y_block(ctx)
        if self.block == "y" and self.sweep >= self.iteration:
            out[0] = -np.inf
        return out


class NanThenRaise(InfiniteOutput):
    """Block 0 returns NaN from the chosen sweep on, and the oracle of block
    1, fed the NaN through its partial residual, then raises."""

    def solve_x_block(self, i, ctx):
        out = super().solve_x_block(i, ctx)
        if self.sweep >= self.iteration:
            if i == 1:
                raise np.linalg.LinAlgError("block 1 cannot solve with a NaN residual")
            out[dcopf.GEN] = np.nan
        return out


@pytest.mark.parametrize("block, label", [
    (1, "x-block 1"),
    ("y", "y-block"),
    pytest.param("nan 0, then 1 raises", "x-block 0", id="nan-0-then-1-raises"),
])
def test_non_finite_oracle_output_fails_with_block_and_iteration(block, label):
    case = dcopf.two_bus_fixture()
    rho = 2.0 * case.eta + 1e-10
    make = NanThenRaise if block == "nan 0, then 1 raises" else InfiniteOutput
    problem = make(dcopf.build_problem(case), rho=rho, alpha=1e-2, block=block, iteration=4)
    params = dcopf.solver_params_for(case, rho=rho, alpha=1e-2, tol=1e-5, max_iterations=50)
    result = engine.solve(problem, params, dcopf.lower_bound_init(problem))
    assert result.status == engine.STATUS_ORACLE_FAILURE
    assert result.iterations == 3
    assert result.oracle_error.block == label
    assert result.oracle_error.iteration == 4
    assert f"{label} oracle failed at iteration 4" in str(result.oracle_error)
    assert "not finite" in str(result.oracle_error)
    assert all(np.isfinite(xi).all() for xi in result.state.x)


def test_initial_state_rejects_blocks_of_unequal_shape():
    toy = RecordingProblem()
    with pytest.raises(ValueError, match=r"\(1,\), \(2,\), \(1,\)"):
        engine.initial_state(toy, [np.zeros(1), np.zeros(2), np.zeros(1)], np.zeros(3),
                             np.zeros(3))
    toy.block_shapes = [(1,), (2,), (1,)]
    with pytest.raises(ValueError, match=r"block_shapes \[\(1,\), \(2,\), \(1,\)\]"):
        engine.initial_state(toy, [np.zeros(1), np.zeros(2), np.zeros(1)], np.zeros(3),
                             np.zeros(3))


def eval_f_sum_problems():
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
    rho = 2.0 * case.eta + 1e-10
    two_bus = dcopf.DcOpfBlockProblem(problem, rho=rho, alpha=1e-2)
    frozen = dcopf.DcOpfBlockProblem(dcopf.frozen_u_problem(problem, np.array([1.0, 0.0])),
                                     rho=rho, alpha=1e-2, gamma=0.0)
    instance = rpca.generate_instance(6, 5, 2, 0.2, 1e-2, seed=13)
    decomposition = rpca.RpcaBlockProblem(instance, rpca.RpcaConfig(rows=6, cols=5))
    return [two_bus, frozen, decomposition]


@pytest.mark.parametrize("index", range(3), ids=["two-bus", "frozen-u", "rpca"])
def test_eval_f_sum_equals_the_sum_of_eval_f(index, rng):
    problem = eval_f_sum_problems()[index]
    shape = (problem.num_blocks,) + tuple(problem.block_shapes[0])
    for _ in range(10):
        x = rng.standard_normal(shape) * rng.uniform(0.1, 10.0)
        expected = sum(problem.eval_f(i, xi) for i, xi in enumerate(x))
        assert problem.eval_f_sum(x) == pytest.approx(expected, rel=1e-12)


class Walker(ScalarToy):
    """Not an exact oracle: x walks away while y refuses to follow, so the
    residual and the merit both grow."""

    def solve_x_block(self, i, ctx):
        return ctx.current_iterate + 3.0

    def solve_y_block(self, ctx):
        return ctx.current_iterate


def test_nonmonotone_merit_raises_warning():
    toy = Walker()
    init = engine.initial_state(toy, [np.array([1.0])], np.zeros(1), np.zeros(1))
    params = toy_params(max_iterations=6)
    with pytest.warns(RuntimeWarning, match="merit increased"):
        result = engine.solve(toy, params, init)
    assert result.merit_increase_count > 0
    assert result.max_merit_increase > 0


def test_stationarity_report_at_solution_and_elsewhere():
    toy = ScalarToy()
    params = toy_params()
    zero = engine.initial_state(toy, [np.zeros(1)], np.zeros(1), np.zeros(1))
    report = engine.stationarity_report(toy, params, zero)
    assert report.dual_y <= 1e-10
    assert report.feasibility <= 1e-10
    assert report.x_fixed_point <= 1e-10

    rng = np.random.default_rng(8)
    x = [rng.standard_normal(1)]
    y = rng.standard_normal(1)
    state = engine.initial_state(toy, x, y, rng.standard_normal(1))
    report = engine.stationarity_report(toy, params, state)
    assert report.feasibility == pytest.approx(float(np.linalg.norm(x[0] - y)), rel=REL)


def test_adjoint_and_gradient_consistency_helpers(rng):
    instance = rpca.generate_instance(5, 4, 2, 0.2, 1e-2, seed=21)
    problem = rpca.RpcaBlockProblem(instance, rpca.RpcaConfig(rows=5, cols=4))
    assert engine.check_adjoints(problem, rng) <= 1e-10
    y = rng.standard_normal((5, 4))
    grad = problem.grad_H(y)
    step = 1e-6
    for _ in range(5):
        direction = rng.standard_normal((5, 4))
        numeric = (problem.eval_H(y + step * direction) - problem.eval_H(y - step * direction)) / (
            2 * step
        )
        assert numeric == pytest.approx(float(np.vdot(grad, direction)), abs=1e-5)


def test_solve_reports_every_iterate():
    toy = Walker()  # never converges, so the run uses all 40 iterations
    init = engine.initial_state(toy, [np.array([50.0])], np.zeros(1), np.zeros(1))
    with pytest.warns(RuntimeWarning):
        result = engine.solve(toy, toy_params(max_iterations=40), init)
    assert [r.n for r in result.reports] == list(range(41))
    assert result.reports[-1].n == result.state.n == 40


def test_stop_rule_variants():
    toy = ScalarToy()
    shifted = engine.solve(
        toy, toy_params(stop_tolerance=1e-7, stop_rule=engine.STOP_SHIFTED),
        engine.initial_state(toy, [np.array([1.0])], np.zeros(1), np.zeros(1)),
    )
    relative = engine.solve(
        toy, toy_params(stop_tolerance=1e-7, stop_rule=engine.STOP_RELATIVE),
        engine.initial_state(toy, [np.array([1.0])], np.zeros(1), np.zeros(1)),
    )
    assert shifted.status == engine.STATUS_CONVERGED
    assert relative.status == engine.STATUS_CONVERGED
    # the unshifted denominator is smaller, so it can only stop later
    assert relative.iterations >= shifted.iterations


@pytest.mark.parametrize("max_iterations", [0, 5])
def test_unknown_stop_rule_is_rejected_up_front(max_iterations):
    toy = ScalarToy()
    params = toy_params(stop_rule="bogus", max_iterations=max_iterations)
    with pytest.raises(engine.ParameterError, match="'shifted', 'relative'"):
        engine.validate_parameters(params)
    with pytest.raises(engine.ParameterError, match="bogus"):
        engine.solve(toy, params, engine.initial_state(toy, [np.ones(1)], np.zeros(1), np.zeros(1)))


def test_write_reports_csv_roundtrip(tmp_path):
    toy = ScalarToy()
    result = engine.solve(
        toy, toy_params(),
        engine.initial_state(toy, [np.array([1.0])], np.zeros(1), np.zeros(1)),
    )
    path = tmp_path / "trace.csv"
    engine.write_reports_csv(result.reports, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,L_rho,merit,feasibility,objective,step_x,step_y,step_z"
    assert len(lines) == len(result.reports) + 1
    merit_back = float(lines[1].split(",")[2])
    assert merit_back == pytest.approx(result.reports[0].merit, rel=1e-15)
