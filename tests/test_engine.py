import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bpladmm import dcopf, engine, rpca
from bpladmm.spaces import spectral_norm_subgradient
from oracles import rpca_reference_sweep, x_subproblem_value, y_subproblem_value

REL = 1e-10


class ScalarToy(engine.BlockProblem):
    """m = 1, f = H = P = G = 0, A = I, B = -I, b = 0; exact solution x = y."""

    num_blocks = 1

    def __init__(self, dim=1):
        self.block_shape = self.y_shape = (dim,)
        self.b = np.zeros(dim)

    def apply_A(self, i, x):
        return x

    def apply_B(self, y):
        return -y

    def solve_x_block(self, i, ctx):
        return (
            ctx.prox_weight * ctx.current_iterate
            - ctx.linear_term
            - ctx.multiplier
            - ctx.rho * ctx.partial_residual
        ) / (ctx.rho + ctx.prox_weight)

    def solve_y_block(self, ctx):
        return ctx.x_residual + ctx.multiplier / ctx.rho


def toy_params(**overrides):
    defaults = dict(
        rho=3.0,
        strong_convexity=1.0,
        lambda_min_BtB=1.0,
        stop_tolerance=1e-9,
    )
    defaults.update(overrides)
    return engine.SolverParams(**defaults)


class RecordingProblem(engine.BlockProblem):
    """Three scalar blocks embedded as the coordinates of R^3; the oracle
    logs its context so the Gauss-Seidel ordering can be inspected."""

    num_blocks, block_shape = 3, (1,)

    def __init__(self):
        self.y_shape = (3,)
        self.b = np.zeros(3)
        self.seen = []

    def apply_A(self, i, x):
        out = np.zeros(3)
        out[i] = x[0]
        return out

    def apply_B(self, y):
        return -y

    def solve_x_block(self, i, ctx):
        self.seen.append((i, ctx.partial_residual.copy()))
        return ctx.current_iterate + 1.0

    def solve_y_block(self, ctx):
        return np.zeros(3)


class RowRecordingProblem(RecordingProblem):
    """RecordingProblem with block i declared to touch row i only."""

    def block_rows(self, i):
        return [i]

    def apply_A(self, i, x):
        return x.copy()


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


def test_validate_parameters_alpha_gate():
    # l_P = beta = 0 makes the alpha bound 0, so any alpha > 0 passes
    alpha_bound, _ = engine.validate_parameters(engine.SolverParams(rho=1.0, strong_convexity=0.5))
    assert alpha_bound == 0.0
    with pytest.raises(engine.ParameterError, match=r"alpha = 0.5 must strictly exceed .* 1.0"):
        engine.validate_parameters(
            engine.SolverParams(rho=10.0, lipschitz_P=1.0, strong_convexity=0.5)
        )


def test_validate_parameters_iteration_cap_and_tolerance():
    # zero is a valid cap and a valid tolerance
    engine.validate_parameters(toy_params(max_iterations=0, stop_tolerance=0.0))
    for field, value in (("max_iterations", -1), ("stop_tolerance", -1e-12),
                         ("stop_tolerance", float("nan"))):
        with pytest.raises(engine.ParameterError, match=f"{field} must be non-negative"):
            engine.validate_parameters(toy_params(**{field: value}))


def test_validate_parameters_rejects_non_finite_and_negative_constants():
    inf, nan = float("inf"), float("nan")
    for field, value in (("rho", inf), ("strong_convexity", inf), ("lambda_min_BtB", inf),
                         ("rho", nan)):
        with pytest.raises(engine.ParameterError, match=f"{field} must be finite, got {value}"):
            engine.validate_parameters(toy_params(**{field: value}))
    for field in ("lipschitz_H", "lipschitz_P", "weak_convexity_G"):
        for value in (-1.0, inf, nan):
            with pytest.raises(engine.ParameterError,
                               match=f"{field} must be finite and non-negative, got {value}"):
                engine.validate_parameters(toy_params(**{field: value}))


def test_validate_parameters_rank_deficient_B():
    with pytest.raises(engine.ParameterError, match="full column rank"):
        engine.validate_parameters(engine.SolverParams(rho=1.0, lambda_min_BtB=0.0))


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
        report = state.report
        assert report.step_z == pytest.approx(params.rho * report.feasibility, rel=1e-12)


def test_proximal_weight_is_strong_convexity():
    # with strong_convexity = 2 alpha an engine sweep is the closed-form sweep
    # of alpha' = 2 alpha; a weight taken from the config's alpha instead of
    # the params would miss it by far more than 1e-10
    instance = rpca.generate_instance(6, 5, 2, 0.2, 1e-2, seed=17)
    config = rpca.RpcaConfig(rows=6, cols=5)
    problem = rpca.RpcaBlockProblem(instance, config)
    params = replace(config.solver_params(), strong_convexity=2.0 * config.alpha)
    L, S, Z = np.random.default_rng(3).standard_normal((3, 6, 5))
    state = engine.step(problem, params, engine.initial_state(problem, [L, S], instance.M, Z))
    reference = rpca_reference_sweep(L, S, instance.M, Z, instance.M, config.tau_value,
                                     config.gamma, config.rho, 2.0 * config.alpha,
                                     spectral_norm_subgradient(S))
    for mine, closed_form in zip((state.x[0], state.x[1], state.y, state.z), reference):
        assert np.abs(mine - closed_form).max() <= 1e-10


class SmoothCoupling(engine.BlockProblem):
    """Two blocks in R^3 with P(x) = (l/2)||x||^2, A_0 = a_0 I, A_1 = a_1 I,
    B = -I, b = 0 and H(y) = (1/2)||y - c||^2; f = G = 0."""

    num_blocks, block_shape, y_shape = 2, (3,), (3,)
    a = (1.0, -2.0)

    def __init__(self, l):
        self.l = l
        self.c = np.array([0.5, -1.0, 2.0])
        self.b = np.zeros(3)

    def apply_A(self, i, x):
        return self.a[i] * x

    def apply_B(self, y):
        return -y

    def eval_P(self, x):
        return 0.5 * self.l * float(np.vdot(x, x))

    def grad_P(self, x):
        return self.l * x

    def eval_H(self, y):
        return 0.5 * float(np.vdot(y - self.c, y - self.c))

    def solve_x_block(self, i, ctx):
        a = self.a[i]
        return (ctx.prox_weight * ctx.current_iterate - ctx.linear_term - a * ctx.multiplier
                - ctx.rho * a * ctx.partial_residual) / (ctx.rho * a * a + ctx.prox_weight)

    def solve_y_block(self, ctx):
        return (self.c + ctx.multiplier + ctx.rho * ctx.x_residual) / (1.0 + ctx.rho)


def test_smooth_coupling_enters_the_sweep_and_the_merit_descends():
    l = 0.7
    toy = SmoothCoupling(l)
    params = toy_params(rho=2.5, lipschitz_H=1.0, lipschitz_P=l, strong_convexity=l * (1 + 1e-6),
                        max_iterations=50, stop_tolerance=0.0)
    rng = np.random.default_rng(12)
    x, y, z = rng.standard_normal((2, 3)), rng.standard_normal(3), rng.standard_normal(3)
    state = engine.step(toy, params, engine.initial_state(toy, x, y, z))

    # the sweep by hand: block i's linear term is grad_i P(x_n) = l x_{i,n}
    (a0, a1), rho, w = toy.a, params.rho, params.strong_convexity
    x0 = (w * x[0] - l * x[0] - a0 * z - rho * a0 * (a1 * x[1] - y)) / (rho * a0 * a0 + w)
    x1 = (w * x[1] - l * x[1] - a1 * z - rho * a1 * (a0 * x0 - y)) / (rho * a1 * a1 + w)
    y1 = (toy.c + z + rho * (a0 * x0 + a1 * x1)) / (1.0 + rho)
    z1 = z + rho * (a0 * x0 + a1 * x1 - y1)
    for mine, by_hand in ((state.x[0], x0), (state.x[1], x1), (state.y, y1), (state.z, z1)):
        assert np.allclose(mine, by_hand, rtol=1e-12, atol=1e-12)

    # alpha just above l_P: the merit, which includes P, must not increase
    result = engine.solve(toy, params, engine.initial_state(toy, x, y, z))
    assert result.iterations == 50
    merits = [r.merit for r in result.reports]
    slack = 1e-8 * (1.0 + abs(merits[1]))
    assert all(later - earlier <= slack for earlier, later in zip(merits[1:], merits[2:]))
    assert result.merit_increase_count == 0
    assert merits[-1] < merits[1]


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
        assert a.report == b.report


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
            prox_weight=params.strong_convexity,
        )
        candidate = problem.solve_x_block(i, ctx)
        assert x_subproblem_value(problem, ctx, candidate) <= (
            x_subproblem_value(problem, ctx, state.x[i]) + 1e-10
        )
    y_ctx = engine.YBlockContext(
        multiplier=state.z,
        x_residual=residual - problem.apply_B(state.y),
        rho=params.rho,
    )
    y_new = problem.solve_y_block(y_ctx)
    assert y_subproblem_value(problem, y_ctx, y_new) <= (
        y_subproblem_value(problem, y_ctx, state.y) + 1e-10
    )


def test_merit_reduces_to_augmented_lagrangian_without_displacement():
    toy = ScalarToy()
    params = toy_params(lipschitz_H=1.0, rho=13.0)
    state = engine.initial_state(toy, [np.array([0.4])], np.array([0.9]), np.array([-0.3]))
    assert engine.merit(toy, params, state) == pytest.approx(
        engine.augmented_lagrangian(toy, params.rho, state.x, state.y, state.z), rel=REL
    )


def assert_report_matches_one_shot_functions(problem, params, state, report=None):
    report = state.report if report is None else report
    assert report.n == state.n
    l_rho = engine.augmented_lagrangian(problem, params.rho, state.x, state.y, state.z)
    assert report.merit == pytest.approx(l_rho, rel=1e-12)
    assert report.merit == pytest.approx(engine.merit(problem, params, state), rel=1e-12)
    assert report.objective == pytest.approx(
        engine.objective_value(problem, state.x, state.y), rel=1e-12
    )


def test_report_matches_one_shot_functions_on_two_bus_fixture():
    case = dcopf.two_bus_fixture()
    problem = dcopf.build_problem(case)
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
    # BPL-ADMM's model, and admm3's: no spectral term, alpha = 0, rho = 2
    admm3 = engine.SolverParams(rho=2.0, lipschitz_H=config.gamma, strong_convexity=0.0)
    for problem, params in ((rpca.RpcaBlockProblem(instance, config), config.solver_params()),
                            (rpca.PlainRpcaBlockProblem(instance, config), admm3)):
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
    with pytest.raises(engine.BlockOracleError, match="x-block 0"):
        engine.solve(toy, toy_params(), state)


class InfiniteOutput(dcopf.DcOpfBlockProblem):
    """A copy of a DC-OPF problem whose chosen block goes infinite from a
    chosen sweep on.  An x block gets an infinite linear term, which the
    fused x sweep carries through its per-bus products; the y block returns
    inf."""

    def __init__(self, problem, block, iteration):
        super().__init__(problem.case, problem.rows, problem.blocks, problem.b, problem.Q_diag,
                         problem.q)
        self.block = block
        self.iteration = iteration
        self.sweep = 0

    def x_sweep(self, state, linear, rho, prox_weight):
        self.sweep += 1
        if self.block != "y" and self.sweep >= self.iteration:
            linear = linear.copy()
            linear[self.block, dcopf.GEN] = np.inf
        return super().x_sweep(state, linear, rho, prox_weight)

    def solve_y_block(self, ctx):
        out = super().solve_y_block(ctx)
        if self.block == "y" and self.sweep >= self.iteration:
            out[0] = -np.inf
        return out


def assert_fails_with_block_and_iteration(problem, params, init, label):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(engine.BlockOracleError) as failure:
            engine.solve(problem, params, init)
    # the error reports the non-finite output; numpy does not warn about it first
    assert [str(w.message) for w in caught] == []
    assert failure.value.block == label
    assert failure.value.iteration == 4
    assert f"{label} oracle failed at iteration 4" in str(failure.value)
    assert "not finite" in str(failure.value)


@pytest.mark.parametrize("block, label", [(1, "x-block 1"), ("y", "y-block")])
def test_non_finite_oracle_output_fails_with_block_and_iteration(block, label):
    case = dcopf.two_bus_fixture()
    problem = InfiniteOutput(dcopf.build_problem(case), block, iteration=4)
    params = dcopf.solver_params_for(case, tol=1e-5, max_iterations=50)
    assert_fails_with_block_and_iteration(problem, params, dcopf.lower_bound_init(problem), label)


class NanThenRaise(RecordingProblem):
    """Three scalar blocks with f_i(x_i) = x_i and exact oracles on the
    default per-block sweep; f is unbounded below, so the iterate moves
    every sweep.  From the fourth sweep on, block 0 returns NaN, and the
    oracle of block 1, fed the NaN through its partial residual, raises."""

    def __init__(self):
        super().__init__()
        self.sweep = 0

    def solve_x_block(self, i, ctx):
        if i == 0:
            self.sweep += 1
            if self.sweep >= 4:
                return np.full(1, np.nan)
        if not np.isfinite(ctx.partial_residual).all():
            raise np.linalg.LinAlgError(f"block {i} cannot solve with a NaN residual")
        w = ctx.prox_weight
        return (w * ctx.current_iterate - 1.0 - ctx.linear_term - ctx.multiplier[i]
                - ctx.rho * ctx.partial_residual[i]) / (ctx.rho + w)

    def eval_f(self, x):
        return float(np.sum(x))

    def solve_y_block(self, ctx):
        return ctx.x_residual + ctx.multiplier / ctx.rho


def test_oracle_raising_mid_sweep_names_the_first_non_finite_block():
    problem = NanThenRaise()
    init = engine.initial_state(problem, [[1.0], [2.0], [3.0]], np.zeros(3), np.zeros(3))
    assert_fails_with_block_and_iteration(problem, toy_params(max_iterations=50), init,
                                          "x-block 0")


def test_x_sweep_override_that_raises_fails_as_the_x_sweep():
    class Broken(ScalarToy):
        def x_sweep(self, state, linear, rho, prox_weight):
            raise np.linalg.LinAlgError("singular system")

    toy = Broken()
    state = engine.initial_state(toy, [np.zeros(1)], np.zeros(1), np.zeros(1))
    with pytest.raises(engine.BlockOracleError, match="x-sweep oracle failed at iteration 1: "
                                                     "singular system") as failure:
        engine.solve(toy, toy_params(), state)
    assert isinstance(failure.value.cause, np.linalg.LinAlgError)


def test_initial_state_rejects_blocks_of_unequal_shape():
    toy = RecordingProblem()
    with pytest.raises(ValueError, match=r"\(1,\), \(2,\), \(1,\)"):
        engine.initial_state(toy, [np.zeros(1), np.zeros(2), np.zeros(1)], np.zeros(3),
                             np.zeros(3))
    # equal blocks that do not stack to (num_blocks, *block_shape)
    for x in ([np.zeros(2)] * 3, [np.zeros(1)] * 2, np.zeros((3, 1, 1))):
        with pytest.raises(ValueError, match=r"do not stack to \(3, 1\)"):
            engine.initial_state(toy, x, np.zeros(3), np.zeros(3))


def test_initial_state_rejects_a_y_or_z_of_the_wrong_shape():
    problem = dcopf.build_problem(dcopf.two_bus_fixture())
    x, p = np.zeros((2, dcopf.BLOCK_DIM)), problem.b.size
    with pytest.raises(ValueError, match=re.escape(f"y of shape (1,) is not of shape ({p},)")):
        engine.initial_state(problem, x, np.zeros(1), np.zeros(p))
    with pytest.raises(ValueError, match=re.escape(f"z of shape ({p}, 1) is not of shape ({p},)")):
        engine.initial_state(problem, x, np.zeros(p), np.zeros((p, 1)))


class Walker(ScalarToy):
    """Not an exact oracle: x walks away while y refuses to follow, so the
    residual and the merit both grow."""

    def solve_x_block(self, i, ctx):
        return ctx.current_iterate + 3.0

    def solve_y_block(self, ctx):
        return np.zeros(1)  # every Walker run starts from y = 0


def test_nonmonotone_merit_raises_warning():
    toy = Walker()
    init = engine.initial_state(toy, [np.array([1.0])], np.zeros(1), np.zeros(1))
    params = toy_params(max_iterations=6)
    with pytest.warns(RuntimeWarning, match="merit increased"):
        result = engine.solve(toy, params, init)
    assert result.merit_increase_count > 0
    assert result.max_merit_increase > 0


def test_merit_increases_counts_rises_above_the_slack_of_the_first_merit():
    # slack 0.25 * (1 + |-3|) = 1: the rise of 0.5 is within it, the rises of 2 and 6 are not
    merits = [-3.0, -3.5, -3.0, -1.0, -1.0, 5.0]
    assert engine.merit_increases(merits, slack_scale=0.25) == [(3, 2.0), (5, 6.0)]
    assert engine.merit_increases(merits, slack_scale=0.0) == [(2, 0.5), (3, 2.0), (5, 6.0)]
    assert engine.merit_increases([5.0]) == engine.merit_increases([]) == []


def test_a_warm_started_run_checks_its_own_sweeps():
    toy = Walker()
    params = toy_params(max_iterations=10)
    with pytest.warns(RuntimeWarning, match="merit increased"):
        first = engine.solve(toy, params, engine.initial_state(toy, [np.ones(1)], np.zeros(1),
                                                               np.zeros(1)))
    assert first.state.n == 10
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        continued = engine.solve(toy, params, first.state)
    # the sweeps n = 11..20 rise 9 times; the step from the starting state is not checked
    assert [str(w.message).split(";")[0] for w in caught] == [
        f"merit increased by {continued.reports[2].merit - continued.reports[1].merit:.3e} "
        "at iteration 12"]
    rises = [b.merit - a.merit for a, b in zip(continued.reports[1:], continued.reports[2:])]
    assert continued.merit_increase_count == 9
    assert continued.max_merit_increase == max(rises)


def test_a_run_that_fails_still_warns_of_its_merit_increases():
    class WalkerThenRaise(Walker):
        sweeps = 0

        def solve_x_block(self, i, ctx):
            self.sweeps += 1
            if self.sweeps == 5:
                raise np.linalg.LinAlgError("singular subproblem")
            return super().solve_x_block(i, ctx)

    toy = WalkerThenRaise()
    init = engine.initial_state(toy, [np.ones(1)], np.zeros(1), np.zeros(1))
    with pytest.warns(RuntimeWarning, match="at iteration 2"):
        with pytest.raises(engine.BlockOracleError, match="iteration 5"):
            engine.solve(toy, toy_params(max_iterations=10), init)


def test_solve_reports_every_iterate():
    toy = Walker()  # never converges, so the run uses all 40 iterations
    init = engine.initial_state(toy, [np.array([50.0])], np.zeros(1), np.zeros(1))
    with pytest.warns(RuntimeWarning):
        result = engine.solve(toy, toy_params(max_iterations=40), init)
    assert [r.n for r in result.reports] == list(range(41))
    assert result.reports[-1].n == result.state.n == 40


def test_each_solve_and_step_keeps_its_own_reports():
    toy = SmoothCoupling(0.7)  # never lands exactly, so tol 0 runs to the cap
    rng = np.random.default_rng(14)
    init = engine.initial_state(toy, rng.standard_normal((2, 3)), rng.standard_normal(3),
                                rng.standard_normal(3))
    x0 = init.x.copy()
    params = toy_params(rho=2.5, lipschitz_H=1.0, lipschitz_P=0.7, strong_convexity=0.8,
                        max_iterations=50, stop_tolerance=0.0)
    a, b = engine.solve(toy, params, init), engine.solve(toy, params, init)
    assert a.reports is not b.reports
    for result in (a, b):
        assert result.iterations == 50
        assert [r.n for r in result.reports] == list(range(51))
    assert a.reports == b.reports
    assert init.report is None and init.n == 0 and np.array_equal(init.x, x0)

    # two steps from one state: each result carries the one report of its own iterate
    first, second = engine.step(toy, params, a.state), engine.step(toy, params, a.state)
    assert first.report == second.report and first.report is not second.report
    assert first.report.n == 51 and a.state.report is a.reports[-1]
    # a run continued from a stepped state starts from that state's report
    continued = engine.solve(toy, replace(params, max_iterations=2), first)
    assert continued.reports[0] is first.report
    assert [r.n for r in continued.reports] == [51, 52, 53]


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


class Stuck(ScalarToy):
    """x and y never move off x = 1, y = 0, so only the multiplier does."""

    def solve_x_block(self, i, ctx):
        return ctx.current_iterate.copy()

    def solve_y_block(self, ctx):
        return np.zeros(1)


def test_shifted_stop_rule_leaves_the_multiplier_out():
    toy = Stuck()
    init = engine.initial_state(toy, [np.ones(1)], np.zeros(1), np.zeros(1))
    result = engine.solve(toy, toy_params(stop_rule=engine.STOP_SHIFTED, max_iterations=5), init)
    assert result.reports[-1].step_z == 3.0  # rho times the residual 1
    assert (result.status, result.iterations) == (engine.STATUS_CONVERGED, 1)


@pytest.mark.parametrize("max_iterations", [0, 5])
def test_unknown_stop_rule_is_rejected_up_front(max_iterations):
    toy = ScalarToy()
    params = toy_params(stop_rule="bogus", max_iterations=max_iterations)
    with pytest.raises(engine.ParameterError, match="'shifted', 'relative'"):
        engine.validate_parameters(params)
    with pytest.raises(engine.ParameterError, match="bogus"):
        engine.solve(toy, params, engine.initial_state(toy, [np.ones(1)], np.zeros(1), np.zeros(1)))
