import math
import re
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from bpladmm import cli, dcopf, engine, rpca
from bpladmm.spaces import spectral_norm_subgradient
from oracles import (
    random_radial_case,
    rpca_reference_sweep,
    x_subproblem_value,
    y_subproblem_value,
)

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

    def solve_x_block(self, i, x_i, linear_i, z, partial_residual, rho, prox_weight):
        return (prox_weight * x_i - linear_i - z - rho * partial_residual) / (rho + prox_weight)

    def solve_y_block(self, z, x_residual, rho):
        return x_residual + z / rho


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
    logs its partial residual so the Gauss-Seidel ordering can be inspected."""

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

    def solve_x_block(self, i, x_i, linear_i, z, partial_residual, rho, prox_weight):
        self.seen.append((i, partial_residual.copy()))
        return x_i + 1.0

    def solve_y_block(self, z, x_residual, rho):
        return np.zeros(3)


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
    # an alpha that is not positive misses the same gate, whose bound is never negative
    for alpha in (0.0, -1.0):
        with pytest.raises(engine.ParameterError,
                           match=f"alpha = {alpha} must strictly exceed l_P \\+ beta = 0.0"):
            engine.validate_parameters(engine.SolverParams(rho=1.0, strong_convexity=alpha))


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

    def solve_x_block(self, i, x_i, linear_i, z, partial_residual, rho, prox_weight):
        a = self.a[i]
        return (prox_weight * x_i - linear_i - a * z - rho * a * partial_residual) / (
            rho * a * a + prox_weight)

    def solve_y_block(self, z, x_residual, rho):
        return (self.c + z + rho * x_residual) / (1.0 + rho)


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
    assert len(result.merit_increases) == 0
    assert merits[-1] < merits[1]


def test_solve_toy_from_stationary_point_converges_immediately():
    toy = ScalarToy()
    init = engine.initial_state(toy, [np.zeros(1)], np.zeros(1), np.zeros(1))
    result = engine.solve(toy, toy_params(), init)
    assert result.converged
    assert result.iterations <= 2


def test_solve_toy_converges_and_merit_descends():
    toy = ScalarToy(dim=3)
    rng = np.random.default_rng(5)
    init = engine.initial_state(
        toy, [rng.standard_normal(3)], rng.standard_normal(3), rng.standard_normal(3)
    )
    result = engine.solve(toy, toy_params(stop_tolerance=1e-10), init)
    assert result.converged
    merits = [r.merit for r in result.reports]
    slack = 1e-8 * (1.0 + abs(merits[1]))
    assert all(b - a <= slack for a, b in zip(merits[1:], merits[2:]))
    assert len(result.merit_increases) == 0


def test_gauss_seidel_ordering():
    problem = RecordingProblem()
    x = [np.array([10.0]), np.array([20.0]), np.array([30.0])]
    y = np.array([1.0, 2.0, 3.0])
    state = engine.initial_state(problem, x, y, np.zeros(3))
    engine.step(problem, toy_params(rho=2.0), state)
    assert [i for i, _ in problem.seen] == [0, 1, 2]
    # block i sees blocks < i at the new value (old + 1) and blocks > i old,
    # and never its own contribution
    by = -y
    expected = {
        0: np.array([0.0, 20.0, 30.0]) + by,
        1: np.array([11.0, 0.0, 30.0]) + by,
        2: np.array([11.0, 21.0, 0.0]) + by,
    }
    for i, partial in problem.seen:
        assert np.allclose(partial, expected[i], rtol=REL, atol=1e-12)


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
        data = (state.x[i], problem.subgrad_G(state.x)[i] * -1.0, state.z,
                residual - problem.apply_A(i, state.x[i]), params.rho, params.strong_convexity)
        candidate = problem.solve_x_block(i, *data)
        assert x_subproblem_value(problem, i, candidate, *data) <= (
            x_subproblem_value(problem, i, state.x[i], *data) + 1e-10
        )
    y_data = (state.z, residual - problem.apply_B(state.y), params.rho)
    y_new = problem.solve_y_block(*y_data)
    assert y_subproblem_value(problem, y_new, *y_data) <= (
        y_subproblem_value(problem, state.y, *y_data) + 1e-10
    )


def test_merit_reduces_to_augmented_lagrangian_without_displacement():
    toy = ScalarToy()
    params = toy_params(lipschitz_H=1.0, rho=13.0)
    state = engine.initial_state(toy, [np.array([0.4])], np.array([0.9]), np.array([-0.3]))
    assert engine.merit(toy, params, state) == pytest.approx(
        engine.augmented_lagrangian(toy, params.rho, state.x, state.y, state.z), rel=REL
    )


def assert_report_matches_one_shot_functions(problem, params, state, report=None,
                                             previous=None):
    """The report's merit and objective match the one-shot functions, and
    its feasibility and, given ``previous``, its step norms equal
    ``np.linalg.norm`` of the same arrays exactly."""
    report = state.report if report is None else report
    assert report.n == state.n
    assert report.feasibility == np.linalg.norm(state.residual)
    if previous is not None:
        assert (report.step_x, report.step_y, report.step_z) == tuple(
            np.linalg.norm(getattr(state, name) - getattr(previous, name))
            for name in ("x", "y", "z"))
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
    # the report of a start has zero steps, the norms of zero differences
    assert_report_matches_one_shot_functions(problem, params, init, result.reports[0], init)
    assert_report_matches_one_shot_functions(problem, params, result.state)
    state = result.state
    for _ in range(20):
        previous, state = state, engine.step(problem, params, state)
        assert_report_matches_one_shot_functions(problem, params, state, previous=previous)


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
            previous, state = state, engine.step(problem, params, state)
            assert_report_matches_one_shot_functions(problem, params, state, previous=previous)


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
        def solve_x_block(self, i, *data):
            raise np.linalg.LinAlgError("singular subproblem")

    toy = Broken()
    state = engine.initial_state(toy, [np.zeros(1)], np.zeros(1), np.zeros(1))
    with pytest.raises(engine.BlockOracleError, match="x-block 0"):
        engine.step(toy, toy_params(), state)
    with pytest.raises(engine.BlockOracleError, match="x-block 0"):
        engine.solve(toy, toy_params(), state)


class InfiniteOutput(dcopf.DcOpfBlockProblem):
    """A copy of a DC-OPF problem whose chosen block goes infinite from a
    chosen sweep on.  An x block gets an infinite linear cost q, which the
    chunked x sweep meets in its gradient; the y block returns inf.  For
    the "multiplier" the y block returns the finite 1e308, so x and y stay
    finite while rho times the residual, and with it z, overflows."""

    def __init__(self, problem, block, iteration):
        super().__init__(problem.case, problem._stacked_rows, problem._stacked_A,
                         problem._bounds, problem.b, problem.Q_diag, problem.q)
        self.block = block
        self.iteration = iteration
        self.sweep = 0

    def x_sweep(self, state, rho, prox_weight):
        self.sweep += 1
        if isinstance(self.block, int) and self.sweep == self.iteration:
            self.q = self.q.copy()  # the built problem's q stays finite
            self.q[self.block, dcopf.GEN] = np.inf
        return super().x_sweep(state, rho, prox_weight)

    def solve_y_block(self, *data):
        out = super().solve_y_block(*data)
        if self.block in ("y", "multiplier") and self.sweep >= self.iteration:
            out[0] = -np.inf if self.block == "y" else 1e308
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


@pytest.mark.parametrize("block, label", [(1, "x-block 1"), ("y", "y-block"),
                                          ("multiplier", "multiplier")])
def test_non_finite_oracle_output_fails_with_block_and_iteration(block, label):
    case = dcopf.two_bus_fixture()
    problem = InfiniteOutput(dcopf.build_problem(case), block, iteration=4)
    params = dcopf.solver_params_for(case, tol=1e-5, max_iterations=50)
    assert_fails_with_block_and_iteration(problem, params, dcopf.lower_bound_init(problem), label)


def test_an_infinite_linear_term_past_the_first_chunk_names_its_bus():
    # bus 11 is the fourth bus of the x sweep's second chunk, whose inverse
    # mixes it into buses 8-10 if the sweep does not name it first
    case = random_radial_case(20, 0)
    problem = InfiniteOutput(dcopf.build_problem(case), 11, iteration=4)
    params = dcopf.solver_params_for(case, tol=0.0, max_iterations=50)
    assert_fails_with_block_and_iteration(problem, params, dcopf.lower_bound_init(problem),
                                          "x-block 11")


class NanThenRaise(RecordingProblem):
    """Three scalar blocks with f_i(x_i) = x_i and exact oracles on the
    default per-block sweep; f is unbounded below, so the iterate moves
    every sweep.  From the fourth sweep on, block 0 returns NaN, and the
    oracle of block 1, fed the NaN through its partial residual, raises."""

    def __init__(self):
        super().__init__()
        self.sweep = 0

    def solve_x_block(self, i, x_i, linear_i, z, partial_residual, rho, w):
        if i == 0:
            self.sweep += 1
            if self.sweep >= 4:
                return np.full(1, np.nan)
        if not np.isfinite(partial_residual).all():
            raise np.linalg.LinAlgError(f"block {i} cannot solve with a NaN residual")
        return (w * x_i - 1.0 - linear_i - z[i] - rho * partial_residual[i]) / (rho + w)

    def eval_f(self, x):
        return float(np.sum(x))

    def solve_y_block(self, z, x_residual, rho):
        return x_residual + z / rho


def test_oracle_raising_mid_sweep_names_the_first_non_finite_block():
    problem = NanThenRaise()
    init = engine.initial_state(problem, [[1.0], [2.0], [3.0]], np.zeros(3), np.zeros(3))
    assert_fails_with_block_and_iteration(problem, toy_params(max_iterations=50), init,
                                          "x-block 0")


def test_x_sweep_override_that_raises_fails_as_the_x_sweep():
    class Broken(ScalarToy):
        def x_sweep(self, state, rho, prox_weight):
            raise np.linalg.LinAlgError("singular system")

    toy = Broken()
    state = engine.initial_state(toy, [np.zeros(1)], np.zeros(1), np.zeros(1))
    with pytest.raises(engine.BlockOracleError, match="x-sweep oracle failed at iteration 1: "
                                                     "singular system") as failure:
        engine.solve(toy, toy_params(), state)
    assert isinstance(failure.value.cause, np.linalg.LinAlgError)


def test_a_y_oracle_raising_on_a_nan_x_residual_fails_as_the_x_block():
    class NanBlock1(RecordingProblem):
        """Block 1 returns NaN on the fourth sweep; the y oracle raises on
        the NaN x residual that follows."""

        sweeps = 0

        def solve_x_block(self, i, *data):
            self.sweeps += i == 0
            if i == 1 and self.sweeps == 4:
                return np.full(1, np.nan)
            return super().solve_x_block(i, *data)

        def solve_y_block(self, z, x_residual, rho):
            if not np.isfinite(x_residual).all():
                raise ValueError("the x residual is not finite")
            return super().solve_y_block(z, x_residual, rho)

    problem = NanBlock1()
    init = engine.initial_state(problem, [[1.0], [2.0], [3.0]], np.zeros(3), np.zeros(3))
    with pytest.raises(engine.BlockOracleError) as failure:
        engine.run(problem, toy_params(max_iterations=50), init, [])
    assert (failure.value.block, failure.value.iteration) == ("x-block 1", 4)
    assert "not finite" in str(failure.value)


def test_a_finite_step_that_overflows_names_no_block():
    class Huge(ScalarToy):
        def solve_x_block(self, i, *data):
            return np.full(1, 1e200)

    toy = Huge()
    state = engine.initial_state(toy, [np.zeros(1)], np.zeros(1), np.zeros(1))
    new = engine.step(toy, toy_params(), state)
    # (1e200)^2 overflows, so the step norms are inf while x and y are finite
    assert new.x[0, 0] == new.y[0] == 1e200
    assert new.report.step_x == new.report.step_y == math.inf


def test_the_report_stays_frozen_and_keeps_its_fields():
    report = engine.IterationReport(1, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
    with pytest.raises(FrozenInstanceError):
        report.merit = 0.0
    assert cli.TRACE_FIELDS == ("n", "merit", "feasibility", "objective",
                                "step_x", "step_y", "step_z")
    assert (report.n, report.step_z) == (1, 7.0)


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


def test_initial_state_rejects_a_start_that_is_not_finite():
    problem = dcopf.build_problem(dcopf.two_bus_fixture())
    x, p = np.zeros((2, dcopf.BLOCK_DIM)), problem.b.size
    bad_x = x.copy()
    bad_x[1, 0] = np.nan
    bad = np.zeros(p)
    bad[0] = np.inf
    for name, args in (("x", (bad_x, np.zeros(p), np.zeros(p))),
                       ("y", (x, bad, np.zeros(p))), ("z", (x, np.zeros(p), -bad))):
        with pytest.raises(ValueError, match=f"^{name} has an entry that is not finite$"):
            engine.initial_state(problem, *args)


class Walker(ScalarToy):
    """Not an exact oracle: x walks away while y refuses to follow, so the
    residual and the merit both grow."""

    def solve_x_block(self, i, x_i, linear_i, z, partial_residual, rho, prox_weight):
        return x_i + 3.0

    def solve_y_block(self, z, x_residual, rho):
        return np.zeros(1)  # every Walker run starts from y = 0


def test_nonmonotone_merit_raises_warning():
    toy = Walker()
    init = engine.initial_state(toy, [np.array([1.0])], np.zeros(1), np.zeros(1))
    params = toy_params(max_iterations=6)
    with pytest.warns(RuntimeWarning, match="merit increased"):
        result = engine.solve(toy, params, init)
    assert len(result.merit_increases) > 0
    assert max(rise for _, rise in result.merit_increases) > 0


def test_merit_increases_counts_rises_above_the_slack_of_the_first_merit():
    slack = engine.MERIT_SLACK_SCALE * (1.0 + 3.0)
    # a rise of 0.9 slack is within it; 1.1 slack is not, though it is within
    # the slack that the merit -4 before it would give; the start (-100,
    # then a rise of 97) is skipped, and so is the size of its merit
    merits = [-100.0, -3.0, -3.5, -3.5 + 0.9 * slack, -4.0, -4.0 + 1.1 * slack]
    [(n, rise)] = engine.merit_increases(list(enumerate(merits)))
    assert n == 5 and rise == pytest.approx(1.1 * slack, rel=1e-6)
    for short in ([], [5.0], [5.0, 7.0]):  # no two sweeps after the start, no step to check
        assert engine.merit_increases(list(enumerate(short))) == []
    # a step from or to a merit that is not a number is not a descent
    rises = engine.merit_increases(list(enumerate([0.0, 1.0, math.nan, 0.5])))
    assert [n for n, _ in rises] == [2, 3]


def test_merit_increases_names_each_rise_by_its_own_n():
    # a warm start: the rows start at n = 10, and n need not step by one
    rows = [(10, 0.0), (11, 5.0), (12, 4.0), (14, 6.0), (15, 6.5), (20, 6.0)]
    assert engine.merit_increases(rows) == [(14, 2.0), (15, 0.5)]


class NanMerit(ScalarToy):
    """x walks down by 0.5 a sweep and y follows it, so the residual and z
    stay 0 and the merit is f(x) = x; the fourth call of ``eval_f``, the
    report of sweep 3, returns NaN."""

    calls = 0

    def solve_x_block(self, i, x_i, linear_i, z, partial_residual, rho, prox_weight):
        return x_i - 0.5

    def solve_y_block(self, z, x_residual, rho):
        return x_residual.copy()

    def eval_f(self, x):
        self.calls += 1
        return math.nan if self.calls == 4 else float(x.sum())


def test_a_nan_merit_counts_as_an_increase():
    toy = NanMerit()
    init = engine.initial_state(toy, [np.full(1, 1.5)], np.full(1, 1.5), np.zeros(1))
    with pytest.warns(RuntimeWarning, match="merit increased by nan at iteration 3"):
        result = engine.solve(toy, toy_params(max_iterations=6), init)
    merits = [report.merit for report in result.reports]
    assert merits[:3] == [1.5, 1.0, 0.5] and math.isnan(merits[3])
    assert merits[4:] == [-0.5, -1.0, -1.5]
    assert [n for n, _ in result.merit_increases] == [3, 4]
    assert all(math.isnan(rise) for _, rise in result.merit_increases)


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
    assert len(continued.merit_increases) == 9
    assert [n for n, _ in continued.merit_increases] == list(range(12, 21))
    assert max(rise for _, rise in continued.merit_increases) == max(rises)


def test_a_run_that_fails_still_warns_of_its_merit_increases():
    class WalkerThenRaise(Walker):
        sweeps = 0

        def solve_x_block(self, i, *data):
            self.sweeps += 1
            if self.sweeps == 5:
                raise np.linalg.LinAlgError("singular subproblem")
            return super().solve_x_block(i, *data)

    toy = WalkerThenRaise()
    init = engine.initial_state(toy, [np.ones(1)], np.zeros(1), np.zeros(1))
    with pytest.warns(RuntimeWarning, match="at iteration 2"):
        with pytest.raises(engine.BlockOracleError, match="iteration 5"):
            engine.solve(toy, toy_params(max_iterations=10), init)


def test_a_run_that_fails_leaves_its_earlier_reports_in_the_callers_list():
    class RaiseAtSweep3(Walker):  # a Walker never stops, and run does not check its merit
        sweeps = 0

        def solve_x_block(self, i, *data):
            self.sweeps += 1
            if self.sweeps == 3:
                raise np.linalg.LinAlgError("singular subproblem")
            return super().solve_x_block(i, *data)

    toy = RaiseAtSweep3()
    init = engine.initial_state(toy, [np.ones(1)], np.zeros(1), np.zeros(1))
    reports = []
    with pytest.raises(engine.BlockOracleError, match="iteration 3"):
        engine.run(toy, toy_params(max_iterations=10), init, reports)
    assert [r.n for r in reports] == [0, 1, 2]


def test_run_takes_parameters_outside_the_gates_and_solve_rejects_them():
    # admm3's alpha = 0 and rho = 2 with l_H = 1 miss both gates
    toy = ScalarToy()
    params = toy_params(rho=2.0, lipschitz_H=1.0, strong_convexity=0.0, max_iterations=20)
    init = engine.initial_state(toy, [np.ones(1)], np.zeros(1), np.zeros(1))
    with pytest.raises(engine.ParameterError, match="alpha"):
        engine.solve(toy, params, init)
    result = engine.run(toy, params, init, [])
    assert result.iterations == result.state.n == len(result.reports) - 1 > 0
    assert result.merit_increases is None


def test_solve_is_run_plus_the_merit_rule():
    toy = SmoothCoupling(0.7)
    rng = np.random.default_rng(15)
    init = engine.initial_state(toy, rng.standard_normal((2, 3)), rng.standard_normal(3),
                                rng.standard_normal(3))
    params = toy_params(rho=2.5, lipschitz_H=1.0, lipschitz_P=0.7, strong_convexity=0.8,
                        max_iterations=30, stop_tolerance=0.0)
    reports = []
    ran, solved = engine.run(toy, params, init, reports), engine.solve(toy, params, init)
    assert ran.reports is reports and solved.reports == reports
    for a, b in ((ran.state.x, solved.state.x), (ran.state.y, solved.state.y),
                 (ran.state.z, solved.state.z), (ran.state.residual, solved.state.residual)):
        assert np.array_equal(a, b)
    assert (ran.converged, ran.iterations) == (solved.converged, solved.iterations)
    assert ran.merit_increases is None and solved.merit_increases == []


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


class Stuck(ScalarToy):
    """x and y never move off x = 1, y = 0, so only the multiplier does."""

    def solve_x_block(self, i, x_i, linear_i, z, partial_residual, rho, prox_weight):
        return x_i.copy()

    def solve_y_block(self, z, x_residual, rho):
        return np.zeros(1)


def test_the_stop_rule_counts_the_multiplier():
    # x and y stand still, so only a moving z keeps the run going to its cap;
    # run, not solve: the merit rises with z, and solve would warn
    toy = Stuck()
    init = engine.initial_state(toy, [np.ones(1)], np.zeros(1), np.zeros(1))
    result = engine.run(toy, engine.SolverParams(rho=3.0, max_iterations=5), init, [])
    assert [r.step_z for r in result.reports[1:]] == [3.0] * 5  # rho times the residual 1
    assert all(r.step_x == r.step_y == 0.0 for r in result.reports[1:])
    assert (result.converged, result.iterations) == (False, 5)


@pytest.mark.parametrize("setting, message", [
    (dict(max_iterations=-1), "max_iterations must be non-negative, got -1"),
    (dict(max_iterations=10.0), "max_iterations must be an integer, got 10.0"),
    (dict(max_iterations=True), "max_iterations must be an integer, got True"),
    (dict(max_iterations=False), "max_iterations must be an integer, got False"),
    (dict(stop_tolerance=-1e-6), "stop_tolerance must be non-negative, got -1e-06"),
    (dict(stop_tolerance=math.nan), "stop_tolerance must be non-negative, got nan"),
    (dict(stop_tolerance=math.inf), "stop_tolerance must be finite, got inf"),
], ids=["max_iterations", "float_max_iterations", "true_max_iterations",
        "false_max_iterations", "negative_tolerance", "nan_tolerance", "inf_tolerance"])
def test_run_rejects_a_bad_loop_setting_outside_the_gates(setting, message):
    # admm3's alpha = 0 and rho = 2 with l_H = 1 miss both gates, which run does not check
    toy = ScalarToy()
    init = engine.initial_state(toy, [np.ones(1)], np.zeros(1), np.zeros(1))
    reports = []
    with pytest.raises(engine.ParameterError, match=re.escape(message)):
        params = toy_params(rho=2.0, lipschitz_H=1.0, strong_convexity=0.0, **setting)
        engine.run(toy, params, init, reports)
    assert reports == []


@pytest.mark.parametrize("setting, message", [
    (dict(stop_tolerance=math.inf), "stop_tolerance must be finite, got inf"),
    (dict(max_iterations=True), "max_iterations must be an integer, got True"),
    (dict(rho=math.nan), "rho must be finite, got nan"),
], ids=["inf_tolerance", "true_max_iterations", "nan_rho"])
def test_parameters_check_themselves_when_replaced(setting, message):
    # the frozen-u recheck and the admm3 baseline derive their parameters by replace
    with pytest.raises(engine.ParameterError, match=re.escape(message)):
        replace(toy_params(), **setting)
