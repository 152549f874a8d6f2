import math
import re
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from bpladmm import engine, rpca, spaces
from bpladmm.spaces import spectral_norm_subgradient, stacked_norm
from oracles import nuclear_norm, rpca_reference_sweep, spectral_norm_eig

REL = 1e-10


def small_instance(seed=7):
    return rpca.generate_instance(5, 5, 2, 0.2, 1e-2, seed=seed)


def test_generate_instance_sparsity_count_is_exact():
    instance = rpca.generate_instance(100, 100, 10, 0.05, 1e-2, seed=0)
    assert np.count_nonzero(instance.S_O) == 500


def test_generate_instance_rank():
    instance = rpca.generate_instance(100, 100, 10, 0.05, 1e-2, seed=1)
    assert np.linalg.matrix_rank(instance.L_O) == 10
    assert rpca.numerical_rank(instance.L_O) == 10


def test_generate_instance_noise_free_identity():
    instance = rpca.generate_instance(30, 20, 3, 0.1, 0.0, seed=2)
    assert np.array_equal(instance.M, instance.L_O + instance.S_O)
    assert np.array_equal(instance.T_O, instance.L_O + instance.S_O)


def test_generate_instance_is_reproducible():
    a = rpca.generate_instance(12, 9, 2, 0.1, 1e-2, seed=42)
    b = rpca.generate_instance(12, 9, 2, 0.1, 1e-2, seed=42)
    assert np.array_equal(a.M, b.M)
    assert np.array_equal(a.S_O, b.S_O)


def test_generate_instance_rejects_bad_arguments():
    with pytest.raises(ValueError, match="rank"):
        rpca.generate_instance(5, 5, 6, 0.1, 0.0, seed=0)
    with pytest.raises(ValueError, match="sparsity"):
        rpca.generate_instance(5, 5, 2, 1.5, 0.0, seed=0)
    for noise in (-1e-2, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"noise must be finite and non-negative, got {noise}"):
            rpca.generate_instance(5, 5, 2, 0.1, noise, seed=0)


def test_config_tau():
    config = rpca.RpcaConfig(rows=100, cols=100)
    assert config.tau_value == pytest.approx(0.1, rel=REL)
    rect = rpca.RpcaConfig(rows=200, cols=100)
    assert rect.tau_value == pytest.approx(1.0 / np.sqrt(200), rel=REL)


def test_default_penalty_follows_gamma():
    # bit-equal to the former fixed default 2 + 1e-10 at gamma = 1
    assert rpca.RpcaConfig(rows=5, cols=5).rho == 2.0 + 1e-10
    config = rpca.RpcaConfig(rows=5, cols=5, gamma=2.0)
    assert config.rho == 4.0 + 1e-10
    assert engine.validate_parameters(config.solver_params())[1] == pytest.approx(4.0, rel=1e-14)
    assert rpca.RpcaConfig(rows=5, cols=5, gamma=2.0, rho=9.5).rho == 9.5
    assert rpca.bpl_admm_rpca(small_instance(), config, init_seed=1).converged


@pytest.mark.parametrize("entry", [partial(rpca.bpl_admm_rpca, init_seed=1),
                                   partial(rpca.admm3_baseline, init_seed=1),
                                   rpca.RpcaBlockProblem], ids=["bpl", "admm3", "block-problem"])
def test_config_of_another_shape_is_rejected(entry):
    # a 100x100 config would run a 6x5 instance with tau 0.1 instead of 1/sqrt(6)
    instance = rpca.generate_instance(6, 5, 2, 0.2, 1e-2, seed=3)
    with pytest.raises(ValueError, match=r"shape \(6, 5\) .* shape \(100, 100\)"):
        entry(instance, rpca.RpcaConfig(rows=100, cols=100))


def test_solver_accepts_configured_parameters():
    config = rpca.RpcaConfig(rows=50, cols=50)
    bounds = engine.validate_parameters(config.solver_params())
    assert bounds == (0.0, pytest.approx(2.0, abs=1e-12))


def test_zero_observation_converges_to_zero():
    zero = np.zeros((8, 8))
    instance = rpca.RpcaInstance(M=zero, L_O=zero, S_O=zero, T_O=zero)
    config = rpca.RpcaConfig(rows=8, cols=8)
    solution = rpca.bpl_admm_rpca(instance, config, init_seed=5)
    assert solution.converged
    assert stacked_norm([solution.L, solution.S, solution.T]) < 1e-4


def test_engine_step_equals_closed_form_sweeps():
    instance = small_instance()
    config = rpca.RpcaConfig(rows=5, cols=5)
    rng = np.random.default_rng(123)
    L = rng.standard_normal((5, 5))
    S = rng.standard_normal((5, 5))
    T = instance.M.copy()
    Z = np.zeros((5, 5))

    problem = rpca.RpcaBlockProblem(instance, config)
    params = config.solver_params()
    state = engine.initial_state(problem, [L, S], T, Z)

    Lc, Sc, Tc, Zc = L.copy(), S.copy(), T.copy(), Z.copy()
    tau = config.tau_value
    for _ in range(10):
        g2 = spectral_norm_subgradient(Sc)
        Lc, Sc, Tc, Zc = rpca_reference_sweep(
            Lc, Sc, Tc, Zc, instance.M, tau, config.gamma, config.rho, config.alpha, g2
        )
        state = engine.step(problem, params, state)
        assert np.allclose(state.x[0], Lc, atol=1e-10)
        assert np.allclose(state.x[1], Sc, atol=1e-10)
        assert np.allclose(state.y, Tc, atol=1e-10)
        assert np.allclose(state.z, Zc, atol=1e-10)


@pytest.mark.parametrize("solver", [rpca.bpl_admm_rpca, rpca.admm3_baseline],
                         ids=["bpl", "admm3"])
def test_non_finite_observation_is_rejected_as_a_start(solver):
    instance = small_instance(seed=4)
    M = instance.M.copy()
    M[2, 3] = np.nan
    broken = rpca.RpcaInstance(M=M, L_O=instance.L_O, S_O=instance.S_O, T_O=instance.T_O)
    # T = y starts at M, so the start is not finite and no oracle runs
    with pytest.raises(ValueError, match="^y has an entry that is not finite$"):
        solver(broken, rpca.RpcaConfig(rows=5, cols=5), init_seed=1)


@pytest.mark.parametrize("solver", [rpca.bpl_admm_rpca, rpca.admm3_baseline],
                         ids=["bpl", "admm3"])
def test_non_finite_soft_shrinkage_input_names_the_s_block(solver, monkeypatch):
    # an L shrinkage returning huge finite values overflows the S
    # shrinkage's input, and the engine finds the S shrinkage's output not finite
    def huge(M, c, start):
        return np.full(M.shape, -1e308), 0.0, None

    monkeypatch.setattr(rpca, "singular_value_shrink_with_norm", huge)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(engine.BlockOracleError,
                           match="x-block 1 oracle failed at iteration 1") as info:
            solver(small_instance(seed=3), rpca.RpcaConfig(rows=5, cols=5), init_seed=1)
    assert "not finite" in str(info.value)


def test_baseline_sweep_coincides_when_modifications_off():
    # admm3 is the closed-form recursion with the proximal weight zeroed and
    # no spectral subgradient, started like BPL from the init seed's L and S
    instance = small_instance(seed=3)
    config = rpca.RpcaConfig(rows=5, cols=5, tolerance=0.0, max_iterations=10)
    solution = rpca.admm3_baseline(instance, config, init_seed=0)
    assert solution.iterations == 10
    rng = np.random.default_rng(0)
    L = rng.standard_normal((5, 5))
    S = rng.standard_normal((5, 5))
    T = instance.M.copy()
    Z = np.zeros((5, 5))
    for _ in range(10):
        L, S, T, Z = rpca_reference_sweep(L, S, T, Z, instance.M, config.tau_value,
                                          config.gamma, 2.0, 0.0, 0.0)
    for mine, reference in ((solution.L, L), (solution.S, S), (solution.T, T), (solution.Z, Z)):
        assert np.abs(mine - reference).max() <= 1e-10


def test_solution_metrics_at_ground_truth():
    instance = small_instance(seed=5)
    solution = rpca.RpcaSolution(
        L=instance.L_O, S=instance.S_O, T=instance.T_O, Z=np.zeros((5, 5)),
        iterations=0, wall_time=0.0, converged=True, relative_error=0.0,
        rank_L=0, sparsity_S=0, reports=[],
    )
    re, rank_l, sparsity = rpca.recovery_metrics(solution, instance)
    assert re == 0.0
    assert rank_l == 2  # small_instance: rank 2, round(0.2 * 25) nonzeros
    assert sparsity == 5


def test_relative_error_perturbation_example(rng):
    # ||truth triple|| = 9 and a unit perturbation of L gives RE = 0.1
    direction = rng.standard_normal((6, 6))
    direction /= np.linalg.norm(direction)
    base = rng.standard_normal((6, 6))
    scaled = base * (9.0 / np.sqrt(2) / np.linalg.norm(base))
    truth = (scaled, np.zeros((6, 6)), scaled)
    assert stacked_norm(list(truth)) == pytest.approx(9.0, rel=REL)
    estimate = (scaled + direction, np.zeros((6, 6)), scaled)
    assert rpca.relative_error(estimate, truth) == pytest.approx(0.1, rel=1e-9)


def test_numerical_rank_threshold():
    padded = np.zeros((100, 100))
    padded[0, 0] = 1.0
    padded[1, 1] = 1e-18
    assert rpca.numerical_rank(padded) == 1
    assert rpca.numerical_rank(np.zeros((4, 4))) == 0


def test_recovery_metrics_rejects_shape_mismatch():
    instance = small_instance()
    solution = rpca.RpcaSolution(
        L=np.zeros((4, 4)), S=np.zeros((4, 4)), T=np.zeros((4, 4)), Z=np.zeros((4, 4)),
        iterations=0, wall_time=0.0, converged=True, relative_error=0.0,
        rank_L=0, sparsity_S=0, reports=[],
    )
    with pytest.raises(ValueError):
        rpca.recovery_metrics(solution, instance)


def test_feasibility_decreases_and_merit_monotone_on_small_run():
    instance = rpca.generate_instance(20, 20, 3, 0.1, 1e-2, seed=13)
    config = rpca.RpcaConfig(rows=20, cols=20)
    solution = rpca.bpl_admm_rpca(instance, config, init_seed=99)
    assert solution.converged
    final = solution.reports[-1]
    assert final.feasibility <= 1e-4 * (1.0 + float(np.linalg.norm(solution.T)))
    merits = [r.merit for r in solution.reports]
    slack = 1e-8 * (1.0 + abs(merits[1]))
    assert all(b - a <= slack for a, b in zip(merits[1:], merits[2:]))


def test_solver_runs_are_bit_deterministic():
    instance = rpca.generate_instance(15, 12, 2, 0.1, 1e-2, seed=31)
    config = rpca.RpcaConfig(rows=15, cols=12)
    first = rpca.bpl_admm_rpca(instance, config, init_seed=7)
    second = rpca.bpl_admm_rpca(instance, config, init_seed=7)
    assert np.array_equal(first.L, second.L)
    assert np.array_equal(first.S, second.S)
    assert np.array_equal(first.T, second.T)
    assert first.iterations == second.iterations


def test_bpl_stops_at_the_first_sweep_whose_relative_change_of_l_s_t_z_is_below_tol():
    # the desk table's seed-0 instance, stepped here with the rule recomputed
    # from the iterates: ||d(L, S, T, Z)|| < tol ||(L, S, T, Z)_n||, Z included
    instance = rpca.generate_instance(100, 100, 10, 0.05, 1e-2, seed=0)
    config = rpca.RpcaConfig(rows=100, cols=100)
    problem = rpca.RpcaBlockProblem(instance, config)
    state = rpca._initial_state(problem, 0)
    stacked = lambda s: np.concatenate([s.x.ravel(), s.y.ravel(), s.z.ravel()])  # noqa: E731
    for n in range(1, config.max_iterations + 1):
        new = engine.step(problem, config.solver_params(), state)
        change = np.linalg.norm(stacked(new) - stacked(state))
        size = np.linalg.norm(stacked(state))
        state = new
        if change < config.tolerance * size:
            break
    solution = rpca.bpl_admm_rpca(instance, config, init_seed=0)
    assert solution.converged and solution.iterations == n < config.max_iterations
    for got, want in ((solution.L, state.x[0]), (solution.S, state.x[1]),
                      (solution.T, state.y), (solution.Z, state.z)):
        assert np.array_equal(got, want)


def test_warm_starts_last_one_solve(monkeypatch):
    # A, then B, then A again in one process: both A runs give the same
    # bits, so no shrinkage start outlives the solve that made it
    config = rpca.RpcaConfig(rows=20, cols=20)
    a, b = (rpca.generate_instance(20, 20, 2, 0.05, 1e-2, seed=seed) for seed in (1, 2))
    warm = []
    warm_shrink = spaces._warm_shrink

    def counted(*args):
        out = warm_shrink(*args)
        warm.append(out is not None)
        return out

    monkeypatch.setattr(spaces, "_warm_shrink", counted)
    runs = [solver(instance, config, init_seed=3)
            for instance in (a, b, a) for solver in (rpca.bpl_admm_rpca, rpca.admm3_baseline)]
    assert sum(warm) >= len(warm) // 4  # a good part of the shrinkages start warm
    for first, again in zip(runs[:2], runs[4:]):
        assert first.iterations == again.iterations
        for name in ("L", "S", "T", "Z"):
            assert np.array_equal(getattr(first, name), getattr(again, name))
        assert [r.merit for r in first.reports] == [r.merit for r in again.reports]


def test_sparsity_counts_exact_zeros():
    instance = rpca.generate_instance(25, 25, 3, 0.08, 1e-2, seed=17)
    config = rpca.RpcaConfig(rows=25, cols=25)
    solution = rpca.bpl_admm_rpca(instance, config, init_seed=3)
    # entrywise shrinkage produces exact zeros, not tiny values
    nonzero = solution.S[solution.S != 0.0]
    assert solution.sparsity_S == nonzero.size
    if nonzero.size:
        assert np.abs(nonzero).min() > 0.0


def test_admm3_uses_plain_thresholds():
    instance = rpca.generate_instance(15, 15, 2, 0.1, 1e-2, seed=41)
    config = rpca.RpcaConfig(rows=15, cols=15)
    solution = rpca.admm3_baseline(instance, config, init_seed=1)
    assert solution.converged
    # the baseline solves the plain model; its objective has no spectral term
    assert solution.reports[-1].objective >= 0.0


def test_admm3_is_one_engine_run(monkeypatch):
    instance = small_instance(seed=4)
    config = rpca.RpcaConfig(rows=5, cols=5, max_iterations=10)
    runs, run = [], engine.run

    def counted(problem, params, init, reports):
        result = run(problem, params, init, reports)
        runs.append((type(problem), params, result))
        return result

    monkeypatch.setattr(engine, "run", counted)
    solution = rpca.admm3_baseline(instance, config, init_seed=0)
    [(kind, params, result)] = runs
    assert kind is rpca.PlainRpcaBlockProblem
    assert (params.rho, params.strong_convexity) == (2.0, 0.0)
    assert solution.reports is result.reports and solution.iterations == result.iterations
    assert (solution.converged, solution.wall_time) == (result.converged, result.wall_time)


@pytest.mark.parametrize("setting, message", [
    (dict(tolerance=math.nan), "stop_tolerance must be non-negative, got nan"),
    (dict(max_iterations=-1), "max_iterations must be non-negative, got -1"),
    (dict(max_iterations=5.0), "max_iterations must be an integer, got 5.0"),
], ids=["nan_tolerance", "negative_max_iterations", "float_max_iterations"])
def test_admm3_rejects_a_bad_loop_setting_as_bpl_does(setting, message):
    instance = rpca.generate_instance(8, 8, 2, 0.1, 1e-2, seed=3)
    config = replace(rpca.RpcaConfig(rows=8, cols=8), **setting)
    for solver in (rpca.bpl_admm_rpca, rpca.admm3_baseline):
        with pytest.raises(engine.ParameterError, match=re.escape(message)):
            solver(instance, config, init_seed=0)


def test_by_products_are_reused_only_for_the_block_they_came_from():
    instance = rpca.generate_instance(6, 5, 2, 0.2, 1e-2, seed=8)
    config = rpca.RpcaConfig(rows=6, cols=5)
    problem = rpca.RpcaBlockProblem(instance, config)
    x0 = np.random.default_rng(9).standard_normal((2, 6, 5))
    state = engine.initial_state(problem, x0, instance.M, np.zeros((6, 5)))
    for _ in range(3):
        state = engine.step(problem, config.solver_params(), state)
    x, tau = state.x, config.tau_value
    # at the iterate they came from, the kept norms are the true ones ...
    f = nuclear_norm(x[0]) + tau * float(np.abs(x[1]).sum())
    assert problem.eval_f(x) == pytest.approx(f, rel=1e-12)
    assert problem.eval_G(x) == pytest.approx(tau * spectral_norm_eig(x[1]), rel=1e-12)
    # ... and once the blocks change, even in place, they are computed afresh
    x *= 2.0
    assert problem.eval_f(x) == pytest.approx(2.0 * f, rel=1e-12)
    assert problem.eval_G(x) == pytest.approx(tau * spectral_norm_eig(x[1]), rel=1e-12)
    assert np.allclose(problem.subgrad_G(x)[1], tau * spectral_norm_subgradient(x[1]),
                       rtol=0.0, atol=1e-12)


def test_fifty_engine_sweeps_take_one_leading_pair_per_iterate_and_one_svd(monkeypatch):
    instance = rpca.generate_instance(12, 10, 3, 0.1, 1e-2, seed=1)
    config = rpca.RpcaConfig(rows=12, cols=10, tolerance=0.0, max_iterations=50)
    problem = rpca.RpcaBlockProblem(instance, config)
    x0 = np.random.default_rng(2).standard_normal((2, 12, 10))
    init = engine.initial_state(problem, x0, instance.M, np.zeros((12, 10)))
    calls = {"pair": 0, "svd": 0}
    eighs = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_eigh(a, *args, **kwargs):
        if a.shape == (10, 10):
            eighs.append(1)
        return eigh(a, *args, **kwargs)

    eigh = np.linalg.eigh
    monkeypatch.setattr(rpca, "leading_singular_pair",
                        counted("pair", rpca.leading_singular_pair))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    result = engine.solve(problem, config.solver_params(), init)
    assert result.iterations == 50
    # one pair per iterate serves its report and the sweep from it; the one
    # SVD is the nuclear norm of the starting L
    assert calls == {"pair": 51, "svd": 1}
    # Gram eigendecompositions (10 x 10): at most the shrinkage's one per
    # sweep, where each sweep took two before; the leading pairs take none
    assert len(eighs) <= result.iterations


def test_steady_bpl_sweeps_take_the_leading_pair_warm(monkeypatch):
    # each leading pair starts from the previous one; once the iterates
    # settle, the warm route certifies it and no eigvalsh is taken
    instance = rpca.generate_instance(100, 100, 10, 0.05, 1e-2, seed=0)
    config = rpca.RpcaConfig(rows=100, cols=100)
    eigvalsh, pair = np.linalg.eigvalsh, rpca.leading_singular_pair
    eigvalshs, per_pair = [], []

    def counted_eigvalsh(a, *args, **kwargs):
        eigvalshs.append(1)
        return eigvalsh(a, *args, **kwargs)

    def counted_pair(*args, **kwargs):
        before = len(eigvalshs)
        out = pair(*args, **kwargs)
        per_pair.append(len(eigvalshs) - before)
        return out

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(rpca, "leading_singular_pair", counted_pair)
    solution = rpca.bpl_admm_rpca(instance, config, init_seed=1)
    assert solution.converged and len(per_pair) == solution.iterations + 1
    # the pair of iterate n serves its report and the sweep from it
    assert sum(per_pair[-10:]) == 0
