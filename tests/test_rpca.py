import numpy as np
import pytest

from bpladmm import engine, rpca
from bpladmm.spaces import spectral_norm_subgradient, stacked_norm

REL = 1e-10


def small_instance(seed=7):
    return rpca.generate_instance(5, 5, 2, 0.2, 1e-2, seed=seed)


def test_generate_instance_sparsity_count_is_exact():
    instance = rpca.generate_instance(100, 100, 10, 0.05, 1e-2, seed=0)
    assert instance.sparsity_count == 500
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


def test_config_thresholds_and_tau():
    config = rpca.RpcaConfig(rows=100, cols=100)
    assert config.tau_value == pytest.approx(0.1, rel=REL)
    assert config.l_threshold == pytest.approx(1.0 / (config.rho + config.alpha), rel=REL)
    assert config.s_threshold == pytest.approx(
        config.tau_value / (config.rho + config.alpha), rel=REL
    )
    rect = rpca.RpcaConfig(rows=200, cols=100)
    assert rect.tau_value == pytest.approx(1.0 / np.sqrt(200), rel=REL)


def test_solver_accepts_configured_parameters():
    config = rpca.RpcaConfig(rows=50, cols=50)
    bounds = engine.validate_parameters(config.solver_params())
    assert bounds == (0.0, pytest.approx(2.0, abs=1e-12))


def test_zero_observation_converges_to_zero():
    zero = np.zeros((8, 8))
    instance = rpca.RpcaInstance(
        M=zero, L_O=zero, S_O=zero, T_O=zero, rank=0, sparsity_count=0, noise=0.0, seed=0
    )
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
        Lc, Sc, Tc, Zc, _ = rpca._sweep(
            Lc, Sc, Tc, Zc, instance.M, tau, config.gamma, config.rho, config.alpha, g2
        )
        state = engine.step(problem, params, state)
        assert np.allclose(state.x[0], Lc, atol=1e-10)
        assert np.allclose(state.x[1], Sc, atol=1e-10)
        assert np.allclose(state.y, Tc, atol=1e-10)
        assert np.allclose(state.z, Zc, atol=1e-10)


@pytest.mark.parametrize("solver", [rpca.bpl_admm_rpca, rpca.admm3_baseline],
                         ids=["bpl", "admm3"])
def test_non_finite_observation_fails_naming_the_block_and_iteration(solver):
    instance = small_instance(seed=4)
    M = instance.M.copy()
    M[2, 3] = np.nan
    broken = rpca.RpcaInstance(M=M, L_O=instance.L_O, S_O=instance.S_O, T_O=instance.T_O,
                               rank=instance.rank, sparsity_count=instance.sparsity_count,
                               noise=instance.noise, seed=instance.seed)
    # T starts at M, so the first sweep's L shrinkage is the first to see the NaN
    with pytest.raises(engine.BlockOracleError, match="L oracle failed at iteration 1") as info:
        solver(broken, rpca.RpcaConfig(rows=5, cols=5), init_seed=1)
    assert (info.value.block, info.value.iteration) == ("L", 1)
    assert "finite" in str(info.value)


def test_non_finite_soft_shrinkage_input_names_the_s_block():
    instance = small_instance(seed=3)
    rng = np.random.default_rng(0)
    L, S, Z = (rng.standard_normal((5, 5)) for _ in range(3))
    g2 = np.full((5, 5), np.inf)  # reaches the S shrinkage input only
    with pytest.raises(engine.BlockOracleError, match="S oracle failed at iteration 7"):
        rpca._sweep(L, S, instance.M.copy(), Z, instance.M, 0.5, 1.0, 2.0, 0.0, g2, iteration=7)


def test_baseline_sweep_coincides_when_modifications_off():
    # with the proximal weight zeroed and no spectral subgradient, one
    # sweep of either scheme is the same map at equal rho
    instance = small_instance(seed=3)
    rng = np.random.default_rng(0)
    L = rng.standard_normal((5, 5))
    S = rng.standard_normal((5, 5))
    T = instance.M.copy()
    Z = rng.standard_normal((5, 5))
    tau = 1.0 / np.sqrt(5)
    out_a = rpca._sweep(L, S, T, Z, instance.M, tau, 1.0, 2.0, 0.0, 0.0)
    out_b = rpca._sweep(L, S, T, Z, instance.M, tau, 1.0, 2.0, 0.0, np.zeros((5, 5)))
    for a, b in zip(out_a[:4], out_b[:4]):
        assert np.array_equal(a, b)


def test_solution_metrics_at_ground_truth():
    instance = small_instance(seed=5)
    solution = rpca.RpcaSolution(
        L=instance.L_O, S=instance.S_O, T=instance.T_O, Z=np.zeros((5, 5)),
        iterations=0, wall_time=0.0, converged=True, relative_error=0.0,
        rank_L=0, sparsity_S=0, reports=[],
    )
    re, rank_l, sparsity = rpca.recovery_metrics(solution, instance)
    assert re == 0.0
    assert rank_l == instance.rank
    assert sparsity == instance.sparsity_count


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


def test_sparsity_counts_exact_zeros():
    instance = rpca.generate_instance(25, 25, 3, 0.08, 1e-2, seed=17)
    config = rpca.RpcaConfig(rows=25, cols=25)
    solution = rpca.bpl_admm_rpca(instance, config, init_seed=3)
    # entrywise shrinkage produces exact zeros, not tiny values
    nonzero = solution.S[solution.S != 0.0]
    assert solution.sparsity_S == nonzero.size
    if nonzero.size:
        assert np.abs(nonzero).min() > 0.0


def test_instance_save_load_roundtrip(tmp_path):
    instance = rpca.generate_instance(10, 8, 2, 0.1, 2e-2, seed=23)
    path = tmp_path / "instance.npz"
    rpca.save_instance(path, instance)
    back = rpca.load_instance(path)
    assert np.array_equal(back.M, instance.M)
    assert np.array_equal(back.L_O, instance.L_O)
    assert np.array_equal(back.S_O, instance.S_O)
    assert np.array_equal(back.T_O, instance.T_O)
    assert back.rank == instance.rank
    assert back.sparsity_count == instance.sparsity_count
    assert back.noise == instance.noise
    assert back.seed == instance.seed


def test_admm3_uses_plain_thresholds():
    instance = rpca.generate_instance(15, 15, 2, 0.1, 1e-2, seed=41)
    config = rpca.RpcaConfig(rows=15, cols=15)
    solution = rpca.admm3_baseline(instance, config, init_seed=1)
    assert solution.converged
    # the baseline solves the plain model; its objective has no spectral term
    assert solution.reports[-1].objective >= 0.0
