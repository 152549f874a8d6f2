"""Multi-block Bregman proximal linearized ADMM, with robust PCA and DC
optimal power flow applications and a benchmark command line."""

from .spaces import (
    BregmanGenerator,
    bregman_distance,
    dist_sq_nonneg_orthant,
    quadratic_form,
    scaled_squared_norm,
    singular_value_shrink,
    soft_shrink,
    spectral_norm_subgradient,
    squared_norm,
    stacked_norm,
)
from .engine import (
    BlockOracleError,
    BlockProblem,
    IterationReport,
    ParameterError,
    SolveResult,
    SolverParams,
    SolverState,
    StationarityReport,
    XBlockContext,
    YBlockContext,
    augmented_lagrangian,
    check_adjoints,
    initial_state,
    merit,
    objective_value,
    solve,
    stationarity_report,
    step,
    validate_parameters,
    write_reports_csv,
)
from .rpca import (
    RpcaBlockProblem,
    RpcaConfig,
    RpcaInstance,
    RpcaSolution,
    admm3_baseline,
    bpl_admm_rpca,
    generate_instance,
    recovery_metrics,
)
from .dcopf import (
    DcOpfBlockProblem,
    DcOpfCase,
    DcOpfProblem,
    DcOpfSolution,
    build_problem,
    frozen_u_recheck,
    g_gradient,
    solve_dcopf,
    two_bus_fixture,
    y_block_update,
)
from .matpower import MatpowerCase, MatpowerParseError, parse_case, to_dcopf_case

__version__ = "0.1.0"
