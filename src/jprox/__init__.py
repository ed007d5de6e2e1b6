"""Parallel proximal multi-block ADMM with a linear-convergence certification engine."""

from .certify import (
    Certificate,
    PhiWeights,
    ProblemConstants,
    RateFit,
    certify,
    check_xi_condition,
    closed_form_mu_s,
    compute_sigma,
    estimate_constants,
    fit_linear_rate,
    max_feasible_s,
    smallest_certified_tau,
)
from .experiments import (
    LcqpInstance,
    ResourceAllocInstance,
    SweepConfig,
    generate_lcqp,
    generate_resource_alloc,
    load_instance,
    reference_solution,
    run_sweep,
    save_instance,
)
from .linalg import (
    generalized_max_eigenvalue,
    gram_spectrum,
    min_eigenvalue_sym,
    smallest_singular_value_stacked,
    spectral_norm,
)
from .problem import (
    BlockProblem,
    LogisticQuadBlock,
    PrimalDualPoint,
    QuadraticBlock,
    block_gradient,
    constraint_residual,
    kkt_residual,
)
from .solvers import (
    METHODS,
    ProxLinear,
    SolverParams,
    StandardProximal,
    Trace,
    materialize_policy,
    run,
    solve_block_quadratic,
    step,
)

__version__ = "0.1.0"
