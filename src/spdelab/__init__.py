"""Numerical laboratory for blowup and global existence in stochastically
forced reaction-diffusion equations with Dirichlet boundary."""

__version__ = "0.1.0"

from .blowup import (
    Dichotomy,
    ModelParams,
    ProbabilityEstimate,
    SweepEstimate,
    analytic_blowup_bound,
    deterministic_dichotomy,
    hitting_level,
    lower_solution_series,
    mc_blowup_probability,
)
from .certificates import (
    CertificateKind,
    CertificateReport,
    Verdict,
    admissible_initial,
    certificate_heat_kernel,
    certificate_sup_norm,
)
from .config import RunConfig, load_config
from .domain import (
    DomainSpec,
    EigenData,
    GridSpec,
    HeatKernelBoundReport,
    build_grid,
    heat_kernel_ratio_report,
    richardson_extrapolate,
    solve_eigenpairs,
    sup_norm_decay,
    weighted_inner,
)
from .errors import (
    ConfigurationError,
    NumericalFailure,
    PreconditionFailure,
    SpdeLabError,
)
from .integrator import (
    Outcome,
    TrajectoryResult,
    mode_residuals,
    reconstruct_u,
    simulate_paths,
)
from .stochastic import (
    BrownianPath,
    blowup_density,
    brownian_increments,
    exp_functional,
    gamma_shape,
    gamma_tail,
    path_generators,
    sample_brownian,
)

__all__ = [
    "__version__",
    # domain
    "DomainSpec", "GridSpec", "EigenData", "HeatKernelBoundReport",
    "build_grid", "solve_eigenpairs", "weighted_inner",
    "richardson_extrapolate", "sup_norm_decay",
    "heat_kernel_ratio_report",
    # stochastic
    "BrownianPath", "brownian_increments", "sample_brownian", "path_generators",
    "exp_functional", "gamma_shape", "gamma_tail", "blowup_density",
    # blowup
    "ModelParams", "hitting_level", "Dichotomy", "ProbabilityEstimate", "SweepEstimate",
    "lower_solution_series",
    "analytic_blowup_bound", "deterministic_dichotomy", "mc_blowup_probability",
    # certificates
    "CertificateKind", "CertificateReport", "Verdict", "admissible_initial",
    "certificate_sup_norm", "certificate_heat_kernel",
    # integrator
    "Outcome", "TrajectoryResult", "simulate_paths", "reconstruct_u", "mode_residuals",
    # config
    "RunConfig", "load_config",
    # errors
    "SpdeLabError", "ConfigurationError", "NumericalFailure", "PreconditionFailure",
]
