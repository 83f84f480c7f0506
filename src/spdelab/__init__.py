"""Numerical laboratory for blowup and global existence in stochastically
forced reaction-diffusion equations with Dirichlet boundary."""

__version__ = "0.1.0"

from .blowup import (
    BlowupThreshold,
    Dichotomy,
    ModelParams,
    PowerLaw,
    ProbabilityEstimate,
    SweepEstimate,
    TabulatedNonlinearity,
    analytic_blowup_bound,
    deterministic_dichotomy,
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
    DiscreteOperator,
    DomainSpec,
    EigenData,
    GridSpec,
    HeatKernelBoundReport,
    apply_heat_semigroup,
    build_grid,
    build_laplacian,
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
    Scheme,
    SchemeConfig,
    TrajectoryResult,
    mild_residual,
    reconstruct_u,
    simulate_paths,
    weak_form_residual,
)
from .stochastic import (
    BrownianPath,
    blowup_density,
    brownian_increments,
    exp_functional,
    gamma_shape,
    gamma_tail,
    sample_brownian,
)

__all__ = [
    "__version__",
    # domain
    "DomainSpec", "GridSpec", "DiscreteOperator", "EigenData", "HeatKernelBoundReport",
    "build_grid", "build_laplacian", "solve_eigenpairs", "weighted_inner",
    "richardson_extrapolate", "apply_heat_semigroup", "sup_norm_decay",
    "heat_kernel_ratio_report",
    # stochastic
    "BrownianPath", "brownian_increments", "sample_brownian",
    "exp_functional", "gamma_shape", "gamma_tail", "blowup_density",
    # blowup
    "ModelParams", "PowerLaw", "TabulatedNonlinearity", "BlowupThreshold",
    "Dichotomy", "ProbabilityEstimate", "SweepEstimate", "lower_solution_series",
    "analytic_blowup_bound", "deterministic_dichotomy", "mc_blowup_probability",
    # certificates
    "CertificateKind", "CertificateReport", "Verdict", "admissible_initial",
    "certificate_sup_norm", "certificate_heat_kernel",
    # integrator
    "Scheme", "SchemeConfig", "Outcome", "TrajectoryResult", "simulate_paths",
    "reconstruct_u", "weak_form_residual", "mild_residual",
    # config
    "RunConfig", "load_config",
    # errors
    "SpdeLabError", "ConfigurationError", "NumericalFailure", "PreconditionFailure",
]
