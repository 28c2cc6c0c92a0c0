"""Spectral laboratory for invariant graphs of parabolic evolution problems.

The package builds attracting invariant graphs over a finite block of slow
modes by backward Duhamel iteration, solves for their derivative fields,
certifies Lipschitz and Hoelder regularity, and measures how the graphs move
under spectral and nonlinear perturbations against the theoretical envelopes.
"""
from .config import (
    ExperimentConfig,
    Laboratory,
    build_lab,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
)
from .errors import (
    AdmissibilityError,
    CertificationError,
    ConfigError,
    ConvergenceError,
    DimensionError,
    DomainError,
    GapViolationError,
    ImlabError,
    OverflowGuardError,
)
from .gap_analysis import (
    GapReport,
    check_gap,
    exponents,
    find_admissible_m,
    gap_report,
    m0_bound,
    margin_erosion,
    theta0,
    theta1,
    theta_tilde,
)
from .lyapunov_perron import (
    DerivativeResult,
    GridField,
    ManifoldResult,
    SolveSettings,
    apply_D,
    apply_T,
    dump_csv,
    holder_certificate,
    integrate_Theta,
    integrate_p_backward,
    lipschitz_certificate,
    solve_derivative,
    solve_manifold,
    solve_stack,
)
from .nonlinearity import (
    CosineBase,
    CutoffNonlinearity,
    PerturbedNonlinearityPair,
    SineBase,
    certify_constants,
    constant_map,
    holder_quotient_of_derivative,
    rho_eps,
    zero_map,
)
from .perturbation_harness import (
    C1ThetaDistance,
    DistanceReport,
    SolvedMember,
    beta_eps,
    c1_distance,
    c1theta_distance,
    derivative_mismatch,
    holder_seminorm_of_difference,
    instantiate,
    rate_study,
    rho_of,
    solve_member,
    solve_members,
    sup_distance,
    tau_eps,
    theta_comparison,
)
from .spectral_core import (
    SpectralProblem,
    alpha_norm_batch,
    kappa,
    norm_equivalence_delta,
    resolvent_deficiency,
    spectrum_from_rule,
    weighted_opnorms,
)
from .suites import ALL_SUITES, SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
