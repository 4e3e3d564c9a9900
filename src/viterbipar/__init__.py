"""Parallel MAP path estimation for state-space models on R^d.

Solves smoothing problems by strongly convex gradient descent, splits
long horizons into overlapped segments solved in parallel, and evaluates
decay-convexity certificates that bound the accuracy of both the
segment scheme and the finite-horizon approximation of the limiting
(Viterbi) path.
"""

from .core import (
    PathVector,
    GammaWeight,
    SegmentPlan,
    build_segment_plan,
)
from .models import (
    LinearGaussianSignal,
    HuberNonlinearSignal,
    LinearDrift,
    TanhDrift,
    stationary_covariance,
    GaussianEmission,
    StudentTEmission,
    StochVolFactor,
    NeuralPseudo,
    NeuralExact,
    ModelSpec,
    simulate,
)
from .objective import (
    eval_U,
    grad_U,
    WindowedObjective,
    hessian_quadratic_form,
)
from .solver import SolverConfig, SolveReport, solve_map, solve_windowed, estimate_grad_lipschitz
from .parallel import (
    ParallelSolveReport,
    solve_parallel,
    relative_error,
    sweep_delta,
)
from .certificates import (
    DecayConvexityCertificate,
    GammaInterval,
    certify_linear_gaussian,
    certify_huber,
    feasible_gamma_interval,
    lambda_max,
    beta_m,
    alpha_gamma_n,
    eta_bound,
    viterbi_distance_bound_eta,
    viterbi_distance_bound_chi,
    segment_overlap_error_bound,
    empirical_decay_convexity,
)
from .oracles import rts_smoother, finite_diff_grad, exact_neural_normalizer

__version__ = "0.1.0"

__all__ = [
    "PathVector",
    "GammaWeight",
    "SegmentPlan",
    "build_segment_plan",
    "LinearGaussianSignal",
    "HuberNonlinearSignal",
    "LinearDrift",
    "TanhDrift",
    "stationary_covariance",
    "GaussianEmission",
    "StudentTEmission",
    "StochVolFactor",
    "NeuralPseudo",
    "NeuralExact",
    "ModelSpec",
    "beta_m",
    "alpha_gamma_n",
    "eta_bound",
    "simulate",
    "eval_U",
    "grad_U",
    "WindowedObjective",
    "hessian_quadratic_form",
    "SolverConfig",
    "SolveReport",
    "solve_map",
    "solve_windowed",
    "estimate_grad_lipschitz",
    "ParallelSolveReport",
    "solve_parallel",
    "relative_error",
    "sweep_delta",
    "DecayConvexityCertificate",
    "GammaInterval",
    "certify_linear_gaussian",
    "certify_huber",
    "feasible_gamma_interval",
    "lambda_max",
    "viterbi_distance_bound_eta",
    "viterbi_distance_bound_chi",
    "segment_overlap_error_bound",
    "empirical_decay_convexity",
    "rts_smoother",
    "finite_diff_grad",
    "exact_neural_normalizer",
]
