"""State-space model families: signal priors, likelihoods and bookkeeping."""

from .signals import (
    LinearGaussianSignal,
    HuberNonlinearSignal,
    LinearDrift,
    TanhDrift,
    huber,
    huber_grad,
    stationary_covariance,
)
from .likelihoods import (
    GaussianEmission,
    StudentTEmission,
    StochVolFactor,
    NeuralPseudo,
    NeuralExact,
    neural_pseudo_field,
    coupling_matrix,
)
from .spec import (
    ModelSpec,
    beta_m,
    alpha_gamma_n,
    eta_bound,
    simulate,
)

__all__ = [
    "LinearGaussianSignal",
    "HuberNonlinearSignal",
    "LinearDrift",
    "TanhDrift",
    "huber",
    "huber_grad",
    "stationary_covariance",
    "GaussianEmission",
    "StudentTEmission",
    "StochVolFactor",
    "NeuralPseudo",
    "NeuralExact",
    "neural_pseudo_field",
    "coupling_matrix",
    "ModelSpec",
    "beta_m",
    "alpha_gamma_n",
    "eta_bound",
    "simulate",
]
