"""State-space model families: signal priors, likelihoods and the assembled model."""

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
from .spec import ModelSpec, simulate

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
    "simulate",
]
