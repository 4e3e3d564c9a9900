"""The assembled state-space model.

Bundles a signal prior with a likelihood family and the observation
series, checks that their shapes agree, slices the model in time and
simulates from it. The beta / alpha / eta quantities built on it live
with the bounds in ``viterbipar.certificates``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..core import PathVector
from ..errors import ConfigError, ShapeError
from .likelihoods import (
    GaussianEmission,
    NeuralExact,
    NeuralPseudo,
    StochVolFactor,
)
from .signals import LinearGaussianSignal

__all__ = ["ModelSpec", "simulate"]

_NEURAL = (NeuralPseudo, NeuralExact)


def _opnorm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2))


def _chi_linear_gaussian(signal: LinearGaussianSignal, emission: GaussianEmission) -> float:
    """Quadratic-growth constant for the conjugate model.

    The local gradients are affine in the neighbouring blocks; if M bounds
    the operator norms of every block coefficient (built from Sigma^-1, A
    and C'R^-1 C), then the squared local gradient at x is at most
    2 beta + 6 M^2 (|x_{n-1}|^2 + |x_n|^2 + |x_{n+1}|^2). chi = 6 M^2 makes
    beta_n + chi r / gamma a valid eta bound at every radius the
    certificates evaluate (r >= beta_n / lambda^2); no finite constant can
    make it valid for r -> 0 on nonzero data, which the bound evaluators
    document. Blocks that overflow give ``inf``, without a numpy warning.
    """
    Si = signal.Sigma_inv
    A = signal.A
    CtRC = emission.CtRinvC
    with np.errstate(over="ignore", invalid="ignore"):
        AtSiA = A.T @ Si @ A
        blocks = [Si @ A, Si + AtSiA + CtRC, signal.Sigma0_inv + AtSiA + CtRC, Si + CtRC]
    if not all(np.all(np.isfinite(B)) for B in blocks):
        return math.inf
    m = max(map(_opnorm, blocks))
    return 6.0 * m * m


@dataclass(eq=False)
class ModelSpec:
    """Signal prior + likelihood family + observations.

    ``observations`` is the time-indexed data: an (n+1, p) array for
    vector emissions, (n+1, d) returns for the factor model, and for the
    spiking families it defaults to the spike array the family carries.
    ``chi`` is the quadratic-growth constant enabling the chi-based
    bounds; it is filled in automatically for the conjugate
    linear-Gaussian / Gaussian-emission model when it comes out finite,
    and may be supplied by the user otherwise, as a finite nonnegative
    number.
    """

    signal: object
    likelihood: object
    observations: np.ndarray | None = None
    chi: float | None = None

    def __post_init__(self):
        if self.chi is not None and not 0 <= self.chi < math.inf:
            raise ConfigError(f"chi must be finite and nonnegative, got {self.chi}")
        d = self.signal.dim
        want = self.likelihood.state_dim()
        if want is not None and want != d:
            lik = self.likelihood
            what = (f"C has {want} columns" if isinstance(lik, GaussianEmission)
                    else f"B has {want} rows" if isinstance(lik, StochVolFactor)
                    else f"{lik.N} neurons need state dimension {want}")
            raise ShapeError(f"{type(lik).__name__}: {what}, the signal's state dimension is {d}")
        if self.observations is None and isinstance(self.likelihood, _NEURAL):
            self.observations = self.likelihood.spikes
        if self.observations is not None:
            obs = np.asarray(self.observations, dtype=float)
            if not np.all(np.isfinite(obs)):
                raise ShapeError("observations contain non-finite entries")
            self.observations = obs
            lik = self.likelihood
            if isinstance(lik, _NEURAL) and obs.shape[0] > lik.n_times:
                raise ShapeError("observations extend beyond the family's spike storage")
            if isinstance(lik, StochVolFactor) and obs.shape[0] > lik.factors.shape[0]:
                raise ShapeError(f"{obs.shape[0]} observations, only {lik.factors.shape[0]} factor rows")
            # per index: R x N spikes, p values for the Gaussian emission, d otherwise
            per_index = (lik.R, lik.N) if isinstance(lik, _NEURAL) else (
                lik.obs_dim if isinstance(lik, GaussianEmission) else d,)
            if obs.shape[1:] != per_index:
                raise ShapeError(f"{type(lik).__name__} needs observations of shape "
                                 f"(time, {', '.join(map(str, per_index))}), got {obs.shape}")
        if self.chi is None and isinstance(self.signal, LinearGaussianSignal) and isinstance(
            self.likelihood, GaussianEmission
        ):
            chi = _chi_linear_gaussian(self.signal, self.likelihood)
            # an overflowing chi bounds nothing: the chi bounds say they need one
            self.chi = chi if math.isfinite(chi) else None

    # -- shapes -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.signal.dim

    @property
    def horizon(self) -> int:
        if self.observations is None:
            raise ShapeError("model has no observations attached")
        return self.observations.shape[0] - 1

    def require_horizon(self, n: int):
        if n > self.horizon:
            raise ShapeError(f"index {n} beyond observation horizon {self.horizon}")

    def window(self, a: int, b: int) -> "ModelSpec":
        """Model of the time indices a..b (inclusive), re-indexed from 0.

        The signal is shared; the observations, and the series a family
        stores itself (spikes, factors), are sliced. The full range
        (0, horizon) returns the model itself.
        """
        if not 0 <= a <= b <= self.horizon:
            raise ShapeError(f"window ({a}, {b}) must lie inside 0..{self.horizon}")
        if a == 0 and b == self.horizon:
            return self
        obs = self.observations[a : b + 1]
        lik = self.likelihood
        if isinstance(lik, _NEURAL):
            return self.with_observations(obs)
        if isinstance(lik, StochVolFactor):
            lik = StochVolFactor(lik.B, lik.factors[a : b + 1])
        return ModelSpec(self.signal, lik, observations=obs, chi=self.chi)

    def with_observations(self, obs) -> "ModelSpec":
        if isinstance(self.likelihood, _NEURAL):
            lik = type(self.likelihood)(
                self.likelihood.N,
                self.likelihood.R,
                rates_c=self.likelihood.rates_c,
                spikes=obs,
            )
            return ModelSpec(self.signal, lik, observations=None, chi=self.chi)
        return replace(self, observations=np.asarray(obs, dtype=float))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate(model: ModelSpec, horizon: int, seed: int) -> tuple[PathVector, np.ndarray]:
    """Draw a state path and matching observations, deterministic per seed.

    Returns the path and the observation array in the family's native
    layout ((n+1, p) for vector emissions, (n+1, R, N) spikes for the
    coupling families).
    """
    horizon = int(horizon)
    if horizon < 0:
        raise ConfigError(f"horizon must be nonnegative, got {horizon}")
    rng = np.random.default_rng(seed)
    xs = model.signal.sample_path(horizon, rng)
    ys = model.likelihood.sample(xs, rng)
    return PathVector(xs), ys
