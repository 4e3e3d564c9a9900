"""The assembled state-space model and its gradient bookkeeping.

Bundles a signal prior with a likelihood family and the observation
series, slices it in time, and provides the beta / alpha / eta
quantities that feed the accuracy certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..core import GammaWeight, PathVector
from ..errors import ShapeError, UnsupportedBoundError
from .likelihoods import (
    GaussianEmission,
    NeuralExact,
    NeuralPseudo,
    StochVolFactor,
)
from .signals import LinearGaussianSignal

__all__ = [
    "ModelSpec",
    "beta_m",
    "alpha_gamma_n",
    "eta_bound",
    "simulate",
]

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
    document.
    """
    Si = signal.Sigma_inv
    A = signal.A
    CtRC = emission.CtRinvC
    AtSiA = A.T @ Si @ A
    m = max(
        _opnorm(Si @ A),
        _opnorm(Si + AtSiA + CtRC),
        _opnorm(signal.Sigma0_inv + AtSiA + CtRC),
        _opnorm(Si + CtRC),
    )
    return 6.0 * m * m


@dataclass
class ModelSpec:
    """Signal prior + likelihood family + observations.

    ``observations`` is the time-indexed data: an (n+1, p) array for
    vector emissions, (n+1, d) returns for the factor model, and for the
    spiking families it defaults to the spike array the family carries.
    ``chi`` is the quadratic-growth constant enabling the chi-based
    bounds; it is filled in automatically for the conjugate
    linear-Gaussian / Gaussian-emission model and may be supplied by the
    user otherwise.
    """

    signal: object
    likelihood: object
    observations: np.ndarray | None = None
    chi: float | None = None

    def __post_init__(self):
        d = self.signal.dim
        want = self.likelihood.state_dim()
        if want is not None and want != d:
            raise ShapeError(
                f"likelihood expects state dimension {want}, signal has {d}"
            )
        if self.observations is None and isinstance(self.likelihood, _NEURAL):
            self.observations = self.likelihood.spikes
        if self.observations is not None:
            obs = np.asarray(self.observations, dtype=float)
            if not np.all(np.isfinite(obs)):
                raise ShapeError("observations contain non-finite entries")
            self.observations = obs
            if isinstance(self.likelihood, _NEURAL) and obs.shape[0] > self.likelihood.n_times:
                raise ShapeError("observations extend beyond the family's spike storage")
        if self.chi is None and isinstance(self.signal, LinearGaussianSignal) and isinstance(
            self.likelihood, GaussianEmission
        ):
            self.chi = _chi_linear_gaussian(self.signal, self.likelihood)

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

    # -- likelihood plumbing ----------------------------------------------

    def _obs_for(self, xs: np.ndarray) -> np.ndarray:
        """Observations at indices 0..len(xs)-1."""
        self.require_horizon(xs.shape[0] - 1)
        return self.observations[: xs.shape[0]]

    def log_g_terms(self, xs: np.ndarray) -> np.ndarray:
        return self.likelihood.log_terms(xs, self._obs_for(xs))

    def grad_log_g(self, xs: np.ndarray) -> np.ndarray:
        return self.likelihood.grad(xs, self._obs_for(xs))


# ---------------------------------------------------------------------------
# beta / alpha / eta bookkeeping
# ---------------------------------------------------------------------------

def _beta_array(model: ModelSpec, upto: int) -> np.ndarray:
    """beta_m for m = 0..upto in one vectorized pass.

    beta_m is the larger of the squared boundary- and interior-style local
    gradient norms at the all-zero path. Index 0 and the data horizon keep
    only the boundary branch (matching the finite-horizon gradient
    blocks); every interior index takes the max over both branches.
    """
    model.require_horizon(upto)
    d = model.dim
    sig = model.signal
    # the transition gradient on a zero 3-block path: block 0 carries the
    # forward transition only, block 1 both, block 2 the backward only
    fwd, both, bwd = sig.grad_log_transitions(np.zeros((3, d)))
    gk = model.grad_log_g(np.zeros((upto + 1, d)))

    tilde = bwd + gk
    tilde[0] = sig.grad_log_mu(np.zeros(d)) + (fwd if model.horizon >= 1 else 0.0) + gk[0]
    beta = np.einsum("md,md->m", tilde, tilde)
    last = min(upto, model.horizon - 1)
    if last >= 1:
        inner = both + gk[1 : last + 1]
        np.maximum(beta[1 : last + 1], np.einsum("md,md->m", inner, inner),
                   out=beta[1 : last + 1])
    return beta


def beta_m(model: ModelSpec, index_m: int) -> float:
    """Worst squared local gradient norm at the zero path for index m."""
    m = int(index_m)
    if m < 0:
        raise IndexError(f"index must be nonnegative, got {m}")
    model.require_horizon(m)
    return float(_beta_array(model, m)[m])


def alpha_gamma_n(model: ModelSpec, w: GammaWeight, horizon: int) -> float:
    """Discounted running sum of beta: sum_{m<=n} gamma^(n-m) beta_m."""
    n = int(horizon)
    beta = _beta_array(model, n)
    acc = 0.0
    for m in range(n + 1):
        acc = acc * w.gamma + beta[m]
    return float(acc)


def eta_bound(model: ModelSpec, index_n: int, radius_r: float, w: GammaWeight) -> float:
    """Certified upper bound on the worst local gradient over a ball.

    The ball is measured in the index-centered discounted norm with radius
    sqrt(r). Two routes exist:

    * the factor-volatility model (with b = b0 = 0) gets its specialized
      crude bound, built from the signal eigen-extremes and an
      exp(sqrt(r))-weighted data term;
    * otherwise the quadratic-growth route beta_n + chi r / gamma is used
      and requires ``model.chi``.
    """
    r = float(radius_r)
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    n = int(index_n)
    model.require_horizon(n)
    lik = model.likelihood
    if isinstance(lik, StochVolFactor) and isinstance(model.signal, LinearGaussianSignal):
        return _eta_bound_stoch_vol(model, n, r, w)
    if model.chi is None:
        raise UnsupportedBoundError(
            "no eta bound available: model.chi is unset and no specialized bound applies"
        )
    return beta_m(model, n) + model.chi * r / w.gamma


def _eta_bound_stoch_vol(model: ModelSpec, n: int, r: float, w: GammaWeight) -> float:
    """Crude certified bound for the factor-volatility model, b = b0 = 0.

    Same shape as the generic derivation: a term linear in the ball radius
    covering the transition/initial gradients (blocks n-1, n+1 enter with
    the 1/sqrt(gamma)-inflated radius), plus the data term, which takes
    the worse of the exp(+-sqrt(r)) endpoints of each squared emission
    gradient coordinate. Deliberately conservative: the two pieces are
    combined with a factor-2 split instead of a sharp sup.
    """
    sig = model.signal
    lik = model.likelihood
    if np.any(sig.b != 0.0) or np.any(sig.b0 != 0.0):
        raise UnsupportedBoundError(
            "factor-volatility eta bound is derived for b = b0 = 0"
        )
    AtA = sig.A.T @ sig.A
    a_norm = math.sqrt(float(np.max(np.linalg.eigvalsh(AtA))))
    rho_min_sigma = float(np.min(np.linalg.eigvalsh(sig.Sigma)))
    rho_min_sigma0 = float(np.min(np.linalg.eigvalsh(sig.Sigma0)))
    inv_g = 1.0 / math.sqrt(w.gamma)
    c_interior = (1.0 + 2.0 * a_norm * inv_g + a_norm ** 2) / rho_min_sigma
    c_start = 1.0 / rho_min_sigma0 + (a_norm * inv_g + a_norm ** 2) / rho_min_sigma
    c_end = (1.0 + a_norm * inv_g) / rho_min_sigma
    c1 = max(c_interior, c_start, c_end)
    linear = 2.0 * r * c1 * c1
    resid_sq = (model.observations[n] - lik.factor_means[n]) ** 2
    lo = (resid_sq * math.exp(-math.sqrt(r)) - 1.0) ** 2
    hi = (resid_sq * math.exp(math.sqrt(r)) - 1.0) ** 2
    data = 2.0 * 0.25 * float(np.sum(np.maximum(lo, hi)))
    return linear + data


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate(model: ModelSpec, horizon: int, seed: int) -> tuple[PathVector, np.ndarray]:
    """Draw a state path and matching observations, deterministic per seed.

    Returns the path and the observation array in the family's native
    layout ((n+1, p) for vector emissions, (n+1, R, N) spikes for the
    coupling families).
    """
    rng = np.random.default_rng(seed)
    xs = model.signal.sample_path(int(horizon), rng)
    ys = model.likelihood.sample(xs, rng)
    return PathVector(xs), ys
