"""Independent reference computations.

These are verification tools, not production solvers: an exact smoother
for the conjugate model (whose posterior mean equals the MAP path), a
central-difference gradient, and the enumerated normalizer of the exact
spiking family. The CLI ``verify`` command runs the first two against
user models.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import PathVector
from .errors import ShapeError, UnsupportedModeError
from .models.likelihoods import GaussianEmission, NeuralExact
from .models.signals import LinearGaussianSignal

__all__ = [
    "rts_smoother",
    "finite_diff_grad",
    "exact_neural_normalizer",
]


def rts_smoother(
    signal: LinearGaussianSignal, emission: GaussianEmission, observations
) -> PathVector:
    """Exact posterior means of the linear-Gaussian chain given Gaussian
    emissions: forward Kalman filter, backward smoothing pass.

    For this jointly Gaussian model the posterior mean path coincides
    with the MAP path, which makes this the exact solver oracle.
    """
    if not isinstance(signal, LinearGaussianSignal) or not isinstance(emission, GaussianEmission):
        raise UnsupportedModeError("exact smoothing needs the linear-Gaussian / Gaussian-emission pair")
    ys = np.atleast_2d(np.asarray(observations, dtype=float))
    T = ys.shape[0]
    d = signal.dim
    A, b, Q = signal.A, signal.b, signal.Sigma
    C, R = emission.C, emission.R
    if ys.shape[1] != C.shape[0]:
        raise ShapeError(f"observations have dim {ys.shape[1]}, emission expects {C.shape[0]}")

    means_f = np.empty((T, d))      # filtered means
    covs_f = np.empty((T, d, d))
    means_p = np.empty((T, d))      # one-step predictive means
    covs_p = np.empty((T, d, d))

    m_pred, P_pred = signal.b0.copy(), signal.Sigma0.copy()
    for t in range(T):
        means_p[t], covs_p[t] = m_pred, P_pred
        S = C @ P_pred @ C.T + R
        K = np.linalg.solve(S.T, (P_pred @ C.T).T).T
        m = m_pred + K @ (ys[t] - C @ m_pred)
        P = P_pred - K @ C @ P_pred
        means_f[t], covs_f[t] = m, 0.5 * (P + P.T)
        m_pred = A @ m + b
        P_pred = A @ P @ A.T + Q

    means_s = means_f.copy()
    P_next = covs_f[-1]
    m_next = means_s[-1]
    for t in range(T - 2, -1, -1):
        G = np.linalg.solve(covs_p[t + 1].T, (covs_f[t] @ A.T).T).T
        m_next = means_f[t] + G @ (m_next - means_p[t + 1])
        P_next = covs_f[t] + G @ (P_next - covs_p[t + 1]) @ G.T
        means_s[t] = m_next
    return PathVector(means_s)


def finite_diff_grad(objective, x: PathVector, epsilon: float = 1e-6) -> PathVector:
    """Central-difference gradient of a scalar path functional.

    ``objective`` maps a PathVector to a float. The step is applied one
    coordinate at a time, so the cost is two evaluations per coordinate.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    base = x.blocks
    grad = np.empty_like(base)
    work = base.copy()
    for m in range(base.shape[0]):
        for i in range(base.shape[1]):
            orig = work[m, i]
            work[m, i] = orig + epsilon
            f_plus = objective(PathVector(work.copy()))
            work[m, i] = orig - epsilon
            f_minus = objective(PathVector(work.copy()))
            work[m, i] = orig
            grad[m, i] = (f_plus - f_minus) / (2.0 * epsilon)
    return PathVector(grad)


def exact_neural_normalizer(model: NeuralExact, x_n) -> float:
    """Log of the sum over all 2^N spike configurations s of the exponential
    pairwise energy sum_{i<j} x_ij (s_i - c_i)(s_j - c_j), with c the
    centering rates and x_n holding x_01, x_02, ..., x_12, ... in
    row-major upper-triangle order. This makes the exact spiking
    likelihood a proper probability over configurations. The sum is
    enumerated here term by term, apart from the family's own kernels, so
    it serves as their reference.
    """
    if not isinstance(model, NeuralExact):
        raise UnsupportedModeError("exact normalizer is defined for the NeuralExact family")
    x = np.asarray(x_n, dtype=float).reshape(-1).tolist()
    if len(x) != model.d:
        raise ShapeError(f"coupling vector must have length N(N-1)/2 = {model.d}")
    rates = model.rates_c.tolist()
    pairs = list(itertools.combinations(range(model.N), 2))
    energies = []
    for s in itertools.product((0.0, 1.0), repeat=model.N):
        sc = [s_i - c_i for s_i, c_i in zip(s, rates)]
        energies.append(math.fsum(x_ij * sc[i] * sc[j] for x_ij, (i, j) in zip(x, pairs)))
    top = max(energies)
    return top + math.log(math.fsum(math.exp(e - top) for e in energies))
