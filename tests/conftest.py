"""Shared model builders and reference norms for the test suite."""

import math

import numpy as np
import pytest

from viterbipar import (
    GaussianEmission,
    HuberNonlinearSignal,
    LinearGaussianSignal,
    ModelSpec,
    NeuralExact,
    NeuralPseudo,
    StochVolFactor,
    StudentTEmission,
    TanhDrift,
    simulate,
    stationary_covariance,
)
from viterbipar.core import gamma_weights
from viterbipar.errors import ShapeError


def gamma_inner(x, y, w):
    """Discounted inner product sum_m gamma^m <x_m, y_m> of two paths."""
    if x.blocks.shape != y.blocks.shape:
        raise ShapeError(f"paths have different shapes: {x.blocks.shape} vs {y.blocks.shape}")
    per_block = np.einsum("md,md->m", x.blocks, y.blocks)
    return float(per_block @ gamma_weights(per_block.shape[0], w.gamma))


def weighted_norm_at(x, center_n, w):
    """Norm of a path with weights gamma^|m - center_n|, truncated at its
    horizon; ``center_n = 0`` gives ``gamma_norm``."""
    if center_n < 0:
        raise ValueError(f"center index must be nonnegative, got {center_n}")
    m = np.arange(x.blocks.shape[0])
    weights = float(w.gamma) ** np.abs(m - center_n)
    return math.sqrt(float(np.einsum("md,md->m", x.blocks, x.blocks) @ weights))


def lg_signal(d=1, a=0.5, sigma_sq=1.0, b=0.0, b0=0.0, sigma0_sq=1.0, stationary=False):
    A = a * np.eye(d)
    Sigma = sigma_sq * np.eye(d)
    Sigma0 = stationary_covariance(A, Sigma) if stationary else sigma0_sq * np.eye(d)
    return LinearGaussianSignal(A, np.full(d, b), Sigma, np.full(d, b0), Sigma0)


def huber_signal(d=2, scale=0.1, c=1.0, bounds=None):
    # tanh drift: |A'| <= scale, |A''| <= scale * 0.7699; Huber: L_psi = 1, L_grad_psi = 1/c
    return HuberNonlinearSignal(
        drift_map=TanhDrift(scale),
        b=np.zeros(d),
        huber_c=c,
        lipschitz_bounds=bounds or (1.0, 1.0 / c, scale, 0.77 * scale),
    )


def gaussian_model(d=1, n=20, a=0.5, sigma_sq=1.0, seed=0, signal=None, **kw):
    signal = signal or lg_signal(d=d, a=a, sigma_sq=sigma_sq, **kw)
    lik = GaussianEmission(np.eye(signal.dim), np.eye(signal.dim))
    skeleton = ModelSpec(signal, lik, observations=np.zeros((n + 1, signal.dim)))
    _, ys = simulate(skeleton, n, seed)
    return ModelSpec(signal, lik, observations=ys)


def gaussian_model_with_obs(ys, a=0.5, sigma_sq=1.0, **kw):
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if ys.shape[0] == 1:
        ys = ys.T
    d = ys.shape[1]
    signal = lg_signal(d=d, a=a, sigma_sq=sigma_sq, **kw)
    lik = GaussianEmission(np.eye(d), np.eye(d))
    return ModelSpec(signal, lik, observations=ys)


def student_model(d=1, n=12, seed=1, dof=1.0, signal=None):
    signal = signal or lg_signal(d=d)
    lik = StudentTEmission(dof=dof)
    skeleton = ModelSpec(signal, lik, observations=np.zeros((n + 1, signal.dim)))
    _, ys = simulate(skeleton, n, seed)
    return ModelSpec(signal, lik, observations=ys)


def stochvol_model(d=2, q=1, n=12, seed=2, signal=None, factors=None, ys=None, B=None):
    signal = signal or lg_signal(d=d, a=0.3, sigma_sq=0.5, stationary=True)
    rng = np.random.default_rng(seed + 1000)
    if factors is None:
        factors = rng.standard_normal((n + 1, q))
    if B is None:
        B = rng.standard_normal((signal.dim, q)) * 0.5
    lik = StochVolFactor(B, factors)
    if ys is None:
        skeleton = ModelSpec(signal, lik, observations=np.zeros((n + 1, signal.dim)))
        _, ys = simulate(skeleton, n, seed)
    return ModelSpec(signal, lik, observations=ys)


def random_spikes(N, R, T, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.random((T, R, N)) < 0.4).astype(float)


def balanced_spikes(N, R, T):
    """Every (bin, neuron) has exactly R/2 spiking trials, varied patterns."""
    assert R % 2 == 0
    spikes = np.zeros((T, R, N))
    for t in range(T):
        for i in range(N):
            offset = (t + i) % R
            picks = [(offset + 2 * j) % R for j in range(R // 2)]
            spikes[t, picks, i] = 1.0
    return spikes


def neural_model(N=3, R=2, n=6, seed=4, exact=False, spikes=None, signal=None):
    d = N * (N - 1) // 2
    if spikes is None:
        spikes = random_spikes(N, R, n + 1, seed=seed)
    cls = NeuralExact if exact else NeuralPseudo
    lik = cls(N, R, spikes=spikes)
    signal = signal or lg_signal(d=d, a=0.4, sigma_sq=1.0)
    return ModelSpec(signal, lik, observations=None)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
