"""Negative log posterior assembly: values and block gradients of a window
of the chain, and the full-path problem as the window (0, n).

Values, and the gradients of every pair of families but the conjugate
one, are assembled from the family kernels. A window of a linear-Gaussian
signal with Gaussian emissions has a constant Hessian H, so its gradient
is the affine map H x + grad U(0), from a stencil of H's blocks.
"""

from __future__ import annotations

import numpy as np

from .core import PathVector
from .errors import DivergenceError, ShapeError, UnsupportedModeError
from .models.likelihoods import GaussianEmission
from .models.signals import _LOG_2PI, LinearDrift, LinearGaussianSignal
from .models.spec import ModelSpec

__all__ = [
    "eval_U",
    "grad_U",
    "WindowedObjective",
    "FullObjective",
]

BOUNDARY_MODES = ("marginal-prior", "flat-start", "full-prior")


def _as_blocks(x) -> np.ndarray:
    return x.blocks if isinstance(x, PathVector) else np.asarray(x, dtype=float)


class WindowedObjective:
    """Negative log posterior of a contiguous window of time indices.

    ``window`` is the inclusive index pair (a, b). A window that starts at
    index 0 carries the initial density log mu(x_0) whatever the mode. For
    a > 0 the start-of-window prior term is selected by ``boundary_mode``:

    * ``marginal-prior``: the prior marginal of x_a (exact for the
      subproblem; requires closed-form signal marginals);
    * ``flat-start``: no prior term at the window start;
    * ``full-prior``: the initial density evaluated at x_a.

    Transition and emission terms are those of the full objective
    restricted to the window. Values include every normalization constant
    of the densities involved, so they are comparable across runs of the
    same family.

    The objective holds the window's signal, likelihood and observations
    and calls the families directly; ``_check`` is the one shape check
    per call. A window of the conjugate pair (``LinearGaussianSignal``
    with ``GaussianEmission``) takes its gradient from a ``_Stencil``,
    built on the first ``grad`` call, so that a window pickled before it
    is solved carries no extra arrays and value-only callers never pay
    for it.
    """

    def __init__(self, model: ModelSpec, window: tuple[int, int], boundary_mode: str = "marginal-prior"):
        if boundary_mode not in BOUNDARY_MODES:
            raise UnsupportedModeError(
                f"boundary mode {boundary_mode!r} not one of {BOUNDARY_MODES}"
            )
        a, b = int(window[0]), int(window[1])
        sub = model.window(a, b)  # the window's own model, indexed from 0
        self.signal, self.likelihood = sub.signal, sub.likelihood
        self.observations = sub.observations
        self.window = (a, b)
        self.boundary_mode = boundary_mode
        self.n_blocks = b - a + 1
        self.dim = model.dim
        self._start = "initial" if a == 0 or boundary_mode == "full-prior" else boundary_mode
        if self._start == "marginal-prior":
            try:
                mean, cov = model.signal.marginal_params(a)
            except UnsupportedModeError:
                raise UnsupportedModeError(
                    "marginal-prior mode requires a signal with computable marginals"
                )
            self._start_mean = mean
            self._start_prec = np.linalg.inv(cov)
            self._start_logdet = float(np.linalg.slogdet(cov)[1])
        self._affine = isinstance(self.signal, LinearGaussianSignal) and isinstance(
            self.likelihood, GaussianEmission)
        self._stencil = None

    def _check(self, xs: np.ndarray):
        if xs.shape != (self.n_blocks, self.dim):
            raise ShapeError(f"window path must be ({self.n_blocks}, {self.dim}), got {xs.shape}")

    def _start_term(self, x_a: np.ndarray) -> float:
        if self._start == "flat-start":
            return 0.0
        if self._start == "initial":
            return self.signal.log_mu(x_a)
        r = x_a - self._start_mean
        return -0.5 * (float(r @ self._start_prec @ r) + self._start_logdet + self.dim * _LOG_2PI)

    def _start_grad(self, x_a: np.ndarray) -> np.ndarray:
        if self._start == "initial":
            return self.signal.grad_log_mu(x_a)
        return -self._start_prec @ (x_a - self._start_mean)

    def value(self, xs: np.ndarray) -> float:
        self._check(xs)
        val = self._start_term(xs[0]) + self.signal.log_f_sum(xs)
        val += float(np.sum(self.likelihood.log_terms(xs, self.observations)))
        return -val

    def grad(self, xs: np.ndarray) -> np.ndarray:
        """The block gradient as a fresh array; ``xs`` is left untouched."""
        self._check(xs)
        if not self._affine:
            return self._assembled_grad(xs)
        if self._stencil is None:
            self._stencil = _Stencil(self)
        return self._stencil(xs)

    def _assembled_grad(self, xs: np.ndarray) -> np.ndarray:
        G = self.signal.grad_log_transitions(xs)  # a fresh array, summed into in place
        if self._start != "flat-start":
            G[0] += self._start_grad(xs[0])
        G += self.likelihood.grad(xs, self.observations)
        return np.negative(G, out=G)


class _Stencil:
    """The gradient H x + grad U(0) of a conjugate window of N blocks.

    H is block tridiagonal and constant. Its interior diagonal block is
    D = A' Sigma^-1 A + Sigma^-1 + C' R^-1 C, and its off-diagonal block
    K = Sigma^-1 A couples neighbours: block m gets -K x_{m-1} and block
    m - 1 gets -K' x_m. The end blocks replace D where the window's start
    term and its missing last transition change it: the first is
    D - Sigma^-1 + P0 and the last D - A' Sigma^-1 A, with P0 the start
    term's precision (Sigma0^-1 for the initial density, the marginal's
    precision for marginal-prior, zero for flat-start); a one-block
    window has C' R^-1 C + P0 alone. Every block is a ``LinearDrift``, so
    the diagonal-or-matmul choice is that map's. The offset grad U(0) is
    taken once from the family assembly, which is the one place that
    handles b, b0, the observations and the marginal mean.
    """

    def __init__(self, obj: WindowedObjective):
        sig, lik = obj.signal, obj.likelihood
        Si, A = sig.Sigma_inv, sig.A
        AtSiA = A.T @ Si @ A
        P0 = (sig.Sigma0_inv if obj._start == "initial"
              else 0.0 if obj._start == "flat-start" else obj._start_prec)
        D = AtSiA + Si + lik.CtRinvC
        ends = (lik.CtRinvC + P0,) if obj.n_blocks == 1 else (D - Si + P0, D - AtSiA)
        blocks = (D, Si @ A) + ends
        if not all(np.all(np.isfinite(M)) for M in blocks):
            # a covariance near the smallest double: the curvature overflows
            raise DivergenceError("the window's Hessian blocks overflow", iteration=0)
        self.D, self.K, *self.ends = map(LinearDrift, blocks)
        self.g0 = obj._assembled_grad(np.zeros((obj.n_blocks, obj.dim)))

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        out = np.empty_like(xs, dtype=float)
        if xs.shape[0] == 1:
            out[0] = self.ends[0](xs[0])
        else:
            self.D(xs[1:-1], out[1:-1])
            out[0], out[-1] = self.ends[0](xs[0]), self.ends[1](xs[-1])
            T = self.K(xs[:-1])  # rows K x_{m-1}
            out[1:] -= T
            out[:-1] -= self.K.pullback(xs[1:], out=T)  # rows K' x_m
        out += self.g0
        return out


class FullObjective(WindowedObjective):
    """The full-path problem: the window (0, n) of the model."""

    def __init__(self, model: ModelSpec):
        super().__init__(model, (0, model.horizon), "full-prior")


def eval_U(model: ModelSpec, x) -> float:
    """Value of the negative log posterior for the full path."""
    return FullObjective(model).value(_as_blocks(x))


def grad_U(model: ModelSpec, x) -> PathVector:
    """Block gradient of the negative log posterior for the full path."""
    return PathVector(FullObjective(model).grad(_as_blocks(x)))

