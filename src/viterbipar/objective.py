"""Negative log posterior assembly: values and block gradients of a window
of the chain, the full-path problem as the window (0, n), the phi-style
local gradients as blocks of small windows, and Hessian quadratic forms.
"""

from __future__ import annotations

import numpy as np

from .core import GammaWeight, PathVector, _weighted_norm, gamma_weights
from .errors import ShapeError, UnsupportedModeError
from .models.signals import _LOG_2PI
from .models.spec import ModelSpec

__all__ = [
    "eval_U",
    "grad_U",
    "WindowedObjective",
    "FullObjective",
    "grad_phi",
    "grad_phi_tilde",
    "hessian_quadratic_form",
]

BOUNDARY_MODES = ("full-prior", "marginal-prior", "flat-start")


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
    """

    def __init__(self, model: ModelSpec, window: tuple[int, int], boundary_mode: str = "marginal-prior"):
        if boundary_mode not in BOUNDARY_MODES:
            raise UnsupportedModeError(
                f"boundary mode {boundary_mode!r} not one of {BOUNDARY_MODES}"
            )
        a, b = int(window[0]), int(window[1])
        self.model = model.window(a, b)  # the window's own model, indexed from 0
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

    def _check(self, xs: np.ndarray):
        if xs.shape != (self.n_blocks, self.dim):
            raise ShapeError(f"window path must be ({self.n_blocks}, {self.dim}), got {xs.shape}")

    def _start_term(self, x_a: np.ndarray) -> float:
        if self._start == "flat-start":
            return 0.0
        if self._start == "initial":
            return self.model.signal.log_mu(x_a)
        r = x_a - self._start_mean
        return -0.5 * (float(r @ self._start_prec @ r) + self._start_logdet + self.dim * _LOG_2PI)

    def _start_grad(self, x_a: np.ndarray) -> np.ndarray:
        if self._start == "flat-start":
            return np.zeros_like(x_a)
        if self._start == "initial":
            return self.model.signal.grad_log_mu(x_a)
        return -self._start_prec @ (x_a - self._start_mean)

    def value(self, xs: np.ndarray) -> float:
        self._check(xs)
        val = self._start_term(xs[0]) + self.model.signal.log_f_sum(xs)
        val += float(np.sum(self.model.log_g_terms(xs)))
        return -val

    def grad(self, xs: np.ndarray) -> np.ndarray:
        self._check(xs)
        G = self.model.signal.grad_log_transitions(xs)  # a fresh array, summed into in place
        G[0] += self._start_grad(xs[0])
        G += self.model.grad_log_g(xs)
        return np.negative(G, out=G)


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


# ---------------------------------------------------------------------------
# Local gradients of the summed log densities
# ---------------------------------------------------------------------------

def grad_phi(model: ModelSpec, x, index_n: int) -> np.ndarray:
    """Gradient, with respect to block n, of the interior local sum
    log f(x_{n-1}, x_n) + log f(x_n, x_{n+1}) + log g(x_n, y_n).

    This is minus the middle block of the gradient of the window
    (n-1, n+1), whose other terms do not involve x_n. Valid for
    1 <= n <= horizon - 1; the boundary blocks use :func:`grad_phi_tilde`.
    """
    xs = _as_blocks(x)
    n = int(index_n)
    if not 1 <= n <= xs.shape[0] - 2:
        raise IndexError(f"interior index must satisfy 1 <= n <= {xs.shape[0] - 2}, got {n}")
    obj = WindowedObjective(model, (n - 1, n + 1), "flat-start")
    return -obj.grad(xs[n - 1 : n + 2])[1]


def grad_phi_tilde(model: ModelSpec, x, index_n: int) -> np.ndarray:
    """Gradient, with respect to block n, of the boundary local sum.

    Index 0 bundles the initial density, the forward transition (when a
    next block exists) and the emission: minus block 0 of the gradient of
    the window (0, 1), or (0, 0) for a one-block path. Index n >= 1
    bundles the backward transition and the emission: minus the last
    block of the gradient of the window (n-1, n).
    """
    xs = _as_blocks(x)
    n = int(index_n)
    if not 0 <= n <= xs.shape[0] - 1:
        raise IndexError(f"index must satisfy 0 <= n <= {xs.shape[0] - 1}, got {n}")
    lo, hi = (0, min(1, xs.shape[0] - 1)) if n == 0 else (n - 1, n)
    obj = WindowedObjective(model, (lo, hi), "flat-start")
    return -obj.grad(xs[lo : hi + 1])[n - lo]


# ---------------------------------------------------------------------------
# Hessian quadratic forms
# ---------------------------------------------------------------------------

def hessian_quadratic_form(
    model: ModelSpec,
    x,
    v,
    w: GammaWeight,
    eps0: float = 1e-5,
) -> float:
    """Discounted quadratic form of the objective curvature along v at x.

    Uses the symmetric difference of the gradient with step eps0 scaled by
    the discounted norm of v, paired with the discounted inner product.
    Exact (up to roundoff) for models with quadratic objectives.
    """
    obj = FullObjective(model)
    xs = _as_blocks(x)
    vs = _as_blocks(v)
    obj._check(xs)
    obj._check(vs)
    weights = gamma_weights(vs.shape[0], w.gamma)
    vnorm = _weighted_norm(vs, weights)
    if vnorm == 0.0:
        return 0.0
    eps = eps0 / vnorm
    hv = (obj.grad(xs + eps * vs) - obj.grad(xs - eps * vs)) / (2.0 * eps)
    return float(np.einsum("md,md->m", vs, hv) @ weights)
