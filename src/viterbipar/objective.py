"""Negative log posterior assembly: values and block gradients of a window
of the chain, and the full-path problem as the window (0, n).
"""

from __future__ import annotations

import numpy as np

from .core import PathVector
from .errors import ShapeError, UnsupportedModeError
from .models.signals import _LOG_2PI
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
    per call.
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
        self._check(xs)
        G = self.signal.grad_log_transitions(xs)  # a fresh array, summed into in place
        if self._start != "flat-start":
            G[0] += self._start_grad(xs[0])
        G += self.likelihood.grad(xs, self.observations)
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

