"""First-order MAP solvers.

Fixed-step gradient descent is the canonical method (explicit Euler on
the gradient flow of the objective); an Armijo backtracking variant is
the default for user runs since a good fixed step is data-scale
specific. Convergence is declared on the discounted gradient norm.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .core import GammaWeight, PathVector, _weighted_norm, gamma_weights
from .errors import ConfigError, DivergenceError, ShapeError
from .models.spec import ModelSpec
from .objective import FullObjective, WindowedObjective

_EPS = float(np.finfo(float).eps)
_ARMIJO_C = 1e-4  # sufficient-decrease constant of the backtracking line search

__all__ = [
    "SolverConfig",
    "SolveReport",
    "solve_map",
    "solve_windowed",
    "estimate_grad_lipschitz",
]


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the gradient solvers.

    ``step_size`` is the fixed step in fixed mode and the initial trial
    step in backtracking mode. ``grad_tol`` stops the iteration once the
    discounted gradient norm (weight ``gamma``) falls below it; the
    default None scales a 1e-8 floor with the square root of the path
    length. The defaults are the CLI's too.
    """

    step_mode: str = "backtracking"
    step_size: float = 1.0
    max_iters: int = 20_000
    grad_tol: float | None = None
    gamma: GammaWeight = field(default_factory=GammaWeight)

    def __post_init__(self):
        if self.step_mode not in ("fixed", "backtracking"):
            raise ConfigError(f"step_mode must be 'fixed' or 'backtracking', got {self.step_mode!r}")
        if not 0 < self.step_size < math.inf:
            raise ConfigError(f"step_size must be positive and finite, got {self.step_size}")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if self.grad_tol is not None and not 0 <= self.grad_tol < math.inf:
            raise ConfigError(f"grad_tol must be nonnegative and finite, got {self.grad_tol}")

    def resolved_tol(self, n_blocks: int) -> float:
        if self.grad_tol is not None:
            return self.grad_tol
        return 1e-8 * math.sqrt(n_blocks)


@dataclass
class SolveReport:
    """Outcome of one solve: the path plus convergence diagnostics.

    ``converged`` is true when the final discounted gradient norm is
    within the tolerance; a solve that stopped at ``max_iters`` short of
    it returns normally with ``converged`` false, and ``stop_reason``
    names the rule that ended it: ``"tolerance"`` or ``"max_iters"``.
    ``grad_evals`` and ``value_evals`` count the objective's gradient and
    value calls, including the final point's value. In backtracking mode
    ``halvings`` counts the rejected trial steps and ``coasting_steps`` the
    steps taken without a sufficient-decrease test, so that
    ``value_evals == 2 + iterations - coasting_steps + halvings``; both
    are zero in fixed mode.
    """

    solution: PathVector
    iterations: int
    final_grad_norm: float
    objective_value: float
    wall_clock_seconds: float
    converged: bool
    grad_evals: int
    value_evals: int
    stop_reason: str
    halvings: int
    coasting_steps: int

    def to_dict(self) -> dict:
        """Every field but the path."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "solution"}


@np.errstate(over="ignore", invalid="ignore")
def _descend(objective, config: SolverConfig, init: np.ndarray) -> SolveReport:
    """Shared descent loop for full and windowed objectives.

    ``objective.grad`` returns a fresh array, so the fixed-step update
    may scale it in place and subtract it from ``x``, the loop's own copy.
    At gamma = 1 the discounted norm is the plain 2-norm: one BLAS dot
    product of the gradient with itself, whose value also serves the
    backtracking tests. Other gammas weight each block's squared norm.
    The loop tests trial values and gradients for non-finite entries
    itself, so numpy's overflow and invalid-value warnings are silenced.
    """
    t_start = time.perf_counter()
    x = np.array(init, dtype=float)
    plain = config.gamma.gamma == 1.0
    weights = None if plain else gamma_weights(x.shape[0], config.gamma.gamma)
    tol = config.resolved_tol(x.shape[0])

    backtracking = config.step_mode == "backtracking"
    h = config.step_size
    grad_evals = value_evals = halvings = coasting_steps = 0
    fx = None
    if backtracking:
        fx = objective.value(x)
        value_evals += 1
        if not math.isfinite(fx):
            raise DivergenceError("objective not finite at the initial point", iteration=0)

    iterations = 0
    grow = False  # grow the trial step only after a clean first-trial accept
    coasting = False
    accepted_any = False  # coasting may only trust a step the search accepted
    # at most max_iters steps; the last pass only measures the final gradient
    for it in range(config.max_iters + 1):
        g = objective.grad(x)
        grad_evals += 1
        if plain:
            g_sq = float(np.vdot(g, g))
            gnorm = math.sqrt(g_sq)
        else:
            gnorm = _weighted_norm(g, weights)
        # a finite gradient can only have a non-finite norm by overflow
        if not math.isfinite(gnorm) and not np.all(np.isfinite(g)):
            raise DivergenceError(
                f"gradient became non-finite at iteration {it} (step too large?)",
                iteration=it,
            )
        if gnorm <= tol or it == config.max_iters:
            break
        iterations = it + 1
        if backtracking:
            if not plain:
                g_sq = float(np.einsum("md,md->", g, g))
            if accepted_any and _ARMIJO_C * h * g_sq <= 8.0 * _EPS * max(1.0, abs(fx)):
                # the sufficient-decrease test is below floating resolution
                # and would only measure rounding noise; coast on fixed
                # steps at half the last accepted step, which is strictly
                # inside the stable range that step certified
                if not coasting:
                    h *= 0.5
                    coasting = True
                coasting_steps += 1
                x = x - h * g
                continue
            coasting = False
            if grow:
                h = min(h * 2.0, config.step_size)
            rejected = 0
            while True:
                x_new = x - h * g
                f_new = objective.value(x_new)
                value_evals += 1
                if math.isfinite(f_new) and f_new <= fx - _ARMIJO_C * h * g_sq:
                    break
                h *= 0.5
                rejected += 1
                if h < 1e-300:
                    raise DivergenceError(
                        f"backtracking step underflow at iteration {it}", iteration=it
                    )
            halvings += rejected
            grow = rejected == 0
            accepted_any = True
            # the Armijo test above gives f_new <= fx: the objective does
            # not increase across accepted steps
            x, fx = x_new, f_new
        else:
            g *= h
            x -= g

    f_final = objective.value(x)
    value_evals += 1
    if not math.isfinite(f_final):
        raise DivergenceError("objective not finite at the final point", iteration=iterations)
    return SolveReport(
        solution=PathVector(x),
        iterations=iterations,
        final_grad_norm=gnorm,
        objective_value=float(f_final),
        wall_clock_seconds=time.perf_counter() - t_start,
        converged=gnorm <= tol,
        grad_evals=grad_evals,
        value_evals=value_evals,
        stop_reason="tolerance" if gnorm <= tol else "max_iters",
        halvings=halvings,
        coasting_steps=coasting_steps,
    )


def solve_map(model: ModelSpec, config: SolverConfig, init: PathVector | None = None) -> SolveReport:
    """Solve the full-path MAP problem by gradient descent: the window
    (0, n) through :func:`solve_windowed`."""
    return solve_windowed(FullObjective(model), config, init)


def solve_windowed(
    obj: WindowedObjective, config: SolverConfig, init: PathVector | None = None
) -> SolveReport:
    """Solve one windowed subproblem by gradient descent.

    The default start is the all-zero path.
    """
    if init is None:
        x0 = np.zeros((obj.n_blocks, obj.dim))
    else:
        x0 = init.blocks
        if x0.shape != (obj.n_blocks, obj.dim):
            raise ShapeError(
                f"init has shape {x0.shape}, expected {(obj.n_blocks, obj.dim)}"
            )
    return _descend(obj, config, x0)


def estimate_grad_lipschitz(objective, seed: int = 0, iters: int = 40) -> float:
    """Estimate the largest curvature of the objective by power iteration
    on gradient differences around the zero path.

    Used to pick safe fixed steps (h of order 1/L). For quadratic
    objectives this converges to the top Hessian eigenvalue.
    """
    rng = np.random.default_rng(seed)
    shape = (objective.n_blocks, objective.dim)
    x0 = np.zeros(shape)
    g0 = objective.grad(x0)
    v = rng.standard_normal(shape)
    v /= np.linalg.norm(v)
    eps = 1e-4
    lam = 0.0
    for _ in range(iters):
        hv = (objective.grad(x0 + eps * v) - g0) / eps
        lam = float(np.linalg.norm(hv))
        if lam == 0.0:
            return 0.0
        v = hv / lam
    return lam
