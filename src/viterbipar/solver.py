"""First-order MAP solvers.

Fixed-step gradient descent is the canonical method (explicit Euler on
the gradient flow of the objective). The default for user runs is an
adaptive step, since a good fixed step is data-scale specific: Malitsky
and Mishchenko's step (Adaptive gradient descent without descent, ICML
2020), which bounds each step by a secant estimate of the local
curvature from the last two gradients, with Nesterov momentum (Nesterov
1983) and gradient-based adaptive restart (O'Donoghue and Candes, Found.
Comput. Math. 2015) on every step. Neither mode calls the objective's
value inside its loop, and neither promises that the value decreases.
Convergence is declared on the gradient's 2-norm, which bounds its norm
under every discount gamma <= 1.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, fields

import numpy as np

from .core import PathVector
from .errors import ConfigError, DivergenceError, ShapeError
from .models.spec import ModelSpec
from .objective import FullObjective, WindowedObjective

# elements per BLAS dot product: OpenBLAS runs ddot on one thread up to
# 10,000 elements, so no chunk wakes its thread pool
_DOT_CHUNK = 8192
STEP_MODES = ("fixed", "adaptive")

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

    ``step_size`` is the fixed mode's step; the adaptive mode measures its
    steps from the gradients and reads no step size. ``grad_tol`` stops
    the iteration once the gradient's 2-norm, which bounds its norm under
    every discount, falls below it; the default None scales a 1e-8 floor
    with the square root of the path length. The defaults are the CLI's
    too.
    """

    step_mode: str = "adaptive"
    step_size: float = 1.0
    max_iters: int = 20_000
    grad_tol: float | None = None

    def __post_init__(self):
        if self.step_mode not in STEP_MODES:
            raise ConfigError(f"step_mode must be {' or '.join(map(repr, STEP_MODES))}, "
                              f"got {self.step_mode!r}")
        if isinstance(self.step_size, bool) or not isinstance(self.step_size, numbers.Real):
            raise ConfigError(f"step_size must be a real number, got {self.step_size!r}")
        if not 0 < self.step_size < math.inf:
            raise ConfigError(f"step_size must be positive and finite, got {self.step_size}")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ConfigError(f"max_iters must be an integer, got {self.max_iters!r}")
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

    ``converged`` is true when the final gradient's 2-norm is within the
    tolerance; a solve that stopped at ``max_iters`` short of it returns
    normally with ``converged`` false, and ``stop_reason`` names the rule
    that ended it: ``"tolerance"`` or ``"max_iters"``.
    ``grad_evals`` and ``value_evals`` count the objective's gradient and
    value calls: ``iterations + 1`` gradients and one value, the returned
    point's. Adaptive steps carry restarted momentum, and ``restarts``
    counts those whose momentum the gradient test reset; it is zero in
    fixed mode.
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
    restarts: int

    def to_dict(self) -> dict:
        """Every field but the path."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "solution"}


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """<u, v> of two same-shaped arrays: ``np.vdot`` itself up to
    ``_DOT_CHUNK`` elements, else the in-order sum of ``np.vdot`` over
    chunks of that many. Each call then runs on the calling thread under
    a multi-threaded OpenBLAS, whose thread pool, woken on every
    iteration by a long gradient's norm, measurably slowed the loop."""
    if u.size <= _DOT_CHUNK:
        return float(np.vdot(u, v))
    u, v = u.reshape(-1), v.reshape(-1)
    return float(sum(np.vdot(u[i : i + _DOT_CHUNK], v[i : i + _DOT_CHUNK])
                     for i in range(0, u.size, _DOT_CHUNK)))


@np.errstate(over="ignore", invalid="ignore")
def _descend(objective, config: SolverConfig, init: np.ndarray) -> SolveReport:
    """Shared descent loop for full and windowed objectives.

    ``y`` is the point whose gradient each pass takes, and the point
    returned. ``objective.grad`` returns a fresh array, so the fixed-step
    update may scale it in place and subtract it from ``y``, the loop's
    own copy. An adaptive step goes to x_new = y - h g with
    h = min(sqrt(1 + theta) h_last, |y - y_last| / (2 |g - g_last|)) and
    theta = h / h_last. The first step has length 1e-6 max(1, |y|) and
    theta starts infinite, so the second step is a pure secant estimate.
    Each step then extrapolates y = x_new + beta (x_new - x) with
    beta = (k - 1) / (k + 2), and k restarts when the step points uphill,
    <g, x_new - x> > 0 (O'Donoghue and Candes' gradient restart). The
    adaptive steps keep their own arrays, so that y_last and g_last
    survive the step.
    Every dot product, the stopping norm's g.g included, is taken by
    ``_dot`` in single-threaded BLAS chunks. The loop tests gradients for
    non-finite entries itself, so numpy's overflow and invalid-value
    warnings are silenced.
    """
    t_start = time.perf_counter()
    y = np.array(init, dtype=float)
    tol = config.resolved_tol(y.shape[0])

    adaptive = config.step_mode == "adaptive"
    h = config.step_size
    grad_evals = restarts = iterations = 0
    # at most max_iters steps; the last pass only measures the final gradient
    for it in range(config.max_iters + 1):
        g = objective.grad(y)
        grad_evals += 1
        gnorm = math.sqrt(_dot(g, g))
        # a finite gradient can only have a non-finite norm by overflow
        if not math.isfinite(gnorm) and not np.all(np.isfinite(g)):
            raise DivergenceError(
                f"gradient became non-finite at iteration {it} (step too large?)",
                iteration=it,
            )
        if gnorm <= tol or it == config.max_iters:
            break
        iterations = it + 1
        if not adaptive:
            g *= h
            y -= g
            continue
        if it == 0:
            x, k = y, 0
            h, theta = 1e-6 * max(1.0, math.sqrt(_dot(y, y))) / gnorm, math.inf
        else:
            dy, dg = y - y_last, g - g_last
            dg_norm = math.sqrt(_dot(dg, dg))
            secant = math.sqrt(_dot(dy, dy)) / (2.0 * dg_norm) if dg_norm else math.inf
            # a gradient that has not changed since the first step bounds
            # no step: keep the last one
            h_new = min(math.sqrt(1.0 + theta) * h, secant)
            if h_new == math.inf:
                h_new = h
            h, theta = h_new, h_new / h
        y_last, g_last = y, g
        x_new = y - h * g
        v = x_new - x
        restart = _dot(g, v) > 0
        restarts += restart
        k = 1 if restart else k + 1
        beta = (k - 1) / (k + 2)
        x, y = x_new, x_new + beta * v if beta else x_new

    f_final = objective.value(y)
    if not math.isfinite(f_final):
        raise DivergenceError("objective not finite at the final point", iteration=iterations)
    return SolveReport(
        solution=PathVector(y),
        iterations=iterations,
        final_grad_norm=gnorm,
        objective_value=float(f_final),
        wall_clock_seconds=time.perf_counter() - t_start,
        converged=gnorm <= tol,
        grad_evals=grad_evals,
        value_evals=1,
        stop_reason="tolerance" if gnorm <= tol else "max_iters",
        restarts=restarts,
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
