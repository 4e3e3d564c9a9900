"""First-order MAP solvers.

Fixed-step gradient descent is the canonical method (explicit Euler on
the gradient flow of the objective); an Armijo backtracking variant is
the default for user runs since a good fixed step is data-scale
specific. Once its sufficient-decrease test falls below floating-point
resolution, the backtracking variant coasts on fixed steps that carry
Nesterov momentum (Nesterov 1983) with gradient-based adaptive restart
(O'Donoghue and Candes, Found. Comput. Math. 2015); the returned point
meets the same stopping rule. Convergence is declared on the gradient's
2-norm, which bounds its norm under every discount gamma <= 1.
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

_EPS = float(np.finfo(float).eps)
_ARMIJO_C = 1e-4  # sufficient-decrease constant of the backtracking line search
# elements per BLAS dot product: OpenBLAS runs ddot on one thread up to
# 10,000 elements, so no chunk wakes its thread pool
_DOT_CHUNK = 8192
STEP_MODES = ("fixed", "backtracking")

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
    gradient's 2-norm, which bounds its norm under every discount, falls
    below it; the default None scales a 1e-8 floor with the square root
    of the path length. The defaults are the CLI's too.
    """

    step_mode: str = "backtracking"
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
    value calls, including the final point's value. In backtracking mode
    ``halvings`` counts the rejected trial steps and ``coasting_steps`` the
    steps taken without a sufficient-decrease test, so that
    ``value_evals == 2 + iterations - coasting_steps + halvings``.
    Coasting steps carry restarted momentum, and ``restarts`` counts those
    whose momentum the gradient test reset. All three are zero in fixed
    mode.
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

    ``objective.grad`` returns a fresh array, so the fixed-step update
    may scale it in place and subtract it from ``x``, the loop's own copy.
    A coasting step of backtracking mode likewise turns it into the step's
    momentum in place: the loop holds one momentum array, and ``x`` is
    the extrapolated point whose gradient the next pass evaluates. The
    momentum restarts (no extrapolation) on entry to each coasting phase
    and whenever it points uphill, ``<g, x_new - x_last> > 0``
    (O'Donoghue and Candes' gradient restart).
    The stopping norm is the gradient's dot product with itself, taken by
    ``_dot`` in single-threaded BLAS chunks; its value also serves the
    backtracking tests, and ``_dot`` takes the restart test's <g, v> too.
    The loop tests trial values and gradients for non-finite entries
    itself, so numpy's overflow and invalid-value warnings are silenced.
    """
    t_start = time.perf_counter()
    x = np.array(init, dtype=float)
    tol = config.resolved_tol(x.shape[0])

    backtracking = config.step_mode == "backtracking"
    h = config.step_size
    grad_evals = value_evals = halvings = coasting_steps = restarts = 0
    fx = None
    if backtracking:
        fx = objective.value(x)
        value_evals += 1
        if not math.isfinite(fx):
            raise DivergenceError("objective not finite at the initial point", iteration=0)

    iterations = 0
    grow = False  # grow the trial step only after a clean first-trial accept
    coasting = False
    v = None  # momentum of the coasting steps
    accepted_any = False  # coasting may only trust a step the search accepted
    # at most max_iters steps; the last pass only measures the final gradient
    for it in range(config.max_iters + 1):
        g = objective.grad(x)
        grad_evals += 1
        g_sq = _dot(g, g)
        gnorm = math.sqrt(g_sq)
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
            if accepted_any and _ARMIJO_C * h * g_sq <= 8.0 * _EPS * max(1.0, abs(fx)):
                # the sufficient-decrease test is below floating resolution
                # and would only measure rounding noise; coast on fixed
                # steps at half the last accepted step, which is strictly
                # inside the stable range that step certified. The steps
                # carry restarted Nesterov momentum: x_new = x - h g, then
                # x = x_new + beta v with v = x_new - x_last and
                # beta = (k - 1) / (k + 2), so that x_last = x - beta v
                if not coasting:
                    h *= 0.5
                    coasting = True
                    k, beta = 0, 0.0  # no momentum carries into a coasting phase
                coasting_steps += 1
                # restart when the new momentum beta v - h g points uphill
                restart = beta > 0 and beta * _dot(g, v) > h * g_sq
                g *= -h
                x += g
                if beta:
                    v *= beta
                    g += v
                v = g  # the gradient's own array now holds the momentum
                restarts += restart
                k = 1 if restart else k + 1
                beta = (k - 1) / (k + 2)
                if beta:
                    x += beta * v
                continue
            coasting, v = False, None  # hold no momentum array across tested steps
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
