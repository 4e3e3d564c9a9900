"""Signal priors: the linear-Gaussian chain and a Huber-noise nonlinear chain.

Both are the chain x_m = A(x_{m-1}) + b + w_m, whose transition kernels
``_Chain`` writes once; a family supplies only its drift and noise law.
Both expose the same array-level interface used by the objective assembly:
log densities of the initial block and the transitions, their block
gradients, marginal parameters where available, and exact path sampling.
Paths are handled as (n+1, d) arrays throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ..errors import CertificationError, ConfigError, ShapeError, UnsupportedModeError

__all__ = [
    "LinearGaussianSignal",
    "HuberNonlinearSignal",
    "LinearDrift",
    "TanhDrift",
    "huber",
    "huber_grad",
    "stationary_covariance",
]

_LOG_2PI = math.log(2.0 * math.pi)
# relative size of the last doubling increment that stationary_covariance adds
_STATIONARY_TOL = 1e-14
# sampled points and slack per declared bound of the Huber drift spot check
_SPOT_CHECK_POINTS, _SPOT_CHECK_TOL = 16, 1e-8


def _finite(name: str, M) -> np.ndarray:
    """M as a float array; a NaN or infinite entry is a ConfigError."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ConfigError(f"{name} must be finite")
    return M


def _square(name: str, M) -> np.ndarray:
    """M as a finite float matrix; one that is not square is a ShapeError."""
    M = np.atleast_2d(_finite(name, M))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError(f"{name} must be square, got {M.shape}")
    return M


def _as_spd(name: str, M) -> tuple[np.ndarray, np.ndarray, float]:
    """Validate symmetric positive definiteness by Cholesky.

    Returns (matrix, cholesky factor, log determinant). A matrix that is
    not square is a ShapeError; one that is not SPD a CertificationError.
    """
    M = _square(name, M)
    if not np.allclose(M, M.T, rtol=1e-10, atol=1e-12):
        raise CertificationError(f"{name} must be symmetric")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise CertificationError(f"{name} is not positive definite") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return M, L, logdet


def _is_diagonal(M: np.ndarray) -> bool:
    return np.count_nonzero(M - np.diag(np.diag(M))) == 0


def _diag_factor(v: np.ndarray) -> float | np.ndarray:
    """A kernel factor from a diagonal: one float when its entries are
    bitwise equal (zeros of opposite sign differ), else a copy of the (d,)
    vector. Either one multiplies an (m, d) array to the same products."""
    v = np.array(v, dtype=float)
    return float(v[0]) if v.tobytes() == np.full_like(v, v[0]).tobytes() else v


def stationary_covariance(A: np.ndarray, Sigma: np.ndarray) -> np.ndarray:
    """Stationary covariance of x' = A x + w, w ~ N(0, Sigma).

    Sums the series Sigma + A Sigma A' + A^2 Sigma A^2' + ... by doubling:
    P <- P + A_k P A_k', A_k <- A_k^2 adds the next 2^k terms at once. The
    recursion stops once an increment falls below ``_STATIONARY_TOL``
    relative to P, when the remainder is of order its square. Requires the
    spectral radius of A to be below one.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1] or Sigma.shape != A.shape:
        raise ShapeError(f"stationary covariance needs a square A and a Sigma of its shape, "
                         f"got {A.shape} and {Sigma.shape}")
    if np.max(np.abs(np.linalg.eigvals(A))) >= 1.0:
        raise ConfigError("stationary covariance requires spectral radius of A below 1")
    P = Sigma.copy()
    Ak = A.copy()
    # 2^64 terms reach any spectral radius below one in double precision
    for _ in range(64):
        term = Ak @ P @ Ak.T
        P += term
        if np.max(np.abs(term)) <= _STATIONARY_TOL * np.max(np.abs(P)):
            break
        Ak = Ak @ Ak
    return 0.5 * (P + P.T)


# ---------------------------------------------------------------------------
# Drifts and the transition kernel both families share
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LinearDrift:
    """The linear map x -> M x, both a drift with constant Jacobian M and
    the one linear map of the Gaussian kernels (A, Sigma^-1, C, R^-1 and
    R^-1 C). M must be finite.

    A square diagonal M is held as one kernel factor (``_diag_factor``),
    which multiplies a stack of points; any other M is a matmul. The
    choice is made once, here. A diagonal whose entries are all equal
    (a I) is one float: numpy loops over a (d,) operand d elements at a
    time, while a scalar costs one pass over the stack. A single point is
    always ``M @ x``.
    """

    M: np.ndarray

    def __post_init__(self):
        M = np.atleast_2d(_finite("M", self.M))
        object.__setattr__(self, "M", M)
        diagonal = M.ndim == 2 and 0 < M.shape[0] == M.shape[1] and _is_diagonal(M)
        object.__setattr__(self, "_f", _diag_factor(np.diag(M)) if diagonal else None)

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """M x of a point, or the rows x_m' M' of a stack, into ``out`` if given."""
        if x.ndim != 2:
            return self.M @ x
        return np.matmul(x, self.M.T, out=out) if self._f is None else np.multiply(x, self._f, out=out)

    def pullback(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The rows v_m' M of a stack, into ``out`` if given (``v`` itself too)."""
        return np.matmul(v, self.M, out=out) if self._f is None else np.multiply(v, self._f, out=out)

    def quadratic_form(self, r: np.ndarray, per_row: bool = False):
        """r_m' M r_m of the rows of ``r``, one per row or summed over
        them. ``r`` may be overwritten."""
        if self._f is None:
            return np.einsum("md,md->m" if per_row else "md,md->", r @ self.M, r)
        np.multiply(r, r, out=r)
        r *= self._f
        return np.sum(r, axis=1 if per_row else None)

    def linearize(self, xs: np.ndarray, out: np.ndarray):
        """Write the drift of a stack of points into ``out`` and return the
        pullback v -> rows v_m' J(x_m)."""
        self(xs, out)
        return self.pullback


@dataclass(frozen=True)
class TanhDrift:
    """Coordinate-wise saturating drift A(x) = scale * tanh(x)."""

    scale: float = 0.5

    def __post_init__(self):
        _finite("scale", self.scale)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        A = np.tanh(x)
        A *= self.scale
        return A

    def linearize(self, xs: np.ndarray, out: np.ndarray):
        """Write the drift of a stack of points into ``out`` and return the
        pullback v -> rows v_m' J(x_m), from one tanh.

        J(x) is diag(scale sech^2 x) with sech^2 = 1 - tanh^2, which is
        exactly zero where tanh rounds to +-1 (cosh overflows from about
        |x| = 711). The pullback works in the tanh's own array, so it is
        called at most once.
        """
        t = np.tanh(xs)
        np.multiply(t, self.scale, out=out)

        def pullback(v):
            np.multiply(t, t, out=t)
            np.subtract(1.0, t, out=t)
            np.multiply(t, self.scale, out=t)
            return np.multiply(t, v, out=t)

        return pullback


class _Chain:
    """Transition kernels of the chain x_m = A(x_{m-1}) + b + w_m, written
    once for both families.

    A family holds ``drift_map`` (a point or an (m, d) stack of points to
    a fresh array, plus ``linearize``), the offset ``b`` and
    ``_b_nonzero``, and supplies the noise law: ``_log_noise(W)``, the
    summed log density of the noise rows W, which it may overwrite, and
    ``_score(V)``, which turns V = -w_m in place into the score
    d/dw log p(w_m).
    """

    def residuals(self, xs: np.ndarray) -> np.ndarray:
        """Transition residuals w_m = x_m - A(x_{m-1}) - b for m = 1..n,
        computed in the drift's fresh array, which callers reuse as scratch."""
        W = self.drift_map(xs[:-1])
        np.subtract(xs[1:], W, out=W)
        if self._b_nonzero:
            W -= self.b
        return W

    def log_f_sum(self, xs: np.ndarray) -> float:
        """Sum over m of log f(x_{m-1}, x_m)."""
        return 0.0 if xs.shape[0] == 1 else self._log_noise(self.residuals(xs))

    def grad_log_transitions(self, xs: np.ndarray) -> np.ndarray:
        """Block gradients of sum_m log f(x_{m-1}, x_m) (no initial term):
        the score s(w_m) on block m, -J(x_{m-1})' s(w_m) on block m - 1.

        The drift writes A(x_{m-1}) straight into block m, which becomes
        A(x_{m-1}) + b - x_m = -w_m exactly (rounding is symmetric in
        sign), and the family's score turns that into s(w_m) in place. The
        drift's pullback of it is subtracted from block m - 1. Besides G,
        only the drift's and the score's scratch is allocated.
        """
        G = np.empty_like(xs, dtype=float)
        G[0] = 0.0
        if xs.shape[0] == 1:
            return G
        V = G[1:]
        pullback = self.drift_map.linearize(xs[:-1], V)
        V -= xs[1:]
        if self._b_nonzero:
            V += self.b
        self._score(V)
        G[:-1] -= pullback(V)
        return G


class LinearGaussianSignal(_Chain):
    """x_0 ~ N(b0, Sigma0), x_m = A x_{m-1} + b + N(0, Sigma) noise.

    Parameters
    ----------
    A : (d, d) array
    b : (d,) array
    Sigma : (d, d) SPD array, transition noise covariance
    b0 : (d,) array
    Sigma0 : (d, d) SPD array, initial covariance

    Every parameter must be finite. The transitions run on the shared
    chain kernel with ``drift_map = LinearDrift(A)``, and the noise law
    with the ``LinearDrift`` of Sigma^-1, so each of A and Sigma^-1
    multiplies by its diagonal when it is diagonal (see ``LinearDrift``).
    """

    def __init__(self, A, b, Sigma, b0, Sigma0):
        self.A = _square("A", A)
        d = self.A.shape[0]
        b, b0 = _finite("b", b).reshape(-1), _finite("b0", b0).reshape(-1)
        if {b.size, b0.size} - {1, d}:  # a single entry broadcasts
            raise ShapeError(f"b and b0 must have 1 or {d} entries (the size of A), "
                             f"got {b.size} and {b0.size}")
        self.b, self.b0 = np.broadcast_to(b, (d,)).copy(), np.broadcast_to(b0, (d,)).copy()
        # sizes before _as_spd's symmetry and Cholesky tests, so that a
        # wrong-sized matrix is a ShapeError whatever its entries
        Sigma, Sigma0 = _square("Sigma", Sigma), _square("Sigma0", Sigma0)
        if Sigma.shape != (d, d) or Sigma0.shape != (d, d):
            raise ShapeError(f"Sigma and Sigma0 must be {d}x{d} (the size of A), "
                             f"got {Sigma.shape} and {Sigma0.shape}")
        self.Sigma, self._chol_S, self._logdet_S = _as_spd("Sigma", Sigma)
        self.Sigma0, self._chol_S0, self._logdet_S0 = _as_spd("Sigma0", Sigma0)
        self.Sigma_inv = _finite("Sigma^-1", np.linalg.inv(self.Sigma))
        self.Sigma0_inv = _finite("Sigma0^-1", np.linalg.inv(self.Sigma0))
        self._b_nonzero = bool(np.any(self.b))  # a zero b drops out of every residual
        self.drift_map = LinearDrift(self.A)
        self._si_map = LinearDrift(self.Sigma_inv)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    # -- log densities ---------------------------------------------------

    def log_mu(self, x0: np.ndarray) -> float:
        r = x0 - self.b0
        q = float(r @ self.Sigma0_inv @ r)
        return -0.5 * (q + self._logdet_S0 + self.dim * _LOG_2PI)

    def _log_noise(self, W: np.ndarray) -> float:
        q = float(self._si_map.quadratic_form(W))
        return -0.5 * (q + W.shape[0] * (self._logdet_S + self.dim * _LOG_2PI))

    def _score(self, V: np.ndarray):
        """-w_m -> -Sigma^-1 w_m in place."""
        self._si_map.pullback(V, out=V)

    def grad_log_mu(self, x0: np.ndarray) -> np.ndarray:
        return -self.Sigma0_inv @ (x0 - self.b0)

    # -- marginals and sampling ------------------------------------------

    def marginal_params(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of x_m under the prior chain.

        The k-step map (mean, cov) -> (A^k mean + s_k, A^k cov A^k' + P_k)
        doubles as A_2k = A_k^2, s_2k = A_k s_k + s_k, P_2k = A_k P_k A_k' + P_k
        from the one-step map (A, b, Sigma); the maps of the binary digits of
        m are applied in turn (they commute), so the cost is O(log m d^3).
        """
        m = int(m)
        if m < 0:
            raise ValueError(f"marginal index must be nonnegative, got {m}")
        mean = self.b0.copy()
        cov = self.Sigma0.copy()
        Ak, sk, Pk = self.A, self.b, self.Sigma
        while m:
            if m & 1:
                mean = Ak @ mean + sk
                cov = Ak @ cov @ Ak.T + Pk
            m >>= 1
            if m:
                sk = Ak @ sk + sk
                Pk = Ak @ Pk @ Ak.T + Pk
                Ak = Ak @ Ak
        return mean, cov

    def sample_path(self, horizon_n: int, rng: np.random.Generator) -> np.ndarray:
        # one draw of all the noise yields the same stream as a draw per step
        z = rng.standard_normal((horizon_n + 1, self.dim))
        xs = np.empty_like(z)
        xs[0] = self.b0 + self._chol_S0 @ z[0]
        for m in range(1, horizon_n + 1):
            xs[m] = self.A @ xs[m - 1] + self.b + self._chol_S @ z[m]
        return xs


# ---------------------------------------------------------------------------
# Huber-noise nonlinear signal
# ---------------------------------------------------------------------------

def _twice_c_huber(a: np.ndarray, c: float) -> np.ndarray:
    """Overwrite magnitudes a = |t| with 2c huber(t, c) = m (2a - m),
    m = min(a, c), and return them: the penalty without masks."""
    m = np.minimum(a, c)
    a *= 2.0
    a -= m
    a *= m
    return a


def huber(t: np.ndarray, c: float) -> np.ndarray:
    """Quadratic core / linear tail penalty: t^2/(2c) inside |t| <= c, |t| - c/2 outside.

    Computed without masks as m (2|t| - m) / (2c) with m = min(|t|, c).
    The core takes the same bits as t^2/(2c) (2|t| - |t| is exact); the
    tail is within an ulp of |t| - c/2, and the same bits at c = 1.
    NaN stays NaN and +-inf gives inf; 2|t| overflows above 2^1023.
    """
    a = _twice_c_huber(np.abs(np.asarray(t, dtype=float)), c)
    a /= 2.0 * c
    return a


def huber_grad(t: np.ndarray, c: float) -> np.ndarray:
    """The penalty's derivative t/c clipped to [-1, 1]: the same bits as
    t/c inside |t| <= c and sign(t) outside, at +-0, +-c, +-inf and NaN too."""
    return np.clip(np.asarray(t, dtype=float) / c, -1.0, 1.0)


def _huber_masses(c: float) -> tuple[float, float]:
    """Integrals of exp(-huber(t, c)) over the core [-c, c] and over both
    tails; their sum is the partition function.

    The core is a Gaussian of variance c, whose mass on [-c, c] is
    sqrt(2 pi c) (2 Phi(sqrt c) - 1) = sqrt(2 pi c) erf(sqrt(c / 2)); each
    tail is an exponential of mass exp(-c / 2).
    """
    core = math.sqrt(2.0 * math.pi * c) * math.erf(math.sqrt(0.5 * c))
    return core, 2.0 * math.exp(-0.5 * c)


def _sample_huber_noise(c: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Exact draws from the density proportional to exp(-huber(t, c)).

    Composition sampling: pick the Gaussian core or an exponential tail by
    its exact mass, then sample that component without rejection (the core
    via the Gaussian quantile restricted to [-c, c]).
    """
    mass_core, mass_tails = _huber_masses(c)
    u = rng.random(size)
    take_core = u < mass_core / (mass_core + mass_tails)
    out = np.empty(size)
    n_core = int(np.count_nonzero(take_core))
    if n_core:
        # Phi(-sqrt c) and Phi(sqrt c) bound the core's uniforms
        lo = 0.5 * math.erfc(math.sqrt(0.5 * c))
        v = lo + (1.0 - 2.0 * lo) * rng.random(n_core)
        quantile = NormalDist(0.0, math.sqrt(c)).inv_cdf
        out[take_core] = np.fromiter(map(quantile, v.tolist()), float, n_core)
    n_tail = size - n_core
    if n_tail:
        signs = np.where(rng.random(n_tail) < 0.5, -1.0, 1.0)
        out[~take_core] = signs * (c + rng.exponential(size=n_tail))
    return out


@dataclass(eq=False)
class HuberNonlinearSignal(_Chain):
    """x_m = A(x_{m-1}) + b + w_m with Huber-tailed noise, mu proportional
    to exp(-psi0(x)) with the same Huber penalty.

    ``drift_map`` is called on a point or an (m, d) stack of points and
    returns a fresh array, which the kernels overwrite;
    ``linearize(xs, out)`` writes the drift of a stack into ``out`` and
    returns the pullback v -> rows v_m' J(x_m), from one evaluation (see
    ``LinearDrift`` and ``TanhDrift``). Nothing else of it is used. The
    offset ``b`` is a nonempty vector whose length is the state dimension.
    ``lipschitz_bounds`` is (L_psi, L_grad_psi, L_A, L_grad_A): a bound on
    the noise-penalty gradient norm, its Lipschitz constant, the drift
    Jacobian operator norm and the Jacobian's Lipschitz constant. The
    constructor spot-checks the drift bounds on sampled points.
    """

    drift_map: object
    b: np.ndarray
    huber_c: float
    lipschitz_bounds: tuple[float, float, float, float]

    def __post_init__(self):
        self.b = np.array(_finite("b", self.b))
        if self.b.ndim != 1 or not self.b.size:
            raise ShapeError(f"b must be a nonempty vector, got shape {self.b.shape}")
        if isinstance(self.drift_map, LinearDrift) and self.drift_map.M.shape != (self.dim,) * 2:
            raise ShapeError(f"drift matrix M has shape {self.drift_map.M.shape}, expected "
                             f"{self.dim}x{self.dim} for the {self.dim} entries of b")
        self._b_nonzero = bool(np.any(self.b))  # a zero b drops out of every residual
        c = float(_finite("huber_c", self.huber_c))
        if c <= 0:
            raise ConfigError(f"huber threshold must be positive, got {c}")
        self.huber_c = c
        self.lipschitz_bounds = tuple(float(v) for v in self.lipschitz_bounds)
        if any(v < 0 or not math.isfinite(v) for v in self.lipschitz_bounds):
            raise ConfigError("Lipschitz bounds must be finite and nonnegative")
        self._log_z = self.dim * math.log(sum(_huber_masses(c)))  # log partition
        self._spot_check_bounds()

    def _spot_check_bounds(self):
        tol = _SPOT_CHECK_TOL
        L_psi, L_grad_psi, L_A, L_grad_A = self.lipschitz_bounds
        if L_psi + tol < 1.0 or L_grad_psi + tol < 1.0 / self.huber_c:
            raise ConfigError(
                "Huber penalty bounds too small: need L_psi >= 1 and "
                f"L_grad_psi >= 1/c = {1.0 / self.huber_c:g}"
            )
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((_SPOT_CHECK_POINTS, self.dim)) * 3.0
        # the identity's pullback at d copies of x has the rows e_i' J(x) of J(x)
        eye = np.eye(self.dim)
        jacs = [self.drift_map.linearize(X, np.empty(X.shape))(eye)
                for X in np.repeat(xs[:, None], self.dim, 1)]
        for J in jacs:
            if np.linalg.norm(J, 2) > L_A + tol:
                raise ConfigError("drift Jacobian exceeds the declared L_A at a sampled point")
        for i in range(len(xs) - 1):
            lhs = np.linalg.norm(jacs[i] - jacs[i + 1], 2)
            rhs = L_grad_A * np.linalg.norm(xs[i] - xs[i + 1]) + tol
            if lhs > rhs:
                raise ConfigError("drift Jacobian variation exceeds the declared L_grad_A")

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def log_mu(self, x0: np.ndarray) -> float:
        return -float(np.sum(huber(x0, self.huber_c))) - self._log_z

    def _log_noise(self, W: np.ndarray) -> float:
        np.abs(W, out=W)
        c = self.huber_c
        return -float(np.sum(_twice_c_huber(W, c))) / (2.0 * c) - W.shape[0] * self._log_z

    def _score(self, V: np.ndarray):
        """-w_m -> -psi'(w_m) = clip(-w_m / c, -1, 1) in place."""
        V /= self.huber_c
        np.clip(V, -1.0, 1.0, out=V)

    def grad_log_mu(self, x0: np.ndarray) -> np.ndarray:
        return -huber_grad(x0, self.huber_c)

    def marginal_params(self, m: int):
        raise UnsupportedModeError("Huber-noise signals have no closed-form marginals")

    def sample_path(self, horizon_n: int, rng: np.random.Generator) -> np.ndarray:
        d = self.dim
        w = _sample_huber_noise(self.huber_c, (horizon_n + 1) * d, rng).reshape(horizon_n + 1, d)
        xs = np.empty_like(w)
        xs[0] = w[0]
        for m in range(1, horizon_n + 1):
            xs[m] = np.asarray(self.drift_map(xs[m - 1]), dtype=float) + self.b + w[m]
        return xs
