"""Decay-convexity certificates and the quantitative accuracy bounds.

The bounds read beta_m (the worst squared local gradient norm at the
zero path), its discounted running sum alpha and the ball bound eta,
each defined once here. Each evaluator builds the beta array once, over
its longest index range, and reads every term from it.

A certificate packages the per-block concavity constants (zeta for
interior blocks, zeta_tilde for boundary blocks) against the cross-time
coupling strength theta, the feasible discount interval for gamma, and
a chosen (gamma, lambda) pair. Feasibility requires
theta < zeta/2 and theta < zeta_tilde; for feasible certificates the
gradient field of the negative log posterior is lambda-strongly monotone
in the gamma-discounted inner product, which is what every bound below
rests on.

The bound evaluators return certified over-estimates: the eta terms are
upper bounds rather than exact suprema, while the infinite beta tails
are truncated at ``tail_horizon`` (truncation can only lower the value,
which is reported in the docstrings of the evaluators).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, asdict, replace

import numpy as np

from .core import GammaWeight, gamma_weights
from .errors import CertificationError, ConfigError, UnsupportedBoundError
from .models.likelihoods import StochVolFactor
from .models.signals import HuberNonlinearSignal, LinearGaussianSignal
from .models.spec import ModelSpec
from .objective import FullObjective

__all__ = [
    "GammaInterval",
    "DecayConvexityCertificate",
    "certify_linear_gaussian",
    "certify_huber",
    "feasible_gamma_interval",
    "lambda_max",
    "alpha_gamma_n",
    "viterbi_distance_bound_eta",
    "viterbi_distance_bound_chi",
    "segment_overlap_error_bound",
    "empirical_decay_convexity",
    "SlackReport",
]


@dataclass(frozen=True)
class GammaInterval:
    """Discount factors satisfying both feasibility inequalities.

    Open at ``lo``; closed at ``hi`` only when ``hi == 1`` is itself
    admissible. ``empty`` marks an infeasible certificate.
    """

    lo: float = math.nan
    hi: float = math.nan
    hi_closed: bool = False
    empty: bool = True

    def contains(self, gamma: float) -> bool:
        if self.empty:
            return False
        if gamma <= self.lo:
            return False
        return gamma < self.hi or (self.hi_closed and gamma == self.hi)

    def midpoint(self) -> float:
        if self.empty:
            raise ValueError("empty interval has no midpoint")
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class DecayConvexityCertificate:
    """Concavity/coupling constants with a chosen discount and rate."""

    zeta: float
    zeta_tilde: float
    theta: float
    lambda_g: float
    feasible: bool
    gamma_interval: GammaInterval
    chosen_gamma: float | None = None
    chosen_lambda: float | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        out["gamma_interval"] = None if self.gamma_interval.empty else {
            "lo": self.gamma_interval.lo,
            "hi": self.gamma_interval.hi,
            "hi_closed": self.gamma_interval.hi_closed,
        }
        return out


def _interval_from_constants(zeta: float, zeta_tilde: float, theta: float) -> GammaInterval:
    """Closed-form solution of the two feasibility inequalities in gamma.

    The interior condition zeta > theta (1+gamma)^2 / (2 gamma) is a
    quadratic in gamma; the boundary condition
    zeta_tilde > theta (1+gamma) / (2 gamma) is linear.
    """
    if theta < 0 or not (theta < min(zeta / 2.0, zeta_tilde)):
        return GammaInterval()
    if theta == 0.0:
        return GammaInterval(lo=0.0, hi=1.0, hi_closed=True, empty=False)
    disc = zeta * (zeta - 2.0 * theta)
    root = math.sqrt(disc)
    lo_quad = (zeta - theta - root) / theta
    hi_quad = (zeta - theta + root) / theta
    lo_lin = theta / (2.0 * zeta_tilde - theta)
    lo = max(lo_quad, lo_lin)
    hi = min(hi_quad, 1.0)
    if lo >= hi:
        return GammaInterval()
    return GammaInterval(lo=lo, hi=hi, hi_closed=(hi == 1.0), empty=False)


def feasible_gamma_interval(cert: DecayConvexityCertificate) -> GammaInterval:
    """Discount factors admissible for the certificate's constants."""
    return _interval_from_constants(cert.zeta, cert.zeta_tilde, cert.theta)


def lambda_max(cert: DecayConvexityCertificate, gamma: float) -> float:
    """Largest admissible strong-monotonicity constant at this discount."""
    if not cert.gamma_interval.contains(gamma):
        raise ValueError(f"gamma={gamma} lies outside the feasible interval")
    t_int = cert.theta * (1.0 + gamma) ** 2 / (2.0 * gamma)
    t_bnd = cert.theta * (1.0 + gamma) / (2.0 * gamma)
    return min(cert.zeta - t_int, cert.zeta_tilde - t_bnd)


def _finalize(zeta: float, zeta_tilde: float, theta: float, lambda_g: float) -> DecayConvexityCertificate:
    if not math.isfinite(lambda_g):
        raise ConfigError(f"lambda_g must be finite, got {lambda_g}")
    interval = _interval_from_constants(zeta, zeta_tilde, theta)
    cert = DecayConvexityCertificate(
        zeta=zeta,
        zeta_tilde=zeta_tilde,
        theta=theta,
        lambda_g=lambda_g,
        feasible=not interval.empty,
        gamma_interval=interval,
    )
    if cert.feasible:
        g = interval.midpoint()
        cert = replace(cert, chosen_gamma=g, chosen_lambda=lambda_max(cert, g))
    return cert


def certify_linear_gaussian(signal: LinearGaussianSignal, lambda_g: float = 0.0) -> DecayConvexityCertificate:
    """Constants for the linear-Gaussian chain from eigenvalue extremes.

    ``lambda_g`` is the likelihood's semi-log-concavity constant: 0 for
    log-concave families, negative for strongly log-concave ones, and
    possibly positive (e.g. Student t) in which case certification
    typically fails. The constants depend only on spectra, so isotropic
    models yield dimension-independent certificates.
    """
    if not isinstance(signal, LinearGaussianSignal):
        raise CertificationError("certify_linear_gaussian needs a LinearGaussianSignal")
    ata_eigs = np.linalg.eigvalsh(signal.A.T @ signal.A)
    rho_min_ata = float(np.min(ata_eigs))
    rho_max_ata = float(np.max(ata_eigs))
    sig_eigs = np.linalg.eigvalsh(signal.Sigma)
    sig0_eigs = np.linalg.eigvalsh(signal.Sigma0)
    rho_max_sigma = float(np.max(sig_eigs))
    rho_min_sigma = float(np.min(sig_eigs))
    rho_max_sigma0 = float(np.max(sig0_eigs))

    zeta = (1.0 + rho_min_ata) / rho_max_sigma - lambda_g
    zeta_tilde = (
        min(1.0 / rho_max_sigma, 1.0 / rho_max_sigma0 + rho_min_ata / rho_max_sigma)
        - lambda_g
    )
    theta = math.sqrt(rho_max_ata) / rho_min_sigma
    return _finalize(zeta, zeta_tilde, theta, lambda_g)


def certify_huber(signal: HuberNonlinearSignal, lambda_g: float) -> DecayConvexityCertificate:
    """Constants for the Huber-noise nonlinear chain.

    Both concavity constants collapse to
    -(L_grad_psi + L_A^2 L_grad_psi + L_psi L_grad_A) - lambda_g and the
    coupling is theta = L_grad_psi * L_A, so feasibility needs a strongly
    log-concave likelihood (lambda_g sufficiently negative).
    """
    L_psi, L_grad_psi, L_A, L_grad_A = signal.lipschitz_bounds
    zeta = -(L_grad_psi + L_A ** 2 * L_grad_psi + L_psi * L_grad_A) - lambda_g
    theta = L_grad_psi * L_A
    return _finalize(zeta, zeta, theta, lambda_g)


# ---------------------------------------------------------------------------
# beta / alpha / eta at the zero path
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
    gk = model.likelihood.grad(np.zeros((upto + 1, d)), model.observations[: upto + 1])

    tilde = bwd + gk
    tilde[0] = sig.grad_log_mu(np.zeros(d)) + (fwd if model.horizon >= 1 else 0.0) + gk[0]
    beta = np.einsum("md,md->m", tilde, tilde)
    last = min(upto, model.horizon - 1)
    if last >= 1:
        inner = both + gk[1 : last + 1]
        np.maximum(beta[1 : last + 1], np.einsum("md,md->m", inner, inner),
                   out=beta[1 : last + 1])
    return beta


def _alpha(beta: np.ndarray, gamma: float, n: int) -> float:
    """sum_{m<=n} gamma^(n-m) beta[m], as a running sum."""
    acc = 0.0
    for m in range(n + 1):
        acc = acc * gamma + beta[m]
    return float(acc)


def alpha_gamma_n(model: ModelSpec, w: GammaWeight, horizon: int) -> float:
    """Discounted running sum of beta: sum_{m<=n} gamma^(n-m) beta_m."""
    n = int(horizon)
    return _alpha(_beta_array(model, n), w.gamma, n)


def _eta(model: ModelSpec, n: int, r: float, w: GammaWeight, beta: np.ndarray) -> float:
    """Certified bound on the worst local gradient over the ball of radius
    sqrt(r) in the index-centered discounted norm, reading beta_n from
    ``beta``: the factor-volatility model's own bound (b = b0 = 0), else
    beta_n + chi r / gamma, which needs ``model.chi``."""
    if isinstance(model.likelihood, StochVolFactor) and isinstance(model.signal, LinearGaussianSignal):
        return _eta_bound_stoch_vol(model, n, r, w)
    if model.chi is None:
        raise UnsupportedBoundError(
            "no eta bound available: model.chi is unset and no specialized bound applies"
        )
    return float(beta[n]) + model.chi * r / w.gamma


def _eta_bound_stoch_vol(model: ModelSpec, n: int, r: float, w: GammaWeight) -> float:
    """Crude certified bound for the factor-volatility model, b = b0 = 0.

    Same shape as the generic derivation: a term linear in the ball radius
    covering the transition/initial gradients (blocks n-1, n+1 enter with
    the 1/sqrt(gamma)-inflated radius), plus the data term, which takes
    the worse of the exp(+-sqrt(r)) endpoints of each squared emission
    gradient coordinate. Deliberately conservative: the two pieces are
    combined with a factor-2 split instead of a sharp sup. Where
    exp(sqrt(r)) or a squared endpoint overflows a float, the bound is
    ``math.inf``: true but vacuous.
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
    root = math.sqrt(r)
    try:
        grow = math.exp(root)
    except OverflowError:
        return math.inf
    resid_sq = (model.observations[n] - lik.factor_means[n]) ** 2
    lo = (resid_sq * math.exp(-root) - 1.0) ** 2
    with np.errstate(over="ignore"):  # an overflowed endpoint is inf, as is the bound
        hi = (resid_sq * grow - 1.0) ** 2
    data = 2.0 * 0.25 * float(np.sum(np.maximum(lo, hi)))
    return linear + data


# ---------------------------------------------------------------------------
# Quantitative bounds
# ---------------------------------------------------------------------------

def _require_chosen(cert: DecayConvexityCertificate) -> tuple[float, float]:
    if not cert.feasible or cert.chosen_gamma is None or cert.chosen_lambda is None:
        raise CertificationError("bound evaluation needs a feasible certificate with chosen (gamma, lambda)")
    return cert.chosen_gamma, cert.chosen_lambda


def _beta_tail(beta: np.ndarray, gamma: float, k_from: int, offset: int = 0) -> float:
    """sum over k >= k_from of gamma^k beta[offset + k], truncated at the
    stored horizon. Truncation can only understate the infinite tail."""
    ks = np.arange(k_from, beta.shape[0] - offset)
    if ks.size == 0:
        return 0.0
    return float(np.sum(gamma ** ks * beta[offset + ks]))


def viterbi_distance_bound_eta(
    model: ModelSpec, cert: DecayConvexityCertificate, n: int, tail_horizon: int
) -> float:
    """Bound on the worst squared discounted distance between the horizon-n
    MAP path and every longer-horizon MAP path, eta-bound route.

    Three terms: the local eta bounds at indices n and n+1, at radii
    alpha/lambda^2 and gamma alpha/lambda^2, plus the discounted beta
    tail from n+2 truncated at ``tail_horizon`` (so the reported value is
    a lower bound on the untruncated expression).
    """
    gamma, lam = _require_chosen(cert)
    if n < 0 or tail_horizon < n + 2:
        raise ValueError("n must be nonnegative and tail_horizon at least n + 2")
    model.require_horizon(tail_horizon)
    beta = _beta_array(model, tail_horizon)
    w = GammaWeight(gamma)
    alpha = _alpha(beta, gamma, n)
    lam2 = lam * lam
    term1 = gamma ** n / lam2 * _eta(model, n, alpha / lam2, w, beta)
    term2 = gamma ** (n + 1) / lam2 * _eta(model, n + 1, gamma * alpha / lam2, w, beta)
    term3 = _beta_tail(beta, gamma, n + 2) / lam2
    return term1 + term2 + term3


def viterbi_distance_bound_chi(
    model: ModelSpec, cert: DecayConvexityCertificate, n: int, tail_horizon: int
) -> float:
    """Same distance as :func:`viterbi_distance_bound_eta` via the
    quadratic-growth constant chi: the segment bound of
    :func:`segment_overlap_error_bound` with Delta = 0 and delta = n,
    tail truncated at ``tail_horizon``."""
    return segment_overlap_error_bound(model, cert, 0, n, tail_horizon)


def segment_overlap_error_bound(
    model: ModelSpec,
    cert: DecayConvexityCertificate,
    Delta: int,
    delta: int,
    tail_horizon: int,
) -> float:
    """Bound on the first segment's total squared error against any longer
    horizon: (gamma^(delta-1) 2 chi alpha_{Delta+delta} / lambda^2 +
    sum_{k>=delta} gamma^k beta_{Delta+k}) / lambda^2.

    Needs observations through Delta + tail_horizon; the beta tail is
    truncated there.
    """
    gamma, lam = _require_chosen(cert)
    if model.chi is None:
        raise CertificationError("segment error bound needs model.chi")
    if delta < 0 or Delta < 0:
        raise ValueError("Delta and delta must be nonnegative")
    if tail_horizon < delta:
        raise ValueError("tail_horizon must be at least delta")
    model.require_horizon(Delta + tail_horizon)
    beta = _beta_array(model, Delta + tail_horizon)
    alpha = _alpha(beta, gamma, Delta + delta)
    lam2 = lam * lam
    lead = gamma ** (delta - 1) * alpha * 2.0 * model.chi / lam2
    return (lead + _beta_tail(beta, gamma, delta, offset=Delta)) / lam2


# ---------------------------------------------------------------------------
# Empirical verification
# ---------------------------------------------------------------------------

# Each sampled path is paired with at most this many paths drawn just before
# it at the same scale. Once the window is full, one new path and gradient
# serve this many pairs, and only this many earlier paths are held, so memory
# does not grow with ``trials``.
_PAIR_WINDOW = 3


@dataclass
class SlackReport:
    """Worst observed strong-monotonicity slack over sampled path pairs."""

    min_slack: float
    trials: int
    gamma: float
    lam: float


def _pair_slack(x, gx, y, gy, weights, lam) -> float:
    """The slack of one path pair. Its differences die on return, so they
    are not held while the next path's gradient is evaluated."""
    dx = x - y
    dg = gx - gy
    inner = float(np.einsum("md,md->m", dx, dg) @ weights)
    sq = float(np.einsum("md,md->m", dx, dx) @ weights)
    return inner - lam * sq


def empirical_decay_convexity(
    model: ModelSpec, cert: DecayConvexityCertificate, trials: int, seed: int
) -> SlackReport:
    """Sample random path pairs and report the minimum of
    <x - x', gradU(x) - gradU(x')>_gamma - lambda |x - x'|_gamma^2 at the
    certificate's chosen (gamma, lambda); ``dataclasses.replace`` sets
    another pair.

    The ``trials`` pairs are split over the path scales 0.1, 1 and 10
    (``len(range(s, trials, 3))`` pairs at the s-th). Paths are shared
    across pairs: each N(0, scale^2 I) path is drawn and its gradient
    evaluated once, then paired with each of the (up to)
    ``_PAIR_WINDOW`` = 3 paths drawn just before it at its scale until
    that scale's pairs are done. Every pair is still two independent
    paths. A scale with p >= 3 pairs draws ceil(p/3) + 2 paths and
    evaluates as many gradients: 87 for 240 trials, against 480 for
    disjoint pairs.

    Nonnegative (up to roundoff) whenever the certificate is valid; a
    negative minimum is reported, not asserted, so deliberately broken
    models can be inspected.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    gamma, lam = _require_chosen(cert)
    grad_U = FullObjective(model).grad
    rng = np.random.default_rng(seed)
    n_blocks = model.horizon + 1
    d = model.dim
    weights = gamma_weights(n_blocks, gamma)
    scales = (0.1, 1.0, 10.0)
    min_slack = math.inf
    for s, scale in enumerate(scales):
        pairs = len(range(s, trials, len(scales)))
        earlier = deque(maxlen=_PAIR_WINDOW)  # (path, gradient), oldest first
        while pairs > 0:
            xs = rng.standard_normal((n_blocks, d)) * scale
            gx = grad_U(xs)
            for ys, gy in itertools.islice(earlier, pairs):
                min_slack = min(min_slack, _pair_slack(xs, gx, ys, gy, weights, lam))
            pairs -= min(pairs, len(earlier))
            earlier.append((xs, gx))
    return SlackReport(min_slack=min_slack, trials=trials, gamma=gamma, lam=lam)
