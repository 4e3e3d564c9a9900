"""Decay-convexity certificates and the quantitative accuracy bounds.

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

import math
from dataclasses import dataclass, asdict

import numpy as np

from .core import GammaWeight, gamma_weights
from .errors import CertificationError
from .models.signals import HuberNonlinearSignal, LinearGaussianSignal
from .models.spec import ModelSpec, _beta_array, alpha_gamma_n, eta_bound
from .objective import FullObjective

__all__ = [
    "GammaInterval",
    "DecayConvexityCertificate",
    "certify_linear_gaussian",
    "certify_huber",
    "feasible_gamma_interval",
    "lambda_max",
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
    interval = _interval_from_constants(zeta, zeta_tilde, theta)
    feasible = not interval.empty
    cert = DecayConvexityCertificate(
        zeta=zeta,
        zeta_tilde=zeta_tilde,
        theta=theta,
        lambda_g=lambda_g,
        feasible=feasible,
        gamma_interval=interval,
    )
    if feasible:
        g = interval.midpoint()
        cert = DecayConvexityCertificate(
            zeta=zeta,
            zeta_tilde=zeta_tilde,
            theta=theta,
            lambda_g=lambda_g,
            feasible=True,
            gamma_interval=interval,
            chosen_gamma=g,
            chosen_lambda=lambda_max(cert, g),
        )
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
    ata = signal.A.T @ signal.A
    rho_min_ata = float(np.min(np.linalg.eigvalsh(ata)))
    rho_max_ata = float(np.max(np.linalg.eigvalsh(ata)))
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
    if tail_horizon < n + 2:
        raise ValueError("tail_horizon must be at least n + 2")
    model.require_horizon(tail_horizon)
    beta = _beta_array(model, tail_horizon)
    w = GammaWeight(gamma)
    alpha = alpha_gamma_n(model, w, n)
    lam2 = lam * lam
    term1 = gamma ** n / lam2 * eta_bound(model, n, alpha / lam2, w)
    term2 = gamma ** (n + 1) / lam2 * eta_bound(model, n + 1, gamma * alpha / lam2, w)
    term3 = _beta_tail(beta, gamma, n + 2) / lam2
    return term1 + term2 + term3


def viterbi_distance_bound_chi(
    model: ModelSpec, cert: DecayConvexityCertificate, n: int, tail_horizon: int
) -> float:
    """Same distance as :func:`viterbi_distance_bound_eta` via the
    quadratic-growth constant chi: (gamma^(n-1) alpha 2 chi / lambda^2 +
    discounted beta tail from n) / lambda^2, tail truncated."""
    gamma, lam = _require_chosen(cert)
    if model.chi is None:
        raise CertificationError("chi-based bound needs model.chi")
    if tail_horizon < n:
        raise ValueError("tail_horizon must be at least n")
    model.require_horizon(tail_horizon)
    beta = _beta_array(model, tail_horizon)
    alpha = alpha_gamma_n(model, GammaWeight(gamma), n)
    lam2 = lam * lam
    lead = gamma ** (n - 1) * alpha * 2.0 * model.chi / lam2
    return (lead + _beta_tail(beta, gamma, n)) / lam2


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
    alpha = alpha_gamma_n(model, GammaWeight(gamma), Delta + delta)
    lam2 = lam * lam
    lead = gamma ** (delta - 1) * 2.0 * model.chi * alpha / lam2
    return (lead + _beta_tail(beta, gamma, delta, offset=Delta)) / lam2


# ---------------------------------------------------------------------------
# Empirical verification
# ---------------------------------------------------------------------------

@dataclass
class SlackReport:
    """Worst observed strong-monotonicity slack over sampled path pairs."""

    min_slack: float
    trials: int
    gamma: float
    lam: float


def empirical_decay_convexity(
    model: ModelSpec,
    cert: DecayConvexityCertificate,
    trials: int,
    seed: int,
    gamma: float | None = None,
    lam: float | None = None,
) -> SlackReport:
    """Sample random path pairs and report the minimum of
    <x - x', gradU(x) - gradU(x')>_gamma - lambda |x - x'|_gamma^2.

    Nonnegative (up to roundoff) whenever the certificate is valid; a
    negative minimum is reported, not asserted, so deliberately broken
    models can be inspected.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if gamma is None or lam is None:
        g, l = _require_chosen(cert)
        gamma = g if gamma is None else gamma
        lam = l if lam is None else lam
    grad_U = FullObjective(model).grad
    rng = np.random.default_rng(seed)
    n_blocks = model.horizon + 1
    d = model.dim
    weights = gamma_weights(n_blocks, gamma)
    scales = (0.1, 1.0, 10.0)
    min_slack = math.inf
    for t in range(trials):
        scale = scales[t % len(scales)]
        xs = rng.standard_normal((n_blocks, d)) * scale
        ys = rng.standard_normal((n_blocks, d)) * scale
        dx = xs - ys
        dg = grad_U(xs) - grad_U(ys)
        inner = float(np.einsum("md,md->m", dx, dg) @ weights)
        sq = float(np.einsum("md,md->m", dx, dx) @ weights)
        slack = inner - lam * sq
        if slack < min_slack:
            min_slack = slack
    return SlackReport(min_slack=min_slack, trials=trials, gamma=gamma, lam=lam)
