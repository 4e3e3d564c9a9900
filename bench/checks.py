"""Independent references and output checks for the benchmark.

Everything here is computed from the workload's parameters and inputs
with numpy and scipy alone, never through ``viterbipar``, so a wrong
answer from the library cannot vouch for itself. Each check returns a
list of failure messages; an empty list means the output passed.

Sampling-based checks use a tolerance of ``Z_TOL`` standard errors, wide
enough that no seed trips them by chance (a 8-sigma excursion has
probability below 1e-14), yet far below the size of a real fault.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.linalg import solveh_banded
from scipy.special import ndtr

Z_TOL = 8.0
_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# Input samplers. The benchmark draws its own inputs so that they stay the
# same across commits even if the library's samplers change their draw order.
# ---------------------------------------------------------------------------

def sample_ar1(rng, n, d, a, sigma_sq):
    """Stationary isotropic AR(1) path x_m = a x_{m-1} + N(0, sigma_sq I)."""
    xs = np.empty((n + 1, d))
    xs[0] = rng.standard_normal(d) * math.sqrt(sigma_sq / (1.0 - a * a))
    noise = rng.standard_normal((n, d)) * math.sqrt(sigma_sq)
    for m in range(1, n + 1):
        xs[m] = a * xs[m - 1] + noise[m - 1]
    return xs


def sample_huber_noise(rng, size, c):
    """Exact draws from the density proportional to exp(-huber(t, c)):
    a Gaussian core on [-c, c] by rejection, exponential tails beyond."""
    core = math.sqrt(2.0 * math.pi * c) * (2.0 * ndtr(math.sqrt(c)) - 1.0)
    p_core = core / (core + 2.0 * math.exp(-0.5 * c))
    out = np.empty(size)
    take_core = rng.random(size) < p_core
    todo = np.flatnonzero(take_core)
    while todo.size:
        t = rng.standard_normal(todo.size) * math.sqrt(c)
        ok = np.abs(t) <= c
        out[todo[ok]] = t[ok]
        todo = todo[~ok]
    tails = np.flatnonzero(~take_core)
    signs = np.where(rng.random(tails.size) < 0.5, -1.0, 1.0)
    out[tails] = signs * (c + rng.exponential(size=tails.size))
    return out


def sample_tanh_huber(rng, n, d, scale, c):
    """x_0 ~ huber, x_m = scale * tanh(x_{m-1}) + huber noise."""
    xs = np.empty((n + 1, d))
    w = sample_huber_noise(rng, (n + 1) * d, c).reshape(n + 1, d)
    xs[0] = w[0]
    for m in range(1, n + 1):
        xs[m] = scale * np.tanh(xs[m - 1]) + w[m]
    return xs


def configs(N):
    """All 2^N binary spike patterns, one row each."""
    ints = np.arange(2 ** N)
    return ((ints[:, None] >> np.arange(N)) & 1).astype(float)


def coupling(x, N):
    """Symmetric zero-diagonal matrix from the row-major upper-triangle vector."""
    X = np.zeros((N, N))
    X[np.triu_indices(N, k=1)] = x
    return X + X.T


def field_probabilities(xs, N, rates):
    """Per-bin probabilities of every pattern under the exact pairwise
    field exp(0.5 (s - rates)' X (s - rates)); shape (T, 2^N)."""
    cen = configs(N) - rates
    probs = np.empty((xs.shape[0], cen.shape[0]))
    for m, x in enumerate(xs):
        e = 0.5 * np.einsum("ci,ci->c", cen @ coupling(x, N), cen)
        p = np.exp(e - e.max())
        probs[m] = p / p.sum()
    return probs


def sample_spikes(rng, xs, N, R, rates):
    """Spikes (T, R, N) drawn from the exact pairwise field, per trial."""
    probs = field_probabilities(xs, N, rates)
    cum = np.cumsum(probs, axis=1)
    u = rng.random((xs.shape[0], R))
    picks = np.minimum((u[:, :, None] > cum[:, None, :]).sum(axis=2), probs.shape[1] - 1)
    return configs(N)[picks]


# ---------------------------------------------------------------------------
# Exact MAP of the isotropic linear-Gaussian model with identity emission
# ---------------------------------------------------------------------------

class AR1Posterior:
    """Tridiagonal normal equations of the AR(1) + Gaussian-emission MAP.

    The model is isotropic, so the d coordinates decouple and each is a
    symmetric tridiagonal system H x = y / r^2 solved by
    ``solveh_banded``. ``length`` blocks cover time indices 0..length-1;
    the first block carries the initial prior N(0, sigma0_sq I).
    """

    def __init__(self, a, sigma_sq, sigma0_sq, r_sq, length):
        diag = np.full(length, (1.0 + a * a) / sigma_sq + 1.0 / r_sq)
        diag[-1] = 1.0 / sigma_sq + 1.0 / r_sq
        diag[0] = 1.0 / sigma0_sq + 1.0 / r_sq + (a * a / sigma_sq if length > 1 else 0.0)
        self.diag, self.off, self.r_sq = diag, -a / sigma_sq, r_sq
        self.lam_min = 1.0 / r_sq  # the prior precision is positive semidefinite
        self.lam_max = float(diag.max()) + 2.0 * abs(self.off)  # Gershgorin

    def solve(self, ys):
        ab = np.zeros((2, self.diag.shape[0]))
        ab[0, 1:] = self.off
        ab[1] = self.diag
        return solveh_banded(ab, ys / self.r_sq)

    def distance_allowance(self, grad_tol, x_star):
        """Largest distance to the exact MAP of a solve that stopped with
        |grad U| <= grad_tol (strong convexity: |x - x*| <= |grad| /
        lambda_min), plus the rounding error of the banded solve itself."""
        rounding = 64.0 * _EPS * (self.lam_max / self.lam_min) * float(np.linalg.norm(x_star))
        return grad_tol / self.lam_min + rounding


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_stopped_early(report, config, what):
    """A solve that ran to max_iters above its tolerance did not converge."""
    tol = config.grad_tol
    if report.iterations >= config.max_iters and not report.final_grad_norm <= tol:
        return [f"{what}: stopped at max_iters={config.max_iters} with gradient norm "
                f"{report.final_grad_norm:.3g} > tol {tol:g}"]
    return []


def check_close(xs, x_star, allowed, what):
    dist = float(np.linalg.norm(xs - x_star))
    if not dist <= allowed:
        return [f"{what}: distance {dist:.3g} to the reference exceeds {allowed:.3g}"]
    return []


def check_relative(got, want, rel_tol, what):
    """Every entry within rel_tol of want, relative to want's largest entry."""
    err = float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))
    if not err <= rel_tol:
        return [f"{what}: relative error {err:.3g} against the closed form exceeds {rel_tol:g}"]
    return []


def check_grad_small(grad, tol, what):
    gnorm = float(np.linalg.norm(grad))
    if not gnorm <= tol:
        return [f"{what}: |grad U| = {gnorm:.3g} at the result exceeds tol {tol:g}"]
    return []


def check_central_difference(value_fn, grad_fn, x, rng, what, points=4, rel_tol=1e-5):
    """Directional central differences of the value against the gradient
    at points near x, along seeded random directions."""
    failures = []
    for _ in range(points):
        p = x + 0.1 * rng.standard_normal(x.shape)
        g = grad_fn(p)
        v = rng.standard_normal(x.shape) + g / max(float(np.linalg.norm(g)), 1e-300)
        v /= np.linalg.norm(v)
        eps = 1e-5
        fd = (value_fn(p + eps * v) - value_fn(p - eps * v)) / (2.0 * eps)
        an = float(np.sum(g * v))
        scale = max(abs(an), abs(fd), 1.0)
        if not abs(fd - an) <= rel_tol * scale:
            failures.append(f"{what}: directional derivative {an:.10g} vs central "
                            f"difference {fd:.10g}")
    return failures


def check_segments(stitched, reference, segments, allowed, what):
    """Every kept segment lies within ``allowed`` (2-norm) of the reference."""
    failures = []
    for k, (lo, hi) in enumerate(segments):
        err = float(np.linalg.norm(stitched[lo:hi] - reference[lo:hi]))
        if not err <= allowed:
            failures.append(f"{what}: segment {k} is {err:.3g} from the full solve "
                            f"(allowed {allowed:.3g})")
    return failures


def check_identical(a, b, what):
    if a.shape != b.shape or not np.array_equal(a, b):
        return [f"{what}: arrays are not bit-identical"]
    return []


def lag1_autocorrelation(xs):
    v = xs - xs.mean(axis=0)
    return float(np.mean(np.sum(v[1:] * v[:-1], axis=0) / np.sum(v * v, axis=0)))


def check_lag1(xs, a, what):
    """Mean lag-1 autocorrelation over coordinates is a, within sampling
    error plus the O(1/n) bias of the estimator."""
    n, d = xs.shape[0] - 1, xs.shape[1]
    rho = lag1_autocorrelation(xs)
    tol = Z_TOL * math.sqrt((1.0 - a * a) / (n * d)) + (1.0 + 3.0 * abs(a)) / n
    if not abs(rho - a) <= tol:
        return [f"{what}: lag-1 autocorrelation {rho:.4f}, expected {a} +- {tol:.4f}"]
    return []


def check_variance(resid, var, fourth, what):
    """Mean square of zero-mean residuals equals var within sampling error;
    ``fourth`` is the residuals' fourth moment."""
    k = resid.size
    ms = float(np.mean(resid * resid))
    tol = Z_TOL * math.sqrt((fourth - var * var) / k)
    if not abs(ms - var) <= tol:
        return [f"{what}: mean square {ms:.5g}, expected {var:.5g} +- {tol:.3g}"]
    return []


def huber_moments(c):
    """Second and fourth moments of the density proportional to exp(-huber(t, c))."""
    def moment(k):
        # integrate the core and the tail apart, across the kink at t = c
        core = integrate.quad(lambda t: t ** k * math.exp(-t * t / (2.0 * c)), 0.0, c)[0]
        tail = integrate.quad(lambda t: t ** k * math.exp(-(t - 0.5 * c)), c, np.inf)[0]
        return 2.0 * (core + tail)

    z = moment(0)
    return moment(2) / z, moment(4) / z


def check_spike_moments(xs, spikes, N, rates, what):
    """Spike counts and pairwise co-firing agree with the exact field given
    the latent path, within sampling error. Co-firing is weighted by each
    bin's coupling, so that a field drawn with the wrong coupling shows
    even though the couplings average out over time."""
    probs = field_probabilities(xs, N, rates)
    cfg = configs(N)
    iu = np.triu_indices(N, k=1)
    pairs = cfg[:, iu[0]] * cfg[:, iu[1]]
    R = spikes.shape[1]
    stats = []
    for obs, weights, indicator in (
        (spikes, np.ones((xs.shape[0], N)), cfg),
        (spikes[:, :, iu[0]] * spikes[:, :, iu[1]], xs, pairs),
    ):
        mean = probs @ indicator  # (T, k): probability the indicator is 1
        excess = np.sum(weights * (obs - mean[:, None, :]).sum(axis=1), axis=0)
        sd = np.sqrt(R * np.sum(weights ** 2 * mean * (1.0 - mean), axis=0))
        stats.append(excess / sd)
    z = np.concatenate(stats)
    if not np.all(np.abs(z) <= Z_TOL):
        return [f"{what}: spike moments off by {np.max(np.abs(z)):.2f} standard errors"]
    return []


def check_constants(cert, expected, what, rel_tol=1e-12):
    failures = []
    for name, want in expected.items():
        got = getattr(cert, name)
        if not abs(got - want) <= rel_tol * max(abs(want), 1e-300):
            failures.append(f"{what}: {name} = {got!r}, closed form gives {want!r}")
    return failures


def check_bound(bound, observed, what):
    bound, observed = float(bound), float(observed)
    if not (math.isfinite(bound) and bound >= observed):
        return [f"{what}: bound {bound!r} is not finite or below the observed {observed!r}"]
    return []


def check_slack(min_slack, what, tol=1e-10):
    if not min_slack >= -tol:
        return [f"{what}: empirical decay-convexity slack {min_slack:.3g} < 0"]
    return []
