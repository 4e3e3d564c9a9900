"""Certificate arithmetic, feasible discount intervals, and the
quantitative accuracy bounds against independent closed-form oracles."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from viterbipar import (
    GammaWeight,
    GaussianEmission,
    LinearGaussianSignal,
    ModelSpec,
    alpha_gamma_n,
    beta_m,
    certify_huber,
    certify_linear_gaussian,
    empirical_decay_convexity,
    eta_bound,
    feasible_gamma_interval,
    lambda_max,
    segment_overlap_error_bound,
    viterbi_distance_bound_eta,
    viterbi_distance_bound_chi,
)
from viterbipar.certificates import DecayConvexityCertificate, GammaInterval
from viterbipar.core import gamma_weights
from viterbipar.errors import CertificationError

from conftest import (
    gamma_inner,
    gaussian_model,
    gaussian_model_with_obs,
    huber_signal,
    lg_signal,
    neural_model,
    reference_decay_convexity_slack,
)

GOLDEN_LO = (3.0 - math.sqrt(5.0)) / 2.0  # 0.3819660112501051


class TestCertifyLinearGaussian:
    def test_hand_values(self):
        cert = certify_linear_gaussian(lg_signal(a=0.5), lambda_g=0.0)
        assert cert.zeta == pytest.approx(1.25, abs=1e-15)
        assert cert.zeta_tilde == pytest.approx(1.0, abs=1e-15)
        assert cert.theta == pytest.approx(0.5, abs=1e-15)
        assert cert.feasible

    def test_decoupled_chain_always_feasible(self):
        cert = certify_linear_gaussian(lg_signal(a=0.0), lambda_g=0.0)
        assert cert.theta == 0.0
        assert cert.feasible
        assert cert.gamma_interval.lo == 0.0 and cert.gamma_interval.hi == 1.0

    def test_explosive_chain_infeasible(self):
        cert = certify_linear_gaussian(lg_signal(a=1.5), lambda_g=0.0)
        assert not cert.feasible
        assert cert.gamma_interval.empty
        assert cert.chosen_gamma is None

    def test_positive_lambda_g_can_break_feasibility(self):
        cert = certify_linear_gaussian(lg_signal(a=0.5), lambda_g=1.0)
        assert not cert.feasible

    def test_dimension_independence_for_isotropic_models(self):
        certs = [
            certify_linear_gaussian(
                lg_signal(d=d, a=0.95, sigma_sq=1e-8, stationary=True), lambda_g=0.0
            )
            for d in (1, 10, 110)
        ]
        for c in certs[1:]:
            assert c.zeta == certs[0].zeta
            assert c.zeta_tilde == certs[0].zeta_tilde
            assert c.theta == certs[0].theta
            assert c.gamma_interval == certs[0].gamma_interval
            assert c.chosen_lambda == certs[0].chosen_lambda

    def test_non_spd_covariance_rejected(self):
        with pytest.raises(CertificationError):
            lg_signal_bad = lg_signal(a=0.5)
            certify_linear_gaussian(
                type(lg_signal_bad)(
                    lg_signal_bad.A,
                    lg_signal_bad.b,
                    -np.eye(1),
                    lg_signal_bad.b0,
                    lg_signal_bad.Sigma0,
                )
            )


class TestFeasibleInterval:
    def test_hand_interval(self):
        cert = certify_linear_gaussian(lg_signal(a=0.5), lambda_g=0.0)
        interval = feasible_gamma_interval(cert)
        assert interval.lo == pytest.approx(GOLDEN_LO, abs=1e-12)
        assert interval.hi == 1.0 and interval.hi_closed

    def test_zero_theta_full_interval(self):
        cert = certify_linear_gaussian(lg_signal(a=0.0), lambda_g=0.0)
        interval = feasible_gamma_interval(cert)
        assert (interval.lo, interval.hi, interval.hi_closed) == (0.0, 1.0, True)

    def test_exact_boundary_is_empty(self):
        # theta = zeta/2 = zeta_tilde: both strict inequalities fail at gamma=1
        cert = DecayConvexityCertificate(
            zeta=1.0, zeta_tilde=0.5, theta=0.5, lambda_g=0.0,
            feasible=False, gamma_interval=GammaInterval(),
        )
        assert feasible_gamma_interval(cert).empty

    def test_contains_respects_open_lower_end(self):
        cert = certify_linear_gaussian(lg_signal(a=0.5), lambda_g=0.0)
        iv = cert.gamma_interval
        assert not iv.contains(iv.lo)
        assert iv.contains(iv.lo + 1e-9)
        assert iv.contains(1.0)

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8, 0.95])
    def test_closed_form_matches_inequality_scan(self, a):
        # independent oracle: test both feasibility inequalities on a fine
        # grid of gamma values and compare membership with the closed form
        cert = certify_linear_gaussian(
            lg_signal(a=a, sigma_sq=0.7, sigma0_sq=1.3), lambda_g=0.0
        )
        iv = cert.gamma_interval
        z, zt, th = cert.zeta, cert.zeta_tilde, cert.theta
        for g in np.linspace(1e-4, 1.0, 2001):
            ok = z > th * (1 + g) ** 2 / (2 * g) and zt > th * (1 + g) / (2 * g)
            if abs(g - iv.lo) < 2e-3:
                continue  # skip the boundary itself (grid resolution)
            assert iv.contains(float(g)) == ok, f"gamma={g}"


class TestLambdaMax:
    def test_hand_value(self):
        cert = certify_linear_gaussian(lg_signal(a=0.5), lambda_g=0.0)
        assert lambda_max(cert, 0.8) == pytest.approx(0.2375, abs=1e-13)

    def test_zero_theta_gives_min_of_constants(self):
        cert = certify_linear_gaussian(lg_signal(a=0.0), lambda_g=0.0)
        for g in (0.2, 0.6, 1.0):
            assert lambda_max(cert, g) == pytest.approx(min(cert.zeta, cert.zeta_tilde))

    def test_vanishes_at_interval_edge(self):
        cert = certify_linear_gaussian(lg_signal(a=0.5), lambda_g=0.0)
        lo = cert.gamma_interval.lo
        assert lambda_max(cert, lo + 1e-10) == pytest.approx(0.0, abs=1e-8)
        with pytest.raises(ValueError):
            lambda_max(cert, lo - 1e-6)

    def test_chosen_pair_is_midpoint_rule(self):
        cert = certify_linear_gaussian(lg_signal(a=0.5), lambda_g=0.0)
        assert cert.chosen_gamma == pytest.approx(0.5 * (GOLDEN_LO + 1.0), abs=1e-12)
        assert cert.chosen_lambda == pytest.approx(lambda_max(cert, cert.chosen_gamma))

    def test_undiscounted_endpoint_thresholds(self):
        # at gamma = 1 both feasibility thresholds collapse to 2 theta and
        # theta, so the admissible rate is min(zeta - 2 theta, zeta_tilde - theta)
        cert = certify_linear_gaussian(lg_signal(a=0.5), lambda_g=0.0)
        want = min(cert.zeta - 2 * cert.theta, cert.zeta_tilde - cert.theta)
        assert lambda_max(cert, 1.0) == pytest.approx(want, abs=1e-14)


class TestCertifyHuber:
    def test_hand_values(self):
        # declared bounds (L_psi, L_grad_psi, L_A, L_grad_A) = (1, 1, 0.1, 0.1)
        sig = huber_signal(d=2, scale=0.1, c=1.0, bounds=(1.0, 1.0, 0.1, 0.1))
        cert = certify_huber(sig, lambda_g=-2.0)
        assert cert.zeta == pytest.approx(0.89, abs=1e-14)
        assert cert.zeta_tilde == pytest.approx(0.89, abs=1e-14)
        assert cert.theta == pytest.approx(0.1, abs=1e-15)
        assert cert.feasible

    def test_log_concave_likelihood_not_enough(self):
        cert = certify_huber(huber_signal(), lambda_g=0.0)
        assert cert.zeta < 0 and not cert.feasible

    def test_zero_drift_bound_needs_strong_concavity_past_psi(self):
        sig = huber_signal(d=1, scale=0.0, c=1.0)
        assert certify_huber(sig, lambda_g=-1.5).feasible
        assert certify_huber(sig, lambda_g=-0.5).feasible is False
        assert certify_huber(sig, lambda_g=-1.5).theta == 0.0


def _bound_cert(gamma, lam):
    return DecayConvexityCertificate(
        zeta=1.0, zeta_tilde=1.0, theta=0.0, lambda_g=0.0, feasible=True,
        gamma_interval=GammaInterval(lo=0.0, hi=1.0, hi_closed=True, empty=False),
        chosen_gamma=gamma, chosen_lambda=lam,
    )


def _unit_beta_model(length=60):
    # A = 0, unit covariances, observations all ones -> beta identically 1
    model = gaussian_model_with_obs(np.ones(length), a=0.0)
    model.chi = 1.0
    return model


class TestOneBetaPass:
    """Each bound evaluator builds beta once over its longest range: one
    likelihood gradient call on the zero path. Its value is the one the
    public beta / alpha / eta definitions give."""

    @staticmethod
    def _counted(model):
        calls = []
        grad = model.likelihood.grad

        def counting(xs, ys):
            calls.append(xs.shape[0])
            return grad(xs, ys)

        model.likelihood.grad = counting
        return calls

    def test_eta_route(self):
        model = gaussian_model(d=2, n=40, seed=3)
        cert = certify_linear_gaussian(model.signal)
        gamma, lam2 = cert.chosen_gamma, cert.chosen_lambda ** 2
        w, n = GammaWeight(gamma), 12
        alpha = alpha_gamma_n(model, w, n)
        want = (gamma ** n / lam2 * eta_bound(model, n, alpha / lam2, w)
                + gamma ** (n + 1) / lam2 * eta_bound(model, n + 1, gamma * alpha / lam2, w)
                + sum(gamma ** k * beta_m(model, k) for k in range(n + 2, 41)) / lam2)
        calls = self._counted(model)
        got = viterbi_distance_bound_eta(model, cert, n, 40)
        assert calls == [41]
        assert got == pytest.approx(want, rel=1e-13)

    def test_chi_route(self):
        self.test_chi_route_ranges(12, 40)

    @pytest.mark.parametrize("n, tail", [(0, 40), (3, 40), (12, 12), (20, 30)])
    def test_chi_route_ranges(self, n, tail):
        model = gaussian_model(d=2, n=40, seed=3)
        cert = certify_linear_gaussian(model.signal)
        gamma, lam2 = cert.chosen_gamma, cert.chosen_lambda ** 2
        alpha = alpha_gamma_n(model, GammaWeight(gamma), n)
        lead = gamma ** (n - 1) * alpha * 2.0 * model.chi / lam2
        want = (lead + sum(gamma ** k * beta_m(model, k) for k in range(n, tail + 1))) / lam2
        calls = self._counted(model)
        got = viterbi_distance_bound_chi(model, cert, n, tail)
        assert calls == [tail + 1]
        assert got == pytest.approx(want, rel=1e-13)

    def test_segment_bound(self):
        model = gaussian_model(d=2, n=40, seed=3)
        cert = certify_linear_gaussian(model.signal)
        gamma, lam2 = cert.chosen_gamma, cert.chosen_lambda ** 2
        Delta, delta, tail = 10, 4, 30
        alpha = alpha_gamma_n(model, GammaWeight(gamma), Delta + delta)
        lead = gamma ** (delta - 1) * 2.0 * model.chi * alpha / lam2
        want = (lead + sum(gamma ** k * beta_m(model, Delta + k) for k in range(delta, tail + 1))) / lam2
        calls = self._counted(model)
        got = segment_overlap_error_bound(model, cert, Delta, delta, tail)
        assert calls == [41]
        assert got == pytest.approx(want, rel=1e-13)

    def test_negative_index_rejected(self):
        model = gaussian_model(d=2, n=40, seed=3)
        cert = certify_linear_gaussian(model.signal)
        for evaluator in (viterbi_distance_bound_eta, viterbi_distance_bound_chi):
            with pytest.raises(ValueError, match="nonnegative"):
                evaluator(model, cert, -1, 40)


class TestBounds:
    def test_eta_route_against_geometric_oracle(self):
        model = _unit_beta_model()
        gamma, lam = 0.5, 0.2
        cert = _bound_cert(gamma, lam)
        n, tail = 2, 50
        got = viterbi_distance_bound_eta(model, cert, n, tail)
        # independent evaluation: alpha as finite geometric sum, eta = beta + chi r / gamma
        alpha = (1 - gamma ** (n + 1)) / (1 - gamma)
        lam2 = lam * lam
        t1 = gamma**n / lam2 * (1 + alpha / lam2 / gamma)
        t2 = gamma ** (n + 1) / lam2 * (1 + gamma * alpha / lam2 / gamma)
        t3 = (gamma ** (n + 2) - gamma ** (tail + 1)) / (1 - gamma) / lam2
        assert got == pytest.approx(t1 + t2 + t3, rel=1e-12)

    def test_eta_route_zero_data(self):
        model = gaussian_model_with_obs(np.zeros(30), a=0.0)
        model.chi = 1.0
        cert = _bound_cert(0.5, 0.2)
        assert viterbi_distance_bound_eta(model, cert, 3, 20) == 0.0

    def test_chi_route_against_geometric_oracle(self):
        model = _unit_beta_model()
        gamma, lam = 0.5, 0.2
        cert = _bound_cert(gamma, lam)
        n, tail = 3, 50
        got = viterbi_distance_bound_chi(model, cert, n, tail)
        alpha = (1 - gamma ** (n + 1)) / (1 - gamma)
        lam2 = lam * lam
        lead = gamma ** (n - 1) * alpha * 2.0 / lam2
        tail_sum = (gamma**n - gamma ** (tail + 1)) / (1 - gamma)
        assert got == pytest.approx((lead + tail_sum) / lam2, rel=1e-12)

    def test_chi_route_zero_data(self):
        model = gaussian_model_with_obs(np.zeros(30), a=0.0)
        model.chi = 1.0
        assert viterbi_distance_bound_chi(model, _bound_cert(0.5, 0.2), 3, 20) == 0.0

    def test_segment_bound_against_geometric_oracle(self):
        model = _unit_beta_model()
        gamma, lam = 0.5, 0.2
        cert = _bound_cert(gamma, lam)
        got = segment_overlap_error_bound(model, cert, Delta=0, delta=0, tail_horizon=50)
        lam2 = lam * lam
        lead = gamma ** (-1) * 2.0 / lam2 * 1.0  # alpha at horizon 0 is beta_0 = 1
        tail_sum = (1 - gamma**51) / (1 - gamma)
        assert got == pytest.approx((lead + tail_sum) / lam2, rel=1e-12)

    def test_segment_bound_decays_geometrically_in_overlap(self):
        model = _unit_beta_model(200)
        cert = _bound_cert(0.5, 0.2)
        vals = [
            segment_overlap_error_bound(model, cert, Delta=20, delta=dd, tail_horizon=150)
            for dd in range(0, 60, 10)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # ratios approach the discount rate once the lead term dominates
        assert vals[4] / vals[3] == pytest.approx(0.5**10, rel=0.05)

    def test_bounds_monotone_in_lambda(self):
        model = _unit_beta_model()
        for evaluator in (
            lambda lam: viterbi_distance_bound_chi(model, _bound_cert(0.5, lam), 3, 50),
            lambda lam: viterbi_distance_bound_eta(model, _bound_cert(0.5, lam), 3, 50),
            lambda lam: segment_overlap_error_bound(model, _bound_cert(0.5, lam), 10, 5, 40),
        ):
            vals = [evaluator(lam) for lam in (0.1, 0.2, 0.4, 0.8)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_eta_route_nonincreasing_in_horizon_for_flat_beta(self):
        model = _unit_beta_model(80)
        cert = _bound_cert(0.5, 0.2)
        vals = [viterbi_distance_bound_eta(model, cert, n, 70) for n in range(2, 30, 4)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_eta_route_uses_factor_model_specialization(self, rng):
        # the stochastic-volatility branch needs no chi: the eta route must
        # evaluate, and it must dominate the observed distance between
        # prefix solutions
        from viterbipar import SolverConfig, solve_map
        from conftest import lg_signal, stochvol_model

        signal = lg_signal(d=2, a=0.3, sigma_sq=0.5, stationary=True)
        model = stochvol_model(d=2, n=40, signal=signal, seed=11)
        assert model.chi is None
        cert = certify_linear_gaussian(signal, lambda_g=0.0)
        assert cert.feasible
        n, m = 6, 12
        bound = viterbi_distance_bound_eta(model, cert, n, tail_horizon=model.horizon)
        assert math.isfinite(bound) and bound > 0
        config = SolverConfig(grad_tol=1e-11, max_iters=40000)
        xi_n = solve_map(model.window(0, n), config).solution.blocks
        xi_m = solve_map(model.window(0, m), config).solution.blocks
        diff = xi_m.copy()
        diff[: n + 1] -= xi_n
        weights = gamma_weights(m + 1, cert.chosen_gamma)
        observed = float(np.einsum("md,md->m", diff, diff) @ weights)
        assert bound >= observed


class TestEmpiricalDecayConvexity:
    def test_certified_model_has_nonnegative_slack(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(30), a=0.5)
        cert = certify_linear_gaussian(model.signal, lambda_g=0.0)
        report = empirical_decay_convexity(model, cert, trials=300, seed=5)
        assert report.min_slack >= -1e-10

    def test_gamma_one_restatement_with_same_lambda(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(30), a=0.5)
        cert = certify_linear_gaussian(model.signal, lambda_g=0.0)
        report = empirical_decay_convexity(
            model, cert, trials=300, seed=6, gamma=1.0, lam=cert.chosen_lambda
        )
        assert report.min_slack >= -1e-10

    def test_identical_paths_have_zero_slack(self, rng):
        from viterbipar.objective import grad_U
        from viterbipar import PathVector

        model = gaussian_model_with_obs(rng.standard_normal(10), a=0.5)
        x = PathVector(rng.standard_normal((10, 1)))
        g = grad_U(model, x)
        w = GammaWeight(0.7)
        dx, dg = PathVector(x.blocks - x.blocks), PathVector(g.blocks - g.blocks)
        slack = gamma_inner(dx, dg, w) - 0.2 * gamma_inner(dx, dx, w)
        assert slack == 0.0

    def test_violating_pair_constructible_for_uncertifiable_model(self, rng):
        # explosive chain: no certificate exists; measure the true discounted
        # strong-monotonicity modulus from the assembled quadratic form and
        # show any lambda above it is violated along the extremal direction
        from test_objective import assemble_gaussian_hessian
        from viterbipar.objective import FullObjective

        model = gaussian_model_with_obs(rng.standard_normal(16), a=1.5)
        assert not certify_linear_gaussian(model.signal, lambda_g=0.0).feasible
        gamma = 0.8
        H = assemble_gaussian_hessian(model)
        D = np.diag(np.repeat(gamma_weights(16, gamma), 1))
        M = 0.5 * (D @ H + H.T @ D)
        mu = scipy.linalg.eigh(M, D, eigvals_only=True)[0]
        vec = scipy.linalg.eigh(M, D)[1][:, 0]
        lam_set = mu + 0.1
        v = vec.reshape(16, 1)
        grad_U = FullObjective(model).grad
        dg = grad_U(v) - grad_U(np.zeros_like(v))
        weights = gamma_weights(16, gamma)
        inner = float(np.einsum("md,md->m", v, dg) @ weights)
        sq = float(np.einsum("md,md->m", v, v) @ weights)
        assert inner - lam_set * sq < -1e-8  # negative slack found
        # the sampler reports the worst slack without asserting anything
        cert = _bound_cert(gamma, lam_set)
        report = empirical_decay_convexity(model, cert, trials=50, seed=7)
        assert math.isfinite(report.min_slack)


def _slack_model(kind):
    """Small models for the sampler: two signals by two likelihoods."""
    if kind == "lg-gaussian":
        return gaussian_model(d=2, n=12, seed=3)
    if kind == "huber-gaussian":
        rng = np.random.default_rng(8)
        return ModelSpec(huber_signal(d=2), GaussianEmission(np.eye(2), np.eye(2)),
                         observations=rng.standard_normal((13, 2)))
    signal = lg_signal(d=3, a=0.4) if kind == "lg-pseudo" else huber_signal(d=3)
    return neural_model(N=3, R=2, n=10, signal=signal)


class TestSharedPathSampler:
    """Each path is drawn and differentiated once and paired with the
    (up to) three paths drawn just before it at its scale."""

    @pytest.mark.parametrize("trials", [1, 2, 4, 240])
    @pytest.mark.parametrize("kind", ["lg-gaussian", "lg-pseudo", "huber-gaussian", "huber-pseudo"])
    def test_matches_plain_reference_bit_for_bit(self, kind, trials):
        model = _slack_model(kind)
        gamma, lam = 0.8, 0.3
        report = empirical_decay_convexity(model, _bound_cert(gamma, lam), trials=trials, seed=17)
        ref, _ = reference_decay_convexity_slack(model, trials, 17, gamma, lam)
        assert report.min_slack.hex() == ref.hex()

    @pytest.mark.parametrize("trials, calls", [(1, 2), (2, 4), (4, 7), (240, 87)])
    def test_gradient_calls(self, monkeypatch, trials, calls):
        import viterbipar.certificates as certificates

        counted = []

        class Counting(certificates.FullObjective):
            def grad(self, xs):
                counted.append(1)
                return super().grad(xs)

        monkeypatch.setattr(certificates, "FullObjective", Counting)
        model = _slack_model("lg-gaussian")
        empirical_decay_convexity(model, _bound_cert(0.8, 0.3), trials=trials, seed=2)
        assert len(counted) == calls
        assert reference_decay_convexity_slack(model, trials, 2, 0.8, 0.3)[1] == calls

    @pytest.mark.parametrize("trials", [1, 2, 4, 240])
    def test_report_counts_pairs_and_is_seeded(self, trials):
        model = _slack_model("huber-pseudo")
        cert = _bound_cert(0.6, 0.1)
        first = empirical_decay_convexity(model, cert, trials=trials, seed=4)
        again = empirical_decay_convexity(model, cert, trials=trials, seed=4)
        assert first.trials == trials
        assert (first.gamma, first.lam) == (0.6, 0.1)
        assert first.min_slack.hex() == again.min_slack.hex()
        other = empirical_decay_convexity(model, cert, trials=trials, seed=5)
        assert other.min_slack != first.min_slack

    def test_flips_at_the_weighted_spectrum_edges(self):
        # quadratic model: gradU(x) - gradU(y) = H (x - y), so every pair's
        # slack is a Rayleigh quotient of sym(D H) - lambda D, negative for
        # lambda above the largest generalized eigenvalue and positive below
        # the least
        from test_objective import assemble_gaussian_hessian

        signal = LinearGaussianSignal([[0.5, 0.2], [-0.1, 0.3]], [0.0, 0.0],
                                      [[1.0, 0.3], [0.3, 0.8]], [0.0, 0.0], np.eye(2))
        lik = GaussianEmission([[1.0, 0.5]], [[0.5]])
        model = ModelSpec(signal, lik, observations=np.random.default_rng(1).standard_normal((9, 1)))
        gamma = 0.7
        H = assemble_gaussian_hessian(model)
        dw = np.repeat(gamma_weights(9, gamma), 2)
        M = 0.5 * (dw[:, None] * H + H.T * dw[None, :])
        mu = np.linalg.eigvalsh(M / np.sqrt(np.outer(dw, dw)))
        assert mu[0] > 0
        above = empirical_decay_convexity(model, _bound_cert(gamma, mu[-1] * (1 + 1e-6)), 240, seed=9)
        below = empirical_decay_convexity(model, _bound_cert(gamma, mu[0] * (1 - 1e-6)), 240, seed=9)
        assert above.min_slack < 0
        assert below.min_slack >= 0

    def test_peak_memory_does_not_grow_with_trials(self):
        # numpy reports its buffers to tracemalloc; a sampler that kept every
        # path of a scale would hold ~29 of them at 240 trials against 4 at 12
        import tracemalloc

        model = gaussian_model(d=10, n=1999, seed=5)
        cert = _bound_cert(0.9, 0.5)
        empirical_decay_convexity(model, cert, trials=1, seed=1)  # first-call caches

        def peak(trials):
            tracemalloc.start()
            try:
                empirical_decay_convexity(model, cert, trials=trials, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(12), peak(240)
        assert large <= 1.1 * small, (small, large)
