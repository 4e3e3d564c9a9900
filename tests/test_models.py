"""Model families: local gradients, bookkeeping quantities, simulation."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from scipy import stats
from scipy.special import expit, log_expit, logsumexp, ndtr, softmax

from viterbipar import (
    GammaWeight,
    GaussianEmission,
    HuberNonlinearSignal,
    LinearGaussianSignal,
    ModelSpec,
    NeuralExact,
    NeuralPseudo,
    PathVector,
    SolverConfig,
    StochVolFactor,
    StudentTEmission,
    WindowedObjective,
    alpha_gamma_n,
    beta_m,
    build_segment_plan,
    eta_bound,
    eval_U,
    finite_diff_grad,
    simulate,
    solve_map,
    solve_parallel,
    stationary_covariance,
)
from viterbipar.models import LinearDrift, TanhDrift, coupling_matrix, huber_grad
from viterbipar.models.likelihoods import _softmax
from viterbipar.errors import ShapeError, UnsupportedBoundError

from conftest import (
    ReferencePseudo,
    balanced_spikes,
    exact_reference_kernels,
    gaussian_model_with_obs,
    grad_log_g,
    grad_phi,
    grad_phi_tilde,
    huber_signal,
    lg_signal,
    log_g_terms,
    log_normalizer,
    neural_model,
    normalizer_grad,
    neural_pseudo_field,
    pseudo_fields,
    random_spikes,
    stochvol_model,
    student_model,
    weighted_norm_at,
)


def _phi_value(model, xs, n):
    """Interior local sum, assembled from the model's density pieces."""
    sig = model.signal
    val = sig.log_f_sum(xs[n - 1 : n + 2])  # both transitions touching block n
    val += float(log_g_terms(model.window(n, n), xs[n : n + 1])[0])
    return val


def _phi_tilde_value(model, xs, n):
    sig = model.signal
    if n == 0:
        val = sig.log_mu(xs[0])
        if xs.shape[0] > 1:
            val += sig.log_f_sum(xs[0:2])
    else:
        val = sig.log_f_sum(xs[n - 1 : n + 1])
    return val + float(log_g_terms(model.window(n, n), xs[n : n + 1])[0])


def _fd_wrt_block(fn, xs, n, eps=1e-6):
    g = np.empty(xs.shape[1])
    for i in range(xs.shape[1]):
        xp = xs.copy()
        xp[n, i] += eps
        xm = xs.copy()
        xm[n, i] -= eps
        g[i] = (fn(xp) - fn(xm)) / (2 * eps)
    return g


class TestLocalGradients:
    def test_boundary_gradient_hand_value(self):
        # A=0.5, b=0, Sigma=1, b0=0, Sigma0=1, C=R=1, y=(1,1), x=(0,0):
        # the block-0 boundary gradient is 0 + 0 + 1
        model = gaussian_model_with_obs([1.0, 1.0], a=0.5)
        x = PathVector(np.zeros((2, 1)))
        assert grad_phi_tilde(model, x, 0)[0] == pytest.approx(1.0, abs=1e-14)

    def test_decoupled_conjugate_stationary_point(self):
        ys = np.array([0.4, -1.2, 0.7])
        model = gaussian_model_with_obs(ys, a=0.0)
        x = PathVector((ys / 2.0)[:, None])
        assert grad_phi_tilde(model, x, 0)[0] == pytest.approx(0.0, abs=1e-14)
        assert grad_phi(model, x, 1)[0] == pytest.approx(0.0, abs=1e-14)
        assert grad_phi_tilde(model, x, 2)[0] == pytest.approx(0.0, abs=1e-14)

    def test_student_t_emission_gradient_hand_value(self):
        # dof=1, y=0, x=1: derivative of the log density is -2x/(1+x^2) = -1
        lik = StudentTEmission(dof=1.0)
        g = lik.grad(np.array([[1.0]]), np.array([[0.0]]))
        assert g[0, 0] == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("family", ["gaussian", "student", "stochvol", "pseudo", "exact"])
    def test_grad_phi_matches_finite_differences(self, family, rng):
        n = 6
        if family == "gaussian":
            model = gaussian_model_with_obs(rng.standard_normal(n + 1), a=0.5)
        elif family == "student":
            model = student_model(n=n)
        elif family == "stochvol":
            model = stochvol_model(n=n)
        else:
            model = neural_model(N=3, R=2, n=n, exact=(family == "exact"))
        d = model.dim
        for trial in range(5):
            xs = rng.standard_normal((n + 1, d))
            for idx in (1, n // 2, n - 1):
                got = grad_phi(model, xs, idx)
                want = _fd_wrt_block(lambda z: _phi_value(model, z, idx), xs, idx)
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)
            for idx in (0, n):
                got = grad_phi_tilde(model, xs, idx)
                want = _fd_wrt_block(lambda z: _phi_tilde_value(model, z, idx), xs, idx)
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_huber_signal_gradients_match_finite_differences(self, rng):
        n, d = 5, 2
        sig = huber_signal(d=d)
        model = student_model(n=n, d=d, signal=sig)
        for trial in range(5):
            xs = rng.standard_normal((n + 1, d)) * 2.0
            got = grad_phi(model, xs, 2)
            want = _fd_wrt_block(lambda z: _phi_value(model, z, 2), xs, 2)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)

    def test_index_out_of_range(self):
        model = gaussian_model_with_obs([1.0, 1.0, 1.0])
        xs = np.zeros((3, 1))
        with pytest.raises(IndexError):
            grad_phi(model, xs, 0)
        with pytest.raises(IndexError):
            grad_phi(model, xs, 2)
        with pytest.raises(IndexError):
            grad_phi_tilde(model, xs, 3)

    def test_log_densities_finite_at_random_points(self, rng):
        models = [
            gaussian_model_with_obs(rng.standard_normal(8)),
            student_model(n=7),
            stochvol_model(n=7),
            neural_model(N=3, R=2, n=7),
            neural_model(N=3, R=2, n=7, exact=True),
        ]
        for model in models:
            for _ in range(20):
                xs = rng.standard_normal((model.horizon + 1, model.dim)) * 5.0
                assert math.isfinite(eval_U(model, xs))


def _stochvol_fixed_residuals(residual, n=3):
    """Factor model with B = 0 so the residual equals the observation."""
    ys = np.tile(np.asarray(residual, dtype=float), (n + 1, 1))
    d = ys.shape[1]
    return stochvol_model(
        d=d,
        n=n,
        signal=lg_signal(d=d, a=0.5, stationary=True),
        factors=np.zeros((n + 1, 1)),
        ys=ys,
        B=np.zeros((d, 1)),
    )


class TestBetaAlpha:
    def test_stochvol_zero_residual(self):
        # residual (1, 1) at every index, b = b0 = 0 -> beta = 0
        model = _stochvol_fixed_residuals([1.0, 1.0])
        assert beta_m(model, 1) == pytest.approx(0.0, abs=1e-14)

    def test_stochvol_hand_value(self):
        # residual (2, 0): 0.25 * [(4-1)^2 + (0-1)^2] = 2.5
        model = _stochvol_fixed_residuals([2.0, 0.0])
        assert beta_m(model, 2) == pytest.approx(2.5, abs=1e-12)

    def test_gaussian_zero_observations(self):
        model = gaussian_model_with_obs(np.zeros(5))
        for m in range(5):
            assert beta_m(model, m) == 0.0

    def test_alpha_discounted_sum(self):
        model = gaussian_model_with_obs(np.ones(3), a=0.0)  # beta = 1 everywhere
        assert alpha_gamma_n(model, GammaWeight(0.5), 2) == pytest.approx(1.75, abs=1e-14)
        assert alpha_gamma_n(model, GammaWeight(1.0), 2) == pytest.approx(3.0, abs=1e-14)

    def test_alpha_of_zero_beta(self):
        model = gaussian_model_with_obs(np.zeros(4))
        assert alpha_gamma_n(model, GammaWeight(0.7), 3) == 0.0

    def test_beta_branch_selection_with_nonzero_drift(self):
        # b != 0 separates the two branches at the zero path: interior
        # indices take the max, the data horizon keeps only the backward
        # branch, index 0 the initial-density branch
        model = gaussian_model_with_obs(np.zeros(6), a=-0.5, b=1.0)
        assert beta_m(model, 0) == pytest.approx(0.25, abs=1e-12)
        assert beta_m(model, 2) == pytest.approx(2.25, abs=1e-12)
        assert beta_m(model, 5) == pytest.approx(1.0, abs=1e-12)
        # the truncation horizon of the internal pass must not change values
        assert beta_m(model.window(0, 4), 2) == pytest.approx(2.25, abs=1e-12)

    def test_beta_depends_on_data_only_through_emission_gradient(self):
        # with b = b0 = 0 the transition terms vanish at the zero path, so
        # beta_m = y_m^2 and permuting the observations permutes beta
        ys = np.array([0.3, -1.0, 2.0, 0.1, -0.4])
        perm = [2, 0, 3, 4, 1]
        permuted = gaussian_model_with_obs(ys[perm], a=0.5)
        got = [beta_m(permuted, m) for m in range(5)]
        assert got == pytest.approx((ys[perm] ** 2).tolist(), rel=1e-12)


class TestEtaBound:
    def test_radius_zero_returns_beta(self):
        model = gaussian_model_with_obs([1.0, 2.0, 0.5])
        w = GammaWeight(0.5)
        assert eta_bound(model, 1, 0.0, w) == pytest.approx(beta_m(model, 1), rel=1e-12)

    def test_generic_hand_value(self):
        # beta = 2, chi = 3, gamma = 0.5, r = 1 -> 2 + 3*1/0.5 = 8
        model = gaussian_model_with_obs([math.sqrt(2.0)] * 3, a=0.0)
        model.chi = 3.0
        assert eta_bound(model, 1, 1.0, GammaWeight(0.5)) == pytest.approx(8.0, abs=1e-12)

    def test_stochvol_zero_radius_zero_residual(self):
        model = _stochvol_fixed_residuals([1.0, 1.0])
        assert eta_bound(model, 1, 0.0, GammaWeight(0.5)) == pytest.approx(0.0, abs=1e-14)

    def test_stochvol_dominates_sampled_gradients(self, rng):
        model = stochvol_model(n=8)
        w = GammaWeight(0.6)
        for n_idx in (2, 5):
            beta = beta_m(model, n_idx)
            for r in (0.25, 1.0, 4.0):
                bound = eta_bound(model, n_idx, r, w)
                assert bound >= beta - 1e-12
                # sampled paths inside the centered ball stay below the bound
                for _ in range(50):
                    xs = np.zeros((model.horizon + 1, model.dim))
                    xs[n_idx - 1 : n_idx + 2] = rng.standard_normal((3, model.dim))
                    wn = weighted_norm_at(PathVector(xs), n_idx, w)
                    xs *= math.sqrt(r) * rng.random() / wn
                    g_int = grad_phi(model, xs, n_idx)
                    g_bnd = grad_phi_tilde(model, xs, n_idx)
                    worst = max(float(g_int @ g_int), float(g_bnd @ g_bnd))
                    assert worst <= bound + 1e-9

    def test_unsupported_without_chi(self):
        model = student_model(n=4)
        with pytest.raises(UnsupportedBoundError):
            eta_bound(model, 1, 1.0, GammaWeight(0.5))

    def test_conjugate_chi_certifies_eta_at_bound_radii(self, rng):
        # the auto-computed quadratic-growth constant must make
        # beta_n + chi r / gamma dominate sampled local gradients at every
        # radius the accuracy bounds evaluate (r >= beta_n / lambda^2)
        from viterbipar import alpha_gamma_n, certify_linear_gaussian

        model = gaussian_model_with_obs(rng.standard_normal(12), a=0.5)
        cert = certify_linear_gaussian(model.signal, lambda_g=0.0)
        w = GammaWeight(cert.chosen_gamma)
        lam2 = cert.chosen_lambda**2
        n_idx = 5
        alpha = alpha_gamma_n(model, w, n_idx)
        for r in (beta_m(model, n_idx) / lam2, alpha / lam2, w.gamma * alpha / lam2):
            bound = eta_bound(model, n_idx, r, w)
            for _ in range(200):
                xs = np.zeros((model.horizon + 1, model.dim))
                xs[n_idx - 1 : n_idx + 2] = rng.standard_normal((3, model.dim))
                wn = weighted_norm_at(PathVector(xs), n_idx, w)
                xs *= math.sqrt(r) * rng.random() / wn
                g_int = grad_phi(model, xs, n_idx)
                g_bnd = grad_phi_tilde(model, xs, n_idx)
                worst = max(float(g_int @ g_int), float(g_bnd @ g_bnd))
                assert worst <= bound * (1 + 1e-12)


class TestNeuralField:
    def test_hand_value(self):
        spikes = np.array([[[1.0, 0.0]]])  # one bin, one trial, N=2
        lik = NeuralPseudo(2, 1, rates_c=[0.5, 0.5], spikes=spikes)
        z = neural_pseudo_field(lik, np.array([1.0]), 0, 0)
        np.testing.assert_allclose(z, [-0.5, 0.5], atol=1e-15)

    def test_zero_coupling_zero_field(self):
        spikes = random_spikes(3, 2, 4)
        lik = NeuralPseudo(3, 2, spikes=spikes)
        z = neural_pseudo_field(lik, np.zeros(3), 1, 0)
        np.testing.assert_allclose(z, 0.0)

    def test_trial_count_scaling(self):
        spikes1 = np.array([[[1.0, 0.0]]])
        spikes2 = np.array([[[1.0, 0.0], [1.0, 0.0]]])
        lik1 = NeuralPseudo(2, 1, rates_c=[0.5, 0.5], spikes=spikes1)
        lik2 = NeuralPseudo(2, 2, rates_c=[0.5, 0.5], spikes=spikes2)
        z1 = neural_pseudo_field(lik1, np.array([1.0]), 0, 0)
        z2 = neural_pseudo_field(lik2, np.array([1.0]), 0, 0)
        np.testing.assert_allclose(z2, z1 / 2.0)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_pseudo_and_exact_gradients_coincide_decoupled(self, N):
        # balanced spikes (per-bin rates exactly one half) make the two
        # emission gradients coincide coordinate-wise at zero coupling
        spikes = balanced_spikes(N, 4, 5)
        pseudo = NeuralPseudo(N, 4, spikes=spikes)
        exact = NeuralExact(N, 4, spikes=spikes)
        np.testing.assert_allclose(pseudo.rates_c, 0.5)
        x0 = np.zeros((1, N * (N - 1) // 2))
        for t in range(5):
            gp = pseudo.grad(x0, spikes[t : t + 1])
            ge = exact.grad(x0, spikes[t : t + 1])
            np.testing.assert_allclose(gp, ge, atol=1e-12)


def _coupling_loop(x, N):
    X = np.zeros((N, N))
    X[np.triu_indices(N, k=1)] = x
    return X + X.T


def _centered_configs(N, rates_c):
    ints = np.arange(2 ** N)
    return ((ints[:, None] >> np.arange(N)) & 1).astype(float) - rates_c


class TestBatchedKernels:
    """The batched family kernels against per-bin / per-block loops."""

    def test_coupling_matrix_stack_matches_single(self, rng):
        xs = rng.standard_normal((7, 10))
        stack = coupling_matrix(xs, 5)
        assert stack.shape == (7, 5, 5)
        for m in range(7):
            np.testing.assert_array_equal(stack[m], coupling_matrix(xs[m], 5))
            np.testing.assert_array_equal(stack[m], _coupling_loop(xs[m], 5))

    def test_neural_pseudo_matches_per_bin_loop_bit_for_bit(self, rng):
        N, R, T = 6, 20, 60
        spikes = random_spikes(N, R, T, seed=11)
        lik = NeuralPseudo(N, R, spikes=spikes)
        xs = rng.standard_normal((T, lik.d))
        iu = np.triu_indices(N, k=1)
        want_val = np.empty(T)
        want_grad = np.empty((T, lik.d))
        for m in range(T):
            yc = spikes[m] - lik.rates_c
            z = (yc @ _coupling_loop(xs[m], N)) / R
            yz = spikes[m] * z
            want_val[m] = float(np.sum(np.minimum(yz, 0.0) - np.log1p(np.exp(-np.abs(yz)))))
            D = spikes[m] * (0.5 * (1.0 - np.tanh(0.5 * (spikes[m] * z))))
            M = D.T @ yc
            want_grad[m] = (M + M.T)[iu] / R
            np.testing.assert_array_equal(pseudo_fields(lik, xs[m], spikes[m]), z)
        np.testing.assert_array_equal(lik.log_terms(xs, spikes), want_val)
        np.testing.assert_array_equal(lik.grad(xs, spikes), want_grad)

    @pytest.mark.parametrize("N, R, T", [(6, 20, 50), (10, 3, 300)])
    def test_neural_exact_matches_per_bin_loop(self, rng, N, R, T):
        # at N=10 the 2^N configurations put T=300 bins in two chunks
        spikes = random_spikes(N, R, T, seed=12)
        lik = NeuralExact(N, R, spikes=spikes)
        xs = 0.5 * rng.standard_normal((T, lik.d))
        Ec = _centered_configs(N, lik.rates_c)
        iu = np.triu_indices(N, k=1)
        want_val = np.empty(T)
        want_grad = np.empty((T, lik.d))
        for m in range(T):
            e = 0.5 * np.einsum("ci,ci->c", Ec @ _coupling_loop(xs[m], N), Ec)
            p = np.exp(e - logsumexp(e))
            yc = spikes[m] - lik.rates_c
            suff = (yc.T @ yc)[iu] / R
            want_val[m] = xs[m] @ suff - logsumexp(e)
            want_grad[m] = suff - (Ec.T @ (p[:, None] * Ec))[iu]
        np.testing.assert_allclose(lik.log_terms(xs, spikes), want_val, rtol=0, atol=1e-13)
        np.testing.assert_allclose(lik.grad(xs, spikes), want_grad, rtol=0, atol=1e-13)

    def test_simulate_matches_per_bin_choice(self):
        # N=6, R=20 puts 251 bins in two sampler chunks
        N, R, n, seed = 6, 20, 250, 21
        rates = np.array([0.2, 0.5, 0.5, 0.3, 0.6, 0.4])
        lik = NeuralPseudo(N, R, rates_c=rates, spikes=np.zeros((n + 1, R, N)))
        model = ModelSpec(lg_signal(d=lik.d, a=0.4), lik)
        xs, spikes = simulate(model, n, seed)

        rng_ref = np.random.default_rng(seed)
        xs_ref = model.signal.sample_path(n, rng_ref)
        Ec = _centered_configs(N, rates)
        configs = Ec + rates
        want = np.empty((n + 1, R, N))
        for m in range(n + 1):
            e = 0.5 * np.einsum("ci,ci->c", Ec @ _coupling_loop(xs_ref[m], N), Ec)
            p = np.exp(e - logsumexp(e))
            p /= p.sum()
            want[m] = configs[rng_ref.choice(2 ** N, size=R, p=p)]
        np.testing.assert_array_equal(xs.blocks, xs_ref)
        np.testing.assert_array_equal(spikes, want)

    def test_drift_vjp_matches_jacobian_rows(self, rng):
        # reference Jacobians built here: diag(scale / cosh^2 x) and M
        xs = 2.0 * rng.standard_normal((9, 4))
        v = rng.standard_normal((9, 4))
        tanh = TanhDrift(0.7)
        got = tanh.vjp(xs, v)
        for m in range(9):
            np.testing.assert_array_equal(got[m], np.diag(0.7 / np.cosh(xs[m]) ** 2).T @ v[m])
        M = rng.standard_normal((4, 4))
        got = LinearDrift(M).vjp(xs, v)
        for m in range(9):
            np.testing.assert_allclose(got[m], M.T @ v[m], rtol=1e-14, atol=1e-15)

    def test_huber_transition_gradient_matches_per_block_loop(self, rng):
        sig = huber_signal(d=3, scale=0.4)
        xs = 2.0 * rng.standard_normal((40, 3))
        gpsi = huber_grad(sig.residuals(xs), sig.huber_c)
        want = np.zeros_like(xs)
        want[1:] -= gpsi
        for m in range(39):
            want[m] += np.diag(0.4 / np.cosh(xs[m]) ** 2).T @ gpsi[m]
        np.testing.assert_array_equal(sig.grad_log_transitions(xs), want)

    def test_drift_spot_check_reads_jacobians_from_vjp(self, rng):
        M = rng.standard_normal((3, 3))
        cases = ((LinearDrift(M), float(np.linalg.norm(M, 2)), 0.0), (TanhDrift(0.4), 0.4, 0.77 * 0.4))
        for drift, L_A, L_grad_A in cases:
            HuberNonlinearSignal(drift, np.zeros(3), 1.0, (1.0, 1.0, L_A, L_grad_A))
            with pytest.raises(ValueError, match="L_A"):
                HuberNonlinearSignal(drift, np.zeros(3), 1.0, (1.0, 1.0, 0.5 * L_A, L_grad_A))
        with pytest.raises(ValueError, match="L_grad_A"):  # tanh's Jacobian varies
            HuberNonlinearSignal(TanhDrift(0.4), np.zeros(3), 1.0, (1.0, 1.0, 0.4, 0.0))


def _pseudo_per_bin(lik, xs, spikes):
    """(fields, log_terms, grad) of a NeuralPseudo family, bin by bin."""
    N, R = lik.N, lik.R
    iu = np.triu_indices(N, k=1)
    fields = np.empty(spikes.shape)
    val = np.empty(xs.shape[0])
    grad = np.empty(xs.shape)
    for m in range(xs.shape[0]):
        yc = spikes[m] - lik.rates_c
        z = (yc @ _coupling_loop(xs[m], N)) / R
        yz = spikes[m] * z
        val[m] = float(np.sum(np.minimum(yz, 0.0) - np.log1p(np.exp(-np.abs(yz)))))
        D = spikes[m] * (0.5 * (1.0 - np.tanh(0.5 * (spikes[m] * z))))
        M = D.T @ yc
        grad[m] = (M + M.T)[iu] / R
        fields[m] = z
    return fields, val, grad


class TestPseudoKernels:
    """The in-place NeuralPseudo kernels and the flat pair gathers against
    per-bin loops and against kernels that rebuild their stacks per call
    (conftest's ReferencePseudo and exact_reference_kernels), bit for bit."""

    @pytest.mark.parametrize("N, R, T, scale", [
        (2, 7, 30, 1.0), (3, 5, 25, 1.0), (10, 4, 12, 1.0),
        (6, 1, 40, 1.0), (6, 1, 40, 400.0), (10, 1, 15, 50.0),
        (6, 20, 1, 1.0), (2, 1, 1, 5.0),
    ])
    def test_matches_per_bin_loop_bit_for_bit(self, rng, N, R, T, scale):
        spikes = random_spikes(N, R, T, seed=N + R + T)
        lik = NeuralPseudo(N, R, spikes=spikes)
        xs = scale * rng.standard_normal((T, lik.d))
        xs[0, 0] = -0.0
        fields, val, grad = _pseudo_per_bin(lik, xs, spikes)
        np.testing.assert_array_equal(lik._fields(xs, spikes)[0], fields)
        np.testing.assert_array_equal(lik.log_terms(xs, spikes), val)
        np.testing.assert_array_equal(lik.grad(xs, spikes), grad)
        reference = ReferencePseudo(N, R, spikes=spikes)
        assert lik.log_terms(xs, spikes).tobytes() == reference.log_terms(xs, spikes).tobytes()
        assert lik.grad(xs, spikes).tobytes() == reference.grad(xs, spikes).tobytes()

    @pytest.mark.parametrize("N", [2, 3, 6, 10])
    def test_coupling_matrix_bytes_match_loop_with_negative_zeros(self, rng, N):
        xs = rng.standard_normal((6, N * (N - 1) // 2))
        xs[:, ::2] = -0.0
        xs[1] = -0.0
        stack = coupling_matrix(xs, N)
        want = np.stack([_coupling_loop(x, N) for x in xs])
        assert stack.tobytes() == want.tobytes()
        assert not np.any(np.signbit(stack[1]))
        for m in range(xs.shape[0]):
            assert coupling_matrix(xs[m], N).tobytes() == want[m].tobytes()
        # matmul's last bits depend on the operands' layout
        assert stack.flags.c_contiguous

    @pytest.mark.parametrize("N, R, T", [(2, 1, 1), (3, 4, 20), (6, 20, 50), (10, 3, 30)])
    def test_neural_exact_matches_reference_kernels_bit_for_bit(self, rng, N, R, T):
        spikes = random_spikes(N, R, T, seed=N * R)
        lik = NeuralExact(N, R, spikes=spikes)
        xs = rng.standard_normal((T, lik.d))
        want_val, want_grad = exact_reference_kernels(lik, xs, spikes)
        np.testing.assert_array_equal(lik.log_terms(xs, spikes), want_val)
        np.testing.assert_array_equal(lik.grad(xs, spikes), want_grad)

    def test_solves_match_reference_kernels_bit_for_bit(self):
        """solve_map and solve_parallel at 1 and 2 workers give the same
        bytes with either family on a small spikes model."""
        N, R, n = 6, 20, 79
        signal = lg_signal(d=N * (N - 1) // 2, a=0.5, stationary=True)
        skeleton = ModelSpec(signal, NeuralPseudo(N, R, rates_c=np.full(N, 0.5),
                                                  spikes=np.zeros((n + 1, R, N))))
        _, spikes = simulate(skeleton, n, 5)
        models = [ModelSpec(signal, cls(N, R, spikes=spikes)) for cls in (NeuralPseudo, ReferencePseudo)]
        assert type(models[1].window(20, 39).likelihood) is ReferencePseudo
        config = SolverConfig(grad_tol=1e-6, max_iters=20000)
        got, want = (solve_map(model, config) for model in models)
        assert got.converged and got.iterations > 10
        assert got.solution.blocks.tobytes() == want.solution.blocks.tobytes()
        for field in ("iterations", "grad_evals", "value_evals", "objective_value", "final_grad_norm"):
            assert getattr(got, field) == getattr(want, field), field
        plan = build_segment_plan(n, 4, 10)
        for workers in (1, 2):
            got, want = (solve_parallel(model, plan, config, workers=workers) for model in models)
            assert got.stitched.blocks.tobytes() == want.stitched.blocks.tobytes(), workers


class TestScipyReferences:
    """The numpy kernels of the spiking families against scipy.special, at
    moderate fields and at fields far beyond exp's overflow point. Every
    floating-point warning is an error here; underflow stays silent, as
    numpy has it by default."""

    @pytest.mark.parametrize("scale", [0.5, 400.0])
    def test_neural_pseudo_grad_matches_expit(self, rng, scale):
        # with R = 1 and centered spikes of size 1/2, scale 400 puts the
        # largest |z| above 800
        N, R, T = 6, 1, 40
        spikes = random_spikes(N, R, T, seed=31)
        lik = NeuralPseudo(N, R, rates_c=np.full(N, 0.5), spikes=spikes)
        xs = scale * rng.standard_normal((T, lik.d))
        iu = np.triu_indices(N, k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lik.grad(xs, spikes)
        z = np.stack([pseudo_fields(lik, xs[m], spikes[m]) for m in range(T)])
        if scale > 1.0:
            assert np.max(np.abs(z)) > 800.0
        want = np.empty((T, lik.d))
        for m in range(T):
            yc = spikes[m] - lik.rates_c
            D = spikes[m] * expit(-spikes[m] * z[m])
            M = D.T @ yc
            want[m] = (M + M.T)[iu] / R
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(want))))

    @pytest.mark.parametrize("scale", [0.5, 800.0])
    def test_neural_pseudo_log_terms_match_log_expit(self, rng, scale):
        # two neurons that always spike, centred at 1/2, in one trial: both
        # fields are x/2, so each bin's value is exactly twice its one term
        # log sigmoid(x/2); t - logaddexp(0, t) cancels to relative error 1
        # at large positive t
        N, R, T = 2, 1, 400
        spikes = np.ones((T, R, N))
        lik = NeuralPseudo(N, R, rates_c=np.full(N, 0.5), spikes=spikes)
        xs = scale * rng.standard_normal((T, lik.d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = 0.5 * lik.log_terms(xs, spikes)
        np.testing.assert_allclose(got, log_expit(0.5 * xs[:, 0]), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("scale", [0.5, 800.0])
    def test_neural_exact_matches_logsumexp_and_softmax(self, rng, scale):
        N, R, T = 5, 3, 30
        spikes = random_spikes(N, R, T, seed=32)
        lik = NeuralExact(N, R, spikes=spikes)
        xs = scale * rng.standard_normal((T, lik.d))
        Ec = _centered_configs(N, lik.rates_c)
        E = np.stack([0.5 * np.einsum("ci,ci->c", Ec @ _coupling_loop(x, N), Ec) for x in xs])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_z = np.array([log_normalizer(lik, x) for x in xs])
            grads = np.stack([normalizer_grad(lik, x) for x in xs])
        iu = np.triu_indices(N, k=1)
        want_grads = np.stack([(Ec.T @ (p[:, None] * Ec))[iu] for p in softmax(E, axis=1)])
        np.testing.assert_allclose(log_z, logsumexp(E, axis=1), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(grads, want_grads, rtol=0, atol=1e-13)

    def test_softmax_helper_at_extreme_arguments(self, rng):
        E = np.vstack([
            rng.uniform(-3.0, 3.0, (4, 64)),
            rng.uniform(-800.0, 800.0, (4, 64)),
            np.full((1, 64), 800.0),
            np.full((1, 64), -800.0),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P, lse = _softmax(E)
        np.testing.assert_allclose(P, softmax(E, axis=1), rtol=1e-15, atol=0)
        np.testing.assert_allclose(lse, logsumexp(E, axis=1), rtol=2e-15, atol=0)

    @pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("seed", [41, 42])
    def test_huber_noise_kolmogorov_smirnov(self, c, seed):
        # zero drift: every entry is a fresh draw from exp(-huber(., c)) / Z
        sig = huber_signal(d=10, scale=0.0, c=c)
        w = sig.sample_path(9_999, np.random.default_rng(seed)).ravel()
        root_c = math.sqrt(c)
        core = math.sqrt(2 * math.pi * c) * (2 * ndtr(root_c) - 1)
        Z = core + 2 * math.exp(-0.5 * c)

        def cdf(t):
            t = np.asarray(t, dtype=float)
            left = np.exp(t + 0.5 * c) / Z
            mid = (math.exp(-0.5 * c) + math.sqrt(2 * math.pi * c) * (ndtr(t / root_c) - ndtr(-root_c))) / Z
            right = 1.0 - np.exp(-t + 0.5 * c) / Z
            return np.where(t <= -c, left, np.where(t <= c, mid, right))

        assert cdf(-c) + (1.0 - cdf(c)) == pytest.approx(2 * math.exp(-0.5 * c) / Z, rel=1e-12)
        assert stats.kstest(w, cdf).pvalue > 1e-3


class TestSpikeData:
    """The data a spiking family derives from its own spikes once: used
    only for those spikes, never pickled or copied, and never written."""

    FAMILIES = [NeuralPseudo, NeuralExact]

    @staticmethod
    def _kernels(lik, xs, ys):
        return lik.log_terms(xs, ys).tobytes(), lik.grad(xs, ys).tobytes()

    @pytest.mark.parametrize("cls", FAMILIES)
    def test_foreign_spikes_match_a_family_built_on_them(self, rng, cls):
        N, R, T = 5, 4, 30
        spikes = random_spikes(N, R, T, seed=51)
        lik = cls(N, R, spikes=spikes)
        xs = rng.standard_normal((T, lik.d))
        own = self._kernels(lik, xs, spikes)
        for ys in (spikes.copy(), random_spikes(N, R, T, seed=52), spikes[: T // 2]):
            fresh = cls(N, R, rates_c=lik.rates_c, spikes=ys)
            assert self._kernels(lik, xs[: ys.shape[0]], ys) == self._kernels(fresh, xs[: ys.shape[0]], ys)
        assert self._kernels(lik, xs, spikes) == own

    @pytest.mark.parametrize("cls", FAMILIES)
    def test_kernels_write_neither_spikes_nor_derived_data(self, rng, cls):
        spikes = random_spikes(4, 3, 20, seed=53)
        before = spikes.tobytes()
        lik = cls(4, 3, spikes=spikes)
        xs = rng.standard_normal((20, lik.d))
        first = self._kernels(lik, xs, spikes)
        lik.log_terms(xs, spikes)[:] = 7.0
        lik.grad(xs, spikes)[:] = 7.0
        assert self._kernels(lik, xs, spikes) == first
        assert lik.spikes is spikes and lik.spikes.dtype == np.float64
        assert lik.spikes.tobytes() == before

    @pytest.mark.parametrize("cls", FAMILIES)
    def test_pickles_and_copies_carry_no_derived_data(self, rng, cls):
        N, R, T = 6, 20, 80
        spikes = random_spikes(N, R, T, seed=54)
        never = cls(N, R, spikes=spikes)
        size = len(pickle.dumps(never))
        lik = cls(N, R, spikes=spikes)
        xs = rng.standard_normal((T, lik.d))
        want = self._kernels(lik, xs, spikes)
        assert len(pickle.dumps(lik)) == size
        back = pickle.loads(pickle.dumps(lik))
        assert self._kernels(back, xs, back.spikes) == want
        assert back.spikes.dtype == np.float64 and back.spikes.tobytes() == spikes.tobytes()
        model = ModelSpec(lg_signal(d=lik.d, a=0.5), cls(N, R, spikes=spikes))
        job = WindowedObjective(model, (10, 49), "full-prior")
        job_size = len(pickle.dumps(job))
        job.value(xs[10:50])
        job.grad(xs[10:50])
        assert len(pickle.dumps(job)) == job_size
        twin = copy.copy(lik)
        assert twin.spikes is spikes and len(pickle.dumps(twin)) == size
        assert self._kernels(twin, xs, spikes) == want


class TestModelSpecPrefix:
    def test_prefix_truncates_observations(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(12), a=0.5)
        assert model.window(0, model.horizon) is model
        short = model.window(0, 5)
        assert short.horizon == 5
        np.testing.assert_array_equal(short.observations, model.observations[:6])
        assert short.chi == model.chi
        later = model.window(3, 8)
        assert later.horizon == 5
        assert later.signal is model.signal
        np.testing.assert_array_equal(later.observations, model.observations[3:9])
        assert later.chi == model.chi

    def test_prefix_slices_neural_spikes(self):
        for exact in (False, True):
            model = neural_model(N=3, R=2, n=9, exact=exact)
            for a, b in ((0, 4), (3, 7)):
                part = model.window(a, b)
                assert part.horizon == b - a
                assert type(part.likelihood) is type(model.likelihood)
                np.testing.assert_array_equal(part.likelihood.spikes, model.likelihood.spikes[a : b + 1])
                np.testing.assert_array_equal(part.likelihood.rates_c, model.likelihood.rates_c)
                # the window's emission terms are the full model's rows a..b
                xs = np.random.default_rng(a).standard_normal((model.horizon + 1, model.dim))
                np.testing.assert_allclose(
                    log_g_terms(part, xs[a : b + 1]), log_g_terms(model, xs)[a : b + 1], rtol=1e-14
                )

    def test_prefix_slices_factor_series(self):
        model = stochvol_model(n=10)
        xs = np.random.default_rng(0).standard_normal((11, model.dim))
        for a, b in ((0, 6), (4, 9)):
            part = model.window(a, b)
            np.testing.assert_array_equal(part.likelihood.factors, model.likelihood.factors[a : b + 1])
            # values of the sliced problem match the full one on rows a..b
            np.testing.assert_allclose(
                log_g_terms(part, xs[a : b + 1]), log_g_terms(model, xs)[a : b + 1], rtol=1e-14
            )
            np.testing.assert_allclose(
                grad_log_g(part, xs[a : b + 1]), grad_log_g(model, xs)[a : b + 1], rtol=1e-14
            )

    def test_prefix_beyond_horizon_rejected(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(4))
        for a, b in ((0, 9), (2, 9), (3, 2), (-1, 2)):
            with pytest.raises(ShapeError):
                model.window(a, b)


class TestObservationShape:
    """ModelSpec checks each index's observation against the family."""

    def test_gaussian_emission_needs_p_columns(self):
        with pytest.raises(ShapeError, match="GaussianEmission"):
            ModelSpec(lg_signal(d=2), GaussianEmission(np.eye(2), np.eye(2)), observations=np.ones((6, 1)))
        # p = 2 observations of a d = 3 state
        lik = GaussianEmission(np.ones((2, 3)), np.eye(2))
        ModelSpec(lg_signal(d=3), lik, observations=np.ones((6, 2)))
        with pytest.raises(ShapeError):
            ModelSpec(lg_signal(d=3), lik, observations=np.ones((6, 3)))
        with pytest.raises(ShapeError):
            ModelSpec(lg_signal(d=1), GaussianEmission(np.eye(1), np.eye(1)), observations=np.ones(6))

    def test_state_sized_families_need_d_columns(self):
        with pytest.raises(ShapeError, match="StudentTEmission"):
            ModelSpec(lg_signal(d=2), StudentTEmission(), observations=np.ones((6, 1)))
        model = stochvol_model(d=2, n=5)
        with pytest.raises(ShapeError, match="StochVolFactor"):
            ModelSpec(model.signal, model.likelihood, observations=np.ones((6, 3)))

    def test_state_dimension_mismatch_names_the_family(self):
        cases = [
            (GaussianEmission(np.ones((2, 3)), np.eye(2)),
             "GaussianEmission: C has 3 columns, the signal's state dimension is 2"),
            (stochvol_model(d=3).likelihood,
             "StochVolFactor: B has 3 rows, the signal's state dimension is 2"),
            (neural_model(N=3).likelihood,
             "NeuralPseudo: 3 neurons need state dimension 3, the signal's state dimension is 2"),
        ]
        for lik, line in cases:
            with pytest.raises(ShapeError) as info:
                ModelSpec(lg_signal(d=2), lik)
            assert str(info.value) == line

    def test_spiking_families_need_trials_by_neurons(self):
        model = neural_model(N=3, R=2, n=5)
        assert model.observations.shape == (6, 2, 3)
        with pytest.raises(ShapeError, match="NeuralPseudo"):
            ModelSpec(model.signal, model.likelihood, observations=np.ones((6, 3, 2)))

    def test_stoch_vol_factors_must_cover_the_observations(self):
        # 5 factor rows for 11 observations: eta_bound and the solves would
        # otherwise fail later, at the first index past the factors
        model = stochvol_model(d=2, n=10)
        short = StochVolFactor(model.likelihood.B, model.likelihood.factors[:5])
        with pytest.raises(ShapeError, match="only 5 factor rows"):
            ModelSpec(model.signal, short, observations=model.observations)
        with pytest.raises(ShapeError, match="only 5 factor rows"):
            ModelSpec(model.signal, short, observations=model.observations[:5]).with_observations(
                model.observations)
        assert ModelSpec(model.signal, short, observations=model.observations[:5]).horizon == 4


class TestStationaryCovariance:
    def test_desk_model_closed_form(self):
        # A = 0.95 I, Sigma = 1e-8 I: the covariance is sigma^2 / (1 - a^2) I
        d = 10
        P = stationary_covariance(0.95 * np.eye(d), 1e-8 * np.eye(d))
        want = 1e-8 / (1.0 - 0.95**2)
        np.testing.assert_allclose(P, want * np.eye(d), rtol=1e-12, atol=0.0)

    def test_non_normal_fixed_point(self, rng):
        d = 6
        A = rng.standard_normal((d, d))
        A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
        Sigma = np.eye(d) + 0.1 * np.ones((d, d))
        P = stationary_covariance(A, Sigma)
        np.testing.assert_allclose(A @ P @ A.T + Sigma, P, rtol=1e-12, atol=1e-12 * np.max(P))


_LOG_2PI = math.log(2.0 * math.pi)


def _logdet(M):
    return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(M)))))


def _spd(rng, d):
    B = rng.standard_normal((d, d))
    return B @ B.T / d + np.eye(d)


def _ref_transitions(A, b, Sigma, xs, diag):
    """(sum_m log f, block gradient) of the linear-Gaussian transitions."""
    n, d = xs.shape[0] - 1, xs.shape[1]
    G = np.zeros_like(xs)
    if diag:
        a, si = np.diag(A), np.diag(np.linalg.inv(Sigma))
        W = xs[1:] - xs[:-1] * a - b
        q = float(np.sum(W * W * si))
        SiW = W * si
        G[1:] -= SiW
        G[:-1] += SiW * a
    else:
        Si = np.linalg.inv(Sigma)
        W = xs[1:] - xs[:-1] @ A.T - b
        SiW = W @ Si
        q = float(np.einsum("md,md->", SiW, W))
        G[1:] -= SiW
        G[:-1] += SiW @ A
    return -0.5 * (q + n * (_logdet(Sigma) + d * _LOG_2PI)), G


def _ref_emission(C, R, xs, ys, diag):
    """(per-index log g, block gradient) of the Gaussian emission."""
    Ri = np.linalg.inv(R)
    if diag:
        c, ri = np.diag(C), np.diag(Ri)
        r = ys - xs * c
        q, G = np.sum(r * r * ri, axis=1), r * (ri * c)
    else:
        r = ys - xs @ C.T
        q, G = np.einsum("mp,mp->m", r @ Ri, r), r @ (Ri @ C)
    return -0.5 * (q + _logdet(R) + C.shape[0] * _LOG_2PI), G


def _assert_matches(got, want, exact):
    if exact:
        assert np.array_equal(got, want)
    else:
        scale = float(np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * scale)


def _diagonal(rng, kind, d, low, high):
    """A (d,) diagonal: one draw repeated for an isotropic kind, else d draws."""
    if kind == "isotropic":
        return np.full(d, rng.uniform(low, high))
    return rng.uniform(low, high, d)


def _check_factor(factor, diagonal):
    """A kernel factor is one float exactly when its diagonal's entries are
    all equal, and otherwise the diagonal as a vector."""
    if np.all(diagonal == diagonal[0]):
        assert type(factor) is float and factor == diagonal[0]
    else:
        assert type(factor) is np.ndarray and np.array_equal(factor, diagonal)


class TestGaussianKernels:
    """The in-place linear-Gaussian and Gaussian-emission kernels against
    the formulas: the diagonal paths bit for bit, the dense ones within
    1e-14. Isotropic models run the diagonal path with scalar factors and
    must equal the vector formulas bit for bit too."""

    d, n = 5, 40

    def signal(self, rng, kind, d, b_zero):
        if kind == "dense":
            A, Sigma = 0.3 * rng.standard_normal((d, d)), _spd(rng, d)
        else:
            A = np.diag(_diagonal(rng, kind, d, -0.9, 0.9))
            Sigma = np.diag(_diagonal(rng, kind, d, 0.5, 2.0))
        b = np.zeros(d) if b_zero else rng.standard_normal(d)
        sig = LinearGaussianSignal(A, b, Sigma, rng.standard_normal(d), _spd(rng, d))
        assert sig._diag == (kind != "dense")
        if kind == "isotropic":
            assert type(sig._a_d) is float and type(sig._si_d) is float
        return sig, A, b, Sigma

    def emission(self, rng, kind, d):
        """(C, R); kind "identity" is C = I with an isotropic R."""
        if kind in ("dense", "non-square"):
            p = 3 if kind == "non-square" else d
            return rng.standard_normal((p, d)), _spd(rng, p)
        if kind == "identity":
            return np.eye(d), np.diag(_diagonal(rng, "isotropic", d, 0.2, 3.0))
        return np.diag(_diagonal(rng, kind, d, 0.5, 2.0)), np.diag(_diagonal(rng, kind, d, 0.2, 3.0))

    def check_transitions(self, rng, kind, d, b_zero):
        sig, A, b, Sigma = self.signal(rng, kind, d, b_zero)
        exact = kind != "dense"
        xs = rng.standard_normal((self.n + 1, d))
        before = xs.copy()
        value, grad = _ref_transitions(A, b, Sigma, xs, exact)
        _assert_matches(sig.grad_log_transitions(xs), grad, exact)
        _assert_matches(np.array(sig.log_f_sum(xs)), np.array(value), exact)
        assert np.array_equal(xs, before)
        # one block: no transitions
        assert np.array_equal(sig.grad_log_transitions(xs[:1]), np.zeros((1, d)))
        assert sig.log_f_sum(xs[:1]) == 0.0

    @pytest.mark.parametrize("diag", [True, False])
    @pytest.mark.parametrize("b_zero", [True, False])
    def test_transitions(self, rng, diag, b_zero):
        self.check_transitions(rng, "diagonal" if diag else "dense", self.d, b_zero)

    @pytest.mark.parametrize("d", [5, 1])
    @pytest.mark.parametrize("b_zero", [True, False])
    def test_isotropic_transitions(self, rng, d, b_zero):
        self.check_transitions(rng, "isotropic", d, b_zero)

    def check_emission(self, rng, kind, d):
        C, R = self.emission(rng, kind, d)
        p = C.shape[0]
        exact = kind not in ("dense", "non-square")
        lik = GaussianEmission(C, R)
        assert lik._diag == exact
        if kind in ("identity", "isotropic"):
            assert all(type(f) is float for f in (lik._c_d, lik._ri_d, lik._ric_d))
        xs, ys = rng.standard_normal((self.n + 1, d)), rng.standard_normal((self.n + 1, p))
        before = (xs.copy(), ys.copy())
        terms, grad = _ref_emission(C, R, xs, ys, exact)
        _assert_matches(lik.grad(xs, ys), grad, exact)
        _assert_matches(lik.log_terms(xs, ys), terms, exact)
        assert np.array_equal(xs, before[0]) and np.array_equal(ys, before[1])

    @pytest.mark.parametrize("shape", ["diagonal", "dense", "non-square"])
    def test_emission(self, rng, shape):
        self.check_emission(rng, shape, self.d)

    @pytest.mark.parametrize("kind, d", [("identity", 5), ("isotropic", 5), ("isotropic", 1)])
    def test_isotropic_emission(self, rng, kind, d):
        self.check_emission(rng, kind, d)

    def check_windowed_objective(self, rng, kind, d, b_zero):
        """minus (transitions + start term + emission) on the full-prior
        window 0..n and on a flat-start window a..b."""
        sig, A, b, Sigma = self.signal(rng, kind, d, b_zero)
        n, exact = self.n, kind != "dense"
        C, R = self.emission(rng, "non-square" if kind == "dense" else kind, d)
        ys = rng.standard_normal((n + 1, C.shape[0]))
        model = ModelSpec(sig, GaussianEmission(C, R), observations=ys)
        xs = rng.standard_normal((n + 1, d))

        G = _ref_transitions(A, b, Sigma, xs, exact)[1]
        G[0] += -np.linalg.inv(sig.Sigma0) @ (xs[0] - sig.b0)
        G += _ref_emission(C, R, xs, ys, exact)[1]
        _assert_matches(WindowedObjective(model, (0, n), "full-prior").grad(xs), -G, exact)

        lo, hi = 7, 30
        G = _ref_transitions(A, b, Sigma, xs[lo : hi + 1], exact)[1]
        G += _ref_emission(C, R, xs[lo : hi + 1], ys[lo : hi + 1], exact)[1]
        got = WindowedObjective(model, (lo, hi), "flat-start").grad(xs[lo : hi + 1])
        _assert_matches(got, -G, exact)

    @pytest.mark.parametrize("diag", [True, False])
    @pytest.mark.parametrize("b_zero", [True, False])
    def test_windowed_objective(self, rng, diag, b_zero):
        self.check_windowed_objective(rng, "diagonal" if diag else "dense", self.d, b_zero)

    @pytest.mark.parametrize("d", [5, 1])
    @pytest.mark.parametrize("b_zero", [True, False])
    def test_isotropic_windowed_objective(self, rng, d, b_zero):
        self.check_windowed_objective(rng, "isotropic", d, b_zero)

    @pytest.mark.parametrize("d, changed", [
        (1, None), (5, None), (5, "A"), (5, "Sigma"), (5, "C"), (5, "R"),
    ])
    def test_factor_types(self, d, changed):
        """A scaled identity gives float factors; one changed diagonal entry
        keeps that matrix's factor, and R^-1 C's, a vector."""
        mats = {"A": 0.95 * np.eye(d), "Sigma": 0.3 * np.eye(d), "C": 1.5 * np.eye(d), "R": 0.4 * np.eye(d)}
        if changed is not None:
            mats[changed][-1, -1] *= 1.25
        sig = LinearGaussianSignal(mats["A"], 0.0, mats["Sigma"], 0.0, np.eye(d))
        lik = GaussianEmission(mats["C"], mats["R"])
        factors = {"A": sig._a_d, "Sigma": sig._si_d, "C": lik._c_d, "R": lik._ri_d}
        _check_factor(factors["A"], np.diag(sig.A))
        _check_factor(factors["Sigma"], np.diag(sig.Sigma_inv))
        _check_factor(factors["C"], np.diag(lik.C))
        _check_factor(factors["R"], np.diag(lik.R_inv))
        _check_factor(lik._ric_d, np.diag(lik.R_inv) * np.diag(lik.C))
        for name, factor in factors.items():
            assert type(factor) is (float if name != changed else np.ndarray), name
        assert type(lik._ric_d) is (np.ndarray if changed in ("C", "R") else float)
        # zeros of opposite sign are not the same factor
        assert type(LinearGaussianSignal(np.diag([0.0, -0.0]), 0.0, np.eye(2), 0.0, np.eye(2))._a_d) is np.ndarray

    def test_isotropic_solve_matches_vector_factors(self, rng):
        """A fixed-step solve with the float factors equals, bit for bit,
        the same solve with each factor reset to the (d,) vector of its
        matrix diagonal."""
        d, n = 4, 60
        ys = rng.standard_normal((n + 1, d))

        def model():
            sig = LinearGaussianSignal(0.9 * np.eye(d), 0.0, 0.5 * np.eye(d), 0.0, np.eye(d))
            return ModelSpec(sig, GaussianEmission(np.eye(d), 0.3 * np.eye(d)), observations=ys)

        scalar, vector = model(), model()
        sig, lik = vector.signal, vector.likelihood
        diagonals = {
            sig: {"_a_d": sig.A[0, 0], "_si_d": sig.Sigma_inv[0, 0]},
            lik: {"_c_d": lik.C[0, 0], "_ri_d": lik.R_inv[0, 0], "_ric_d": lik.R_inv[0, 0] * lik.C[0, 0]},
        }
        for family, values in diagonals.items():
            for name, value in values.items():
                assert type(getattr(family, name)) is float
                setattr(family, name, np.full(d, value))
        config = SolverConfig(step_mode="fixed", step_size=0.05, max_iters=5000, grad_tol=1e-9)
        a, b = solve_map(scalar, config), solve_map(vector, config)
        assert a.converged
        assert np.array_equal(a.solution.blocks, b.solution.blocks)
        fields = ("iterations", "grad_evals", "value_evals", "final_grad_norm", "objective_value")
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


class TestMarginalParams:
    def test_squaring_matches_step_loop(self):
        rng = np.random.default_rng(21)
        d = 4
        # upper triangular with a strong off-diagonal part: non-diagonal and
        # non-normal, spectral radius 0.95
        A = np.triu(0.6 * rng.standard_normal((d, d)), 1) + np.diag([0.95, -0.7, 0.5, 0.9])
        b = rng.standard_normal(d)
        sig = LinearGaussianSignal(A, b, _spd(rng, d), rng.standard_normal(d), _spd(rng, d))
        for m in (0, 1, 2, 7, 100, 1000):
            mean, cov = sig.b0.copy(), sig.Sigma0.copy()
            for _ in range(m):
                mean = A @ mean + b
                cov = A @ cov @ A.T + sig.Sigma
            got_mean, got_cov = sig.marginal_params(m)
            assert np.linalg.norm(got_mean - mean) <= 1e-12 * np.linalg.norm(mean), m
            assert np.linalg.norm(got_cov - cov) <= 1e-12 * np.linalg.norm(cov), m
        with pytest.raises(ValueError):
            sig.marginal_params(-1)

    def test_returns_copies(self):
        sig = lg_signal(d=2, b0=0.5, sigma0_sq=2.0)
        mean, cov = sig.marginal_params(0)
        mean += 1.0
        cov += 1.0
        assert np.array_equal(sig.b0, [0.5, 0.5])
        assert np.array_equal(sig.Sigma0, 2.0 * np.eye(2))


class TestSimulate:
    def test_deterministic_per_seed(self):
        model = gaussian_model_with_obs(np.zeros(10), a=0.8)
        x1, y1 = simulate(model, 50, seed=7)
        x2, y2 = simulate(model, 50, seed=7)
        assert np.array_equal(x1.blocks, x2.blocks)
        assert np.array_equal(y1, y2)
        x3, _ = simulate(model, 50, seed=8)
        assert not np.array_equal(x1.blocks, x3.blocks)

    def test_negative_horizon_rejected(self):
        model = gaussian_model_with_obs(np.zeros(10))
        with pytest.raises(ValueError, match="horizon"):
            simulate(model, -1, seed=0)
        xs, ys = simulate(model, 0, seed=0)
        assert xs.blocks.shape == (1, 1) and ys.shape == (1, 1)

    def test_white_noise_autocorrelation(self):
        model = gaussian_model_with_obs(np.zeros(10), a=0.0)
        xs, _ = simulate(model, 10_000, seed=11)
        v = xs.blocks[:, 0]
        rho = np.corrcoef(v[:-1], v[1:])[0, 1]
        assert abs(rho) < 0.05

    def test_ar_autocorrelation(self):
        model = gaussian_model_with_obs(np.zeros(10), a=0.95, stationary=True)
        xs, _ = simulate(model, 10_000, seed=12)
        v = xs.blocks[:, 0]
        rho = np.corrcoef(v[:-1], v[1:])[0, 1]
        assert rho == pytest.approx(0.95, abs=0.02)

    def test_huber_signal_noise_distribution(self):
        # noise density ~ exp(-huber): compare sample mean of |w| <= c mass
        # against the exact core probability
        sig = huber_signal(d=1, scale=0.0, c=1.0)
        rng_model = student_model(n=3, d=1, signal=sig)
        xs, _ = simulate(rng_model, 40_000, seed=13)
        w = xs.blocks[:, 0]  # zero drift -> every block is a fresh noise draw
        from scipy.special import ndtr

        core = math.sqrt(2 * math.pi) * (2 * ndtr(1.0) - 1)
        tails = 2 * math.exp(-0.5)
        p_core = core / (core + tails)
        assert np.mean(np.abs(w) <= 1.0) == pytest.approx(p_core, abs=0.01)

    def test_neural_exact_size_cap(self):
        with pytest.raises(ShapeError):
            NeuralExact(11, 2, spikes=np.zeros((3, 2, 11)))

    def test_spike_simulation_matches_rates_at_zero_coupling(self):
        # zero coupling makes the field uniform over configurations -> rate 1/2
        lik = NeuralPseudo(3, 40, rates_c=[0.5] * 3, spikes=np.zeros((1, 40, 3)))
        rng_local = np.random.default_rng(14)
        spikes = lik.sample(np.zeros((201, 3)), rng_local)
        assert spikes.shape == (201, 40, 3)
        assert spikes.mean() == pytest.approx(0.5, abs=0.02)
