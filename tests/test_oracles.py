"""Reference computations: exact smoother, finite differences, enumerated
normalizer."""

import math

import numpy as np
import pytest

from viterbipar import (
    GammaWeight,
    GaussianEmission,
    NeuralExact,
    PathVector,
    eval_U,
    finite_diff_grad,
    grad_U,
    rts_smoother,
)
from viterbipar.errors import ShapeError, UnsupportedModeError

from conftest import (
    exact_neural_normalizer,
    gamma_norm,
    gaussian_model_with_obs,
    lg_signal,
    log_normalizer,
    normalizer_grad,
    random_spikes,
)


class TestRtsSmoother:
    def test_decoupled_conjugate_halves_observations(self):
        ys = np.array([[1.0], [-2.0], [0.6]])
        sig = lg_signal(a=0.0)
        out = rts_smoother(sig, GaussianEmission([[1.0]], [[1.0]]), ys)
        np.testing.assert_allclose(out.blocks, ys / 2.0, atol=1e-12)

    def test_single_step_bayes_formula(self, rng):
        # n = 0: posterior mean (Sigma0^-1 + C'R^-1 C)^-1 C'R^-1 y0 with b0 = 0
        d, p = 3, 2
        A = 0.5 * np.eye(d)
        Sigma = np.eye(d)
        Sigma0 = np.diag([1.0, 2.0, 0.5])
        C = rng.standard_normal((p, d))
        R = np.diag([0.5, 2.0])
        from viterbipar import LinearGaussianSignal

        sig = LinearGaussianSignal(A, np.zeros(d), Sigma, np.zeros(d), Sigma0)
        emission = GaussianEmission(C, R)
        y0 = rng.standard_normal((1, p))
        out = rts_smoother(sig, emission, y0)
        prec = np.linalg.inv(Sigma0) + C.T @ np.linalg.inv(R) @ C
        want = np.linalg.solve(prec, C.T @ np.linalg.inv(R) @ y0[0])
        np.testing.assert_allclose(out.blocks[0], want, rtol=1e-12)

    def test_output_is_stationary_point_of_objective(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(60), a=0.8)
        out = rts_smoother(model.signal, model.likelihood, model.observations)
        g = grad_U(model, out)
        assert gamma_norm(g, GammaWeight(1.0)) < 1e-8

    def test_non_gaussian_rejected(self):
        from viterbipar import StudentTEmission

        with pytest.raises(UnsupportedModeError):
            rts_smoother(lg_signal(), StudentTEmission(), np.zeros((3, 1)))

    def test_newton_step_from_smoother_output_is_null(self, rng):
        # the smoother output is the unique stationary point: one Newton
        # step with the exact curvature moves it by at most 1e-10
        from test_objective import assemble_gaussian_hessian

        model = gaussian_model_with_obs(rng.standard_normal(40), a=0.7)
        out = rts_smoother(model.signal, model.likelihood, model.observations)
        H = assemble_gaussian_hessian(model)
        g = grad_U(model, out).blocks.reshape(-1)
        step = np.linalg.solve(H, g)
        assert float(np.max(np.abs(step))) <= 1e-10


class TestFiniteDiffGrad:
    def test_quadratic_returns_identity(self, rng):
        x = PathVector(rng.standard_normal((4, 2)))
        g = finite_diff_grad(lambda p: 0.5 * float(np.sum(p.blocks**2)), x)
        np.testing.assert_allclose(g.blocks, x.blocks, rtol=1e-8, atol=1e-9)

    def test_error_scales_quadratically_in_epsilon(self):
        # smooth scalar functional with known gradient: sum of cubes
        x = PathVector(np.full((2, 1), 0.7))
        exact = 3 * 0.7**2
        errs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            g = finite_diff_grad(lambda p: float(np.sum(p.blocks**3)), x, epsilon=eps)
            errs.append(abs(g.blocks[0, 0] - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda p: 0.0, PathVector(np.zeros((1, 1))), epsilon=0.0)


class TestExactNeuralNormalizer:
    def test_zero_coupling_counts_configurations(self):
        for N in (2, 3, 5):
            lik = NeuralExact(N, 1, spikes=random_spikes(N, 1, 2, seed=N))
            d = N * (N - 1) // 2
            assert exact_neural_normalizer(lik, np.zeros(d)) == pytest.approx(
                N * math.log(2.0), rel=1e-12
            )

    def test_two_neuron_zero_coupling_is_log4(self):
        lik = NeuralExact(2, 1, spikes=random_spikes(2, 1, 2))
        assert exact_neural_normalizer(lik, np.zeros(1)) == pytest.approx(math.log(4.0), rel=1e-14)

    def test_derivative_is_mean_energy(self):
        # dA/dt along coupling t equals the configuration-average of the
        # centered pair product
        lik = NeuralExact(2, 1, rates_c=[0.3, 0.6], spikes=random_spikes(2, 1, 2))
        t = 0.8
        eps = 1e-6
        fd = (
            exact_neural_normalizer(lik, np.array([t + eps]))
            - exact_neural_normalizer(lik, np.array([t - eps]))
        ) / (2 * eps)
        want = normalizer_grad(lik, np.array([t]))[0]
        assert fd == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_derivative_identity_many_points(self, N, rng):
        lik = NeuralExact(N, 2, spikes=random_spikes(N, 2, 3, seed=N))
        d = N * (N - 1) // 2
        eps = 1e-6
        for _ in range(25):
            x = rng.standard_normal(d)
            grad = normalizer_grad(lik, x)
            for i in range(d):
                xp, xm = x.copy(), x.copy()
                xp[i] += eps
                xm[i] -= eps
                fd = (exact_neural_normalizer(lik, xp) - exact_neural_normalizer(lik, xm)) / (2 * eps)
                assert fd == pytest.approx(grad[i], abs=1e-8)

    def test_size_cap(self):
        with pytest.raises(ShapeError):
            NeuralExact(11, 1, spikes=np.zeros((1, 1, 11)))

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_family_normalizer_and_log_terms_match_enumeration(self, N, rng):
        R, T = 3, 6
        spikes = random_spikes(N, R, T, seed=10 + N)
        lik = NeuralExact(N, R, rates_c=rng.uniform(0.1, 0.9, N), spikes=spikes)
        xs = 1.5 * rng.standard_normal((T, lik.d))
        want = np.array([exact_neural_normalizer(lik, x) for x in xs])
        for m in range(T):
            assert log_normalizer(lik, xs[m]) == pytest.approx(want[m], rel=1e-13, abs=1e-13)
        # sufficient statistic: mean over trials of (s_i - c_i)(s_j - c_j), i < j
        yc = spikes - lik.rates_c
        suff = np.array([
            [np.mean(yc[m, :, i] * yc[m, :, j]) for i in range(N) for j in range(i + 1, N)]
            for m in range(T)
        ])
        np.testing.assert_allclose(
            lik.log_terms(xs, spikes), np.sum(xs * suff, axis=1) - want, rtol=1e-13, atol=1e-13
        )

    def test_rejects_wrong_coupling_length(self):
        lik = NeuralExact(3, 1, spikes=random_spikes(3, 1, 2))
        with pytest.raises(ShapeError):
            exact_neural_normalizer(lik, np.zeros(2))
