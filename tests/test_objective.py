"""Objective values, block gradients, windows and curvature forms."""

import math

import numpy as np
import pytest

from viterbipar import (
    GammaWeight,
    PathVector,
    WindowedObjective,
    eval_U,
    finite_diff_grad,
    grad_U,
    hessian_quadratic_form,
)
from viterbipar.core import gamma_weights
from viterbipar.errors import ShapeError, UnsupportedModeError

from conftest import (
    gaussian_model_with_obs,
    grad_log_g,
    huber_signal,
    lg_signal,
    log_g_terms,
    neural_model,
    stochvol_model,
    student_model,
)


def assemble_gaussian_hessian(model):
    """Dense block-tridiagonal Hessian of the conjugate objective.

    Independent oracle: built directly from the precision matrices, never
    from the gradient code.
    """
    sig, lik = model.signal, model.likelihood
    n = model.horizon
    d = model.dim
    Si = np.linalg.inv(sig.Sigma)
    S0i = np.linalg.inv(sig.Sigma0)
    CtRC = lik.C.T @ np.linalg.inv(lik.R) @ lik.C
    A = sig.A
    H = np.zeros(((n + 1) * d, (n + 1) * d))
    for m in range(n + 1):
        block = CtRC.copy()
        block += S0i if m == 0 else Si
        if m < n:
            block += A.T @ Si @ A
        H[m * d : (m + 1) * d, m * d : (m + 1) * d] = block
        if m < n:
            off = -(A.T @ Si)
            H[m * d : (m + 1) * d, (m + 1) * d : (m + 2) * d] = off
            H[(m + 1) * d : (m + 2) * d, m * d : (m + 1) * d] = off.T
    return H


def _family_model(family, n, rng):
    if family == "gaussian":
        return gaussian_model_with_obs(rng.standard_normal((n + 1, 2)), a=0.6, b=0.2)
    if family == "student":
        return student_model(n=n, d=2)
    if family == "stochvol":
        return stochvol_model(n=n)
    return neural_model(N=3, R=2, n=n, exact=(family == "exact"))


def _model_assembly(model, window, mode, xs):
    """(value, gradient) of a window from the window model's log_g_terms and
    grad_log_g (conftest), the signal's transition terms and the start term."""
    a, b = window
    sub = model.window(a, b)
    sig = sub.signal
    if a == 0 or mode == "full-prior":
        start_value, start_grad = sig.log_mu(xs[0]), sig.grad_log_mu(xs[0])
    elif mode == "marginal-prior":
        mean, cov = model.signal.marginal_params(a)
        prec, r = np.linalg.inv(cov), xs[0] - mean
        logdet = float(np.linalg.slogdet(cov)[1])
        start_value = -0.5 * (float(r @ prec @ r) + logdet + model.dim * math.log(2.0 * math.pi))
        start_grad = -prec @ r
    else:
        start_value, start_grad = 0.0, np.zeros(model.dim)
    value = start_value + sig.log_f_sum(xs)
    value += float(np.sum(log_g_terms(sub, xs)))
    G = sig.grad_log_transitions(xs)
    G[0] += start_grad
    G += grad_log_g(sub, xs)
    return -value, -G


class TestEvalU:
    def test_constants_only_hand_value(self):
        # n=0, standard normal prior and emission, x = y = 0:
        # both normalizers contribute log(2 pi)/2
        model = gaussian_model_with_obs([0.0])
        assert eval_U(model, np.zeros((1, 1))) == pytest.approx(math.log(2 * math.pi), rel=1e-14)

    def test_value_differences_drop_constants(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(6), a=0.4)
        xs = rng.standard_normal((6, 1))
        zs = rng.standard_normal((6, 1))
        # hand-assembled non-constant part of the conjugate objective
        def quad(x):
            v = 0.5 * float(x[0] @ x[0])
            for m in range(1, 6):
                w = x[m] - 0.4 * x[m - 1]
                v += 0.5 * float(w @ w)
            v += 0.5 * float(np.sum((model.observations - x) ** 2))
            return v

        got = eval_U(model, xs) - eval_U(model, zs)
        assert got == pytest.approx(quad(xs) - quad(zs), rel=1e-10)

    def test_quadratic_growth_along_rays(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(5), a=0.3)
        H = assemble_gaussian_hessian(model)
        for _ in range(5):
            x = rng.standard_normal((5, 1))
            flat = x.reshape(-1)
            lead = 0.5 * float(flat @ H @ flat)
            t = 2.0 ** 12
            assert eval_U(model, t * x) / t**2 == pytest.approx(lead, rel=1e-3)
            assert lead > 0

    def test_shape_mismatch(self):
        model = gaussian_model_with_obs([0.0, 1.0])
        with pytest.raises(ShapeError):
            eval_U(model, np.zeros((3, 1)))


class TestGradU:
    def test_decoupled_conjugate_stationary_point(self):
        ys = np.array([0.7, -0.2, 1.1, 0.05])
        model = gaussian_model_with_obs(ys, a=0.0)
        g = grad_U(model, PathVector((ys / 2)[:, None]))
        np.testing.assert_allclose(g.blocks, 0.0, atol=1e-14)

    @pytest.mark.parametrize("family", ["gaussian", "student", "stochvol", "pseudo", "exact", "huber"])
    def test_matches_finite_differences(self, family, rng):
        n = 5
        if family == "gaussian":
            model = gaussian_model_with_obs(rng.standard_normal(n + 1), a=0.5)
        elif family == "student":
            model = student_model(n=n)
        elif family == "stochvol":
            model = stochvol_model(n=n)
        elif family == "huber":
            model = student_model(n=n, d=2, signal=huber_signal(d=2))
        else:
            model = neural_model(N=3, R=2, n=n, exact=(family == "exact"))
        for _ in range(3):
            x = PathVector(rng.standard_normal((n + 1, model.dim)))
            want = finite_diff_grad(lambda p: eval_U(model, p), x, epsilon=1e-6)
            got = grad_U(model, x)
            np.testing.assert_allclose(got.blocks, want.blocks, rtol=1e-5, atol=1e-7)

    def test_linearity_in_observations(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(5), a=0.6)
        shift = rng.standard_normal(5)
        shifted = gaussian_model_with_obs(model.observations[:, 0] + shift, a=0.6)
        x = PathVector(rng.standard_normal((5, 1)))
        diff = grad_U(shifted, x).blocks - grad_U(model, x).blocks
        np.testing.assert_allclose(diff[:, 0], -shift, atol=1e-12)

    def test_banded_dependence(self, rng):
        # blocks beyond m+1 of the gradient cannot see blocks before m
        model = gaussian_model_with_obs(rng.standard_normal(8), a=0.5)
        m = 3
        x1 = rng.standard_normal((8, 1))
        x2 = x1.copy()
        x2[: m + 1] = rng.standard_normal((m + 1, 1))
        x1[m + 1 :] = 0.0
        x2[m + 1 :] = 0.0
        g1 = grad_U(model, x1).blocks
        g2 = grad_U(model, x2).blocks
        np.testing.assert_allclose(g1[m + 2 :], g2[m + 2 :], atol=1e-14)


class TestWindowedObjective:
    def test_degenerate_window_full_prior_equals_grad_U(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(7), a=0.4)
        obj = WindowedObjective(model, (0, 6), boundary_mode="full-prior")
        x = PathVector(rng.standard_normal((7, 1)))
        np.testing.assert_allclose(
            obj.grad(x.blocks), grad_U(model, x).blocks, atol=1e-14
        )
        assert obj.value(x.blocks) == pytest.approx(eval_U(model, x), rel=1e-14)

    @pytest.mark.parametrize("mode", ["flat-start", "marginal-prior", "full-prior"])
    def test_gradient_matches_finite_differences(self, mode, rng):
        model = gaussian_model_with_obs(rng.standard_normal(9), a=0.7, stationary=True)
        obj = WindowedObjective(model, (2, 6), boundary_mode=mode)
        for _ in range(3):
            x = PathVector(rng.standard_normal((5, 1)))
            want = finite_diff_grad(lambda p: obj.value(p.blocks), x, epsilon=1e-6)
            got = obj.grad(x.blocks)
            np.testing.assert_allclose(got, want.blocks, rtol=1e-6, atol=1e-8)

    def test_marginal_prior_equals_initial_density_at_zero(self, rng):
        # stationary chain: the marginal at any index equals the initial
        # density, so both start modes agree on the window objective
        model = gaussian_model_with_obs(rng.standard_normal(9), a=0.7, stationary=True)
        w_marg = WindowedObjective(model, (3, 7), boundary_mode="marginal-prior")
        w_full = WindowedObjective(model, (3, 7), boundary_mode="full-prior")
        x = rng.standard_normal((5, 1))
        assert w_marg.value(x) == pytest.approx(w_full.value(x), rel=1e-12)

    def test_marginal_prior_requires_marginals(self):
        model = student_model(n=6, d=2, signal=huber_signal(d=2))
        with pytest.raises(UnsupportedModeError):
            WindowedObjective(model, (1, 4), boundary_mode="marginal-prior")

    @pytest.mark.parametrize("family", ["gaussian", "huber"])
    def test_each_gradient_is_a_fresh_array(self, family, rng):
        # callers hold one gradient across the next call (gradient
        # differences, power iteration); neither call may write into the
        # other's result or into the path
        if family == "gaussian":
            model = gaussian_model_with_obs(rng.standard_normal((12, 2)), a=0.6)
        else:
            model = student_model(n=11, d=2, signal=huber_signal(d=2))
        obj = WindowedObjective(model, (0, 11), boundary_mode="full-prior")
        x = rng.standard_normal((12, 2))
        x_kept = x.copy()
        g1 = obj.grad(x)
        g1_kept = g1.copy()
        g2 = obj.grad(x + 1.0)
        assert not np.shares_memory(g1, g2)
        assert np.array_equal(g1, g1_kept)
        assert not np.array_equal(g1, g2)
        obj.value(x)
        assert np.array_equal(x, x_kept)

    @pytest.mark.parametrize("family", ["gaussian", "student", "stochvol", "pseudo", "exact"])
    def test_direct_family_calls_match_model_assembly(self, family, rng):
        """value and grad, which call the families on the window's own
        observations, equal bit for bit the assembly through the window
        model's log_g_terms and grad_log_g: windows at a = 0, at a > 0 in
        every boundary mode, and the full range."""
        n = 10
        model = _family_model(family, n, rng)
        cases = [((0, 4), mode) for mode in ("full-prior", "marginal-prior", "flat-start")]
        cases += [((3, 8), mode) for mode in ("full-prior", "marginal-prior", "flat-start")]
        cases += [((0, n), "full-prior"), ((0, n), "flat-start"), ((n, n), "marginal-prior")]
        for (a, b), mode in cases:
            obj = WindowedObjective(model, (a, b), mode)
            xs = rng.standard_normal((b - a + 1, model.dim))
            want_value, want_grad = _model_assembly(model, (a, b), mode, xs)
            assert obj.value(xs) == want_value, (a, b, mode)
            assert np.array_equal(obj.grad(xs), want_grad), (a, b, mode)

    def test_nonneural_families_support_windows(self, rng):
        model = stochvol_model(n=8)
        obj = WindowedObjective(model, (3, 6), boundary_mode="flat-start")
        x = PathVector(rng.standard_normal((4, model.dim)))
        want = finite_diff_grad(lambda p: obj.value(p.blocks), x, epsilon=1e-6)
        np.testing.assert_allclose(obj.grad(x.blocks), want.blocks, rtol=1e-6, atol=1e-8)


class TestHessianQuadraticForm:
    def test_matches_exact_assembly(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(6), a=0.45)
        H = assemble_gaussian_hessian(model)
        w = GammaWeight(0.8)
        weights = gamma_weights(6, 0.8)
        for _ in range(10):
            x = PathVector(rng.standard_normal((6, 1)))
            v = PathVector(rng.standard_normal((6, 1)))
            flat = v.blocks.reshape(-1)
            hv = (H @ flat).reshape(6, 1)
            want = float(np.einsum("md,md->m", v.blocks, hv) @ weights)
            got = hessian_quadratic_form(model, x, v, w)
            assert got == pytest.approx(want, rel=1e-6)

    def test_unit_coordinate_pulls_diagonal(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(4), a=0.45)
        H = assemble_gaussian_hessian(model)
        w = GammaWeight(0.5)
        for m in range(4):
            e = np.zeros((4, 1))
            e[m, 0] = 1.0
            got = hessian_quadratic_form(model, PathVector(np.zeros((4, 1))), PathVector(e), w)
            assert got == pytest.approx(0.5**m * H[m, m], rel=1e-8)

    def test_x_independence_for_quadratic_model(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(5), a=0.3)
        w = GammaWeight(0.9)
        v = PathVector(rng.standard_normal((5, 1)))
        vals = [
            hessian_quadratic_form(model, PathVector(rng.standard_normal((5, 1)) * s), v, w)
            for s in (0.1, 1.0, 10.0)
        ]
        assert max(vals) - min(vals) < 1e-6 * abs(vals[0])
