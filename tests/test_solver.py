"""Gradient solvers: convergence, contraction, determinism, divergence."""

import math
import warnings

import numpy as np
import pytest

from viterbipar import (
    GammaWeight,
    PathVector,
    SolverConfig,
    WindowedObjective,
    build_segment_plan,
    certify_linear_gaussian,
    estimate_grad_lipschitz,
    eval_U,
    grad_U,
    rts_smoother,
    solve_map,
    solve_parallel,
    solve_windowed,
)
from viterbipar.errors import ConfigError, DivergenceError
from viterbipar.objective import FullObjective
from viterbipar.solver import _DOT_CHUNK, STEP_MODES, _dot
from viterbipar.core import gamma_weights

from conftest import (
    gamma_norm,
    gaussian_model_with_obs,
    neural_model,
    reference_adaptive_descent,
    stochvol_model,
)
from test_objective import assemble_gaussian_hessian


class TestSolveMap:
    def test_decoupled_conjugate_closed_form(self, rng):
        ys = rng.standard_normal(30)
        model = gaussian_model_with_obs(ys, a=0.0)
        report = solve_map(model, SolverConfig(grad_tol=1e-12, max_iters=5000))
        np.testing.assert_allclose(report.solution.blocks[:, 0], ys / 2.0, atol=1e-8)

    def test_matches_exact_smoother(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(201), a=0.5)
        report = solve_map(model, SolverConfig(grad_tol=1e-10, max_iters=20000))
        exact = rts_smoother(model.signal, model.likelihood, model.observations)
        err = np.max(np.abs(report.solution.blocks - exact.blocks))
        assert err <= 1e-6

    def test_report_fields(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(20))
        config = SolverConfig(grad_tol=1e-9, max_iters=3000)
        report = solve_map(model, config)
        assert report.iterations <= config.max_iters
        assert np.isfinite(report.final_grad_norm)
        assert report.final_grad_norm <= 1e-9
        assert report.converged is True
        assert report.objective_value == pytest.approx(eval_U(model, report.solution), rel=1e-12)
        assert report.wall_clock_seconds >= 0

    def test_max_iters_stop_is_not_converged(self, rng):
        # a stiff chain (a=0.95, tiny transition noise) is far from
        # stationary after five steps; the solve returns with the flag off
        model = gaussian_model_with_obs(rng.standard_normal(200), a=0.95, sigma_sq=1e-4)
        report = solve_map(model, SolverConfig(max_iters=5))
        assert report.iterations == 5
        assert report.converged is False
        assert report.final_grad_norm > SolverConfig().resolved_tol(201)
        assert report.to_dict()["converged"] is False

    def test_fresh_gradient_confirms_stationarity(self, rng):
        # guards against stale solver state: recomputing the gradient at the
        # returned solution stays within twice the tolerance, and so does its
        # discounted norm, which the plain norm bounds
        model = gaussian_model_with_obs(rng.standard_normal(40), a=0.6)
        config = SolverConfig(grad_tol=1e-9, max_iters=5000)
        report = solve_map(model, config)
        fresh = gamma_norm(grad_U(model, report.solution), GammaWeight(1.0))
        assert fresh <= 2e-9
        assert gamma_norm(grad_U(model, report.solution), GammaWeight(0.9)) <= fresh

    def test_objective_drops_under_adaptive_steps(self, rng):
        # no step tests a value, so only the end-to-end drop is checked
        model = gaussian_model_with_obs(rng.standard_normal(25), a=0.4)
        u0 = eval_U(model, PathVector(np.zeros((25, 1))))
        report = solve_map(model, SolverConfig(max_iters=200, grad_tol=0.0))
        assert report.objective_value <= u0

    def test_divergent_fixed_step_raises_with_iteration(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(30), a=0.5)
        config = SolverConfig(step_mode="fixed", step_size=50.0, max_iters=500, grad_tol=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                solve_map(model, config)
        assert err.value.iteration is not None

    def test_fixed_step_deterministic_repeat(self, rng):
        # the experiment-style settings: constant step 1e-8 over 1.5e4 steps
        ys = np.random.default_rng(99).standard_normal(12) * 3.0
        model = gaussian_model_with_obs(ys, a=0.9, sigma_sq=1e-2)
        config = SolverConfig(step_mode="fixed", step_size=1e-8, max_iters=15000, grad_tol=0.0)
        r1 = solve_map(model, config)
        r2 = solve_map(model, config)
        assert np.array_equal(r1.solution.blocks, r2.solution.blocks)
        assert r1.iterations == r2.iterations == 15000
        # regression lock for the iterate sequence (value frozen from this model)
        assert r1.objective_value == pytest.approx(46.902390094206815, rel=1e-12)

    def test_fixed_step_matches_reference_loop_gamma_one(self, rng):
        # a fixed-step solve against the plain loop x = x - h g: the in-place
        # update g *= h; x -= g is that loop, and the solver's stopping norm,
        # one dot product, stops where the reference's sum of per-block
        # squared norms with unit weights (gamma = 1) does
        ys = rng.standard_normal((60, 3))
        model = gaussian_model_with_obs(ys, a=0.8, b=0.3)
        obj = FullObjective(model)
        h = 1.0 / estimate_grad_lipschitz(obj)
        config = SolverConfig(step_mode="fixed", step_size=h, max_iters=5000, grad_tol=1e-9)
        report = solve_map(model, config)
        weights = gamma_weights(60, 1.0)
        x = np.zeros((60, 3))
        for it in range(config.max_iters):
            g = obj.grad(x)
            if math.sqrt(float(np.einsum("md,md->m", g, g) @ weights)) <= config.grad_tol:
                break
            x = x - h * g
        assert report.converged and 0 < report.iterations == it
        assert np.array_equal(report.solution.blocks, x)

    @pytest.mark.parametrize("step_mode", ["fixed", "adaptive"])
    def test_gamma_one_norm_is_the_final_gradient_norm(self, rng, step_mode):
        model = gaussian_model_with_obs(rng.standard_normal((80, 3)), a=0.7)
        h = 1.0 / estimate_grad_lipschitz(FullObjective(model)) if step_mode == "fixed" else 4.0
        config = SolverConfig(step_mode=step_mode, step_size=h, grad_tol=1e-9, max_iters=5000)
        report = solve_map(model, config)
        assert report.converged
        want = gamma_norm(grad_U(model, report.solution), GammaWeight(1.0))
        assert report.final_grad_norm == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_contraction_between_two_starts(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(40), a=0.5, stationary=True)
        cert = certify_linear_gaussian(model.signal, lambda_g=0.0)
        gamma, lam = cert.chosen_gamma, cert.chosen_lambda
        L = estimate_grad_lipschitz(FullObjective(model), seed=0)
        h = 0.2 * lam / L**2
        config = SolverConfig(step_mode="fixed", step_size=h, max_iters=1, grad_tol=0.0)
        weights = gamma_weights(40, gamma)
        x = rng.standard_normal((40, 1))
        y = rng.standard_normal((40, 1))
        dist = lambda: np.sqrt(float(np.einsum("md,md->m", x - y, x - y) @ weights))
        prev = dist()
        for _ in range(200):
            x = solve_map(model, config, init=PathVector(x)).solution.blocks
            y = solve_map(model, config, init=PathVector(y)).solution.blocks
            cur = dist()
            assert cur <= prev * (1.0 - 0.5 * h * lam) + 1e-15
            prev = cur


class CountingObjective:
    """Counts the gradient and value calls made of the wrapped objective."""

    def __init__(self, inner):
        self.inner = inner
        self.n_blocks, self.dim = inner.n_blocks, inner.dim
        self.grad_evals = self.value_evals = 0

    def grad(self, xs):
        self.grad_evals += 1
        return self.inner.grad(xs)

    def value(self, xs):
        self.value_evals += 1
        return self.inner.value(xs)


@pytest.mark.parametrize("field, value", [
    ("step_size", math.inf), ("step_size", math.nan), ("grad_tol", math.inf), ("grad_tol", math.nan),
])
def test_config_rejects_non_finite_step_and_tolerance(field, value):
    # an infinite fixed step sends the first iterate to infinity, and a NaN
    # tolerance is never met
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("value", [1.5, 2.0, True, False, "3"])
def test_config_rejects_a_non_integer_max_iters(value):
    # range() takes no float, and a bool would run True == 1 iteration
    with pytest.raises(ConfigError, match=r"^max_iters must be an integer, got "):
        SolverConfig(max_iters=value)


@pytest.mark.parametrize("value", [True, False, "0.1", None])
def test_config_rejects_a_step_size_that_is_not_a_number(value):
    # a bool would run with a step of True == 1
    with pytest.raises(ConfigError, match=r"^step_size must be a real number, got "):
        SolverConfig(step_size=value)


def test_config_takes_numpy_step_sizes():
    assert SolverConfig(step_size=np.float32(0.5)).step_size == 0.5
    assert SolverConfig(step_size=np.int64(2)).step_size == 2


def test_config_takes_a_numpy_integer_max_iters():
    model = gaussian_model_with_obs(np.ones(5))
    report = solve_map(model, SolverConfig(max_iters=np.int64(3), grad_tol=0.0))
    assert report.iterations == 3


class TestEvaluationCounts:
    def solve(self, model, config):
        obj = CountingObjective(FullObjective(model))
        report = solve_windowed(obj, config)
        assert (report.grad_evals, report.value_evals) == (obj.grad_evals, obj.value_evals)
        assert report.to_dict()["grad_evals"] == report.grad_evals
        assert report.to_dict()["value_evals"] == report.value_evals
        return report

    def test_fixed_mode_converged(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(30), a=0.5)
        h = 1.0 / estimate_grad_lipschitz(FullObjective(model))
        report = self.solve(model, SolverConfig(step_mode="fixed", step_size=h, grad_tol=1e-9))
        assert report.converged and report.iterations > 0
        # one gradient per step plus the one that met the tolerance; one
        # value, at the final point
        assert report.grad_evals == report.iterations + 1
        assert report.value_evals == 1

    @pytest.mark.parametrize("grad_tol, max_iters", [(1e-9, 3000), (0.0, 300)])
    def test_adaptive_mode(self, rng, grad_tol, max_iters):
        # no step tests a value: one gradient per step plus the final one,
        # and one value, at the returned point
        model = gaussian_model_with_obs(rng.standard_normal((30, 2)), a=0.5)
        report = self.solve(model, SolverConfig(grad_tol=grad_tol, max_iters=max_iters))
        assert report.converged == (grad_tol > 0)
        assert 0 < report.iterations <= max_iters
        assert report.grad_evals == report.iterations + 1
        assert report.value_evals == 1

    def test_max_iters_stop(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(200), a=0.95, sigma_sq=1e-4)
        report = self.solve(model, SolverConfig(step_mode="fixed", step_size=0.1, max_iters=5))
        assert not report.converged and report.iterations == 5
        # five steps, then the gradient at the final point
        assert report.grad_evals == 6
        assert report.value_evals == 1


class TestSolveStatus:
    def test_stop_reasons(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(200), a=0.95, sigma_sq=1e-4)
        for step_mode in STEP_MODES:
            capped = solve_map(model, SolverConfig(step_mode=step_mode, step_size=0.1, max_iters=5))
            assert not capped.converged and capped.stop_reason == "max_iters"
            assert capped.to_dict()["stop_reason"] == "max_iters"
        model = gaussian_model_with_obs(rng.standard_normal(30), a=0.5)
        done = solve_map(model, SolverConfig(grad_tol=1e-9))
        assert done.converged and done.stop_reason == "tolerance"
        assert done.to_dict()["stop_reason"] == "tolerance"

    def test_fixed_mode_never_restarts(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(30), a=0.5)
        h = 1.0 / estimate_grad_lipschitz(FullObjective(model))
        report = solve_map(model, SolverConfig(step_mode="fixed", step_size=h, grad_tol=1e-9))
        assert report.iterations > 0 and report.restarts == 0
        assert report.to_dict()["restarts"] == 0

    def test_the_old_mode_name_is_a_config_error(self):
        # nothing backtracks since the adaptive step replaced the line search
        assert STEP_MODES == ("fixed", "adaptive") and SolverConfig().step_mode == "adaptive"
        with pytest.raises(ConfigError, match=r"^step_mode must be 'fixed' or 'adaptive', got 'backtracking'$"):
            SolverConfig(step_mode="backtracking")


class TestSolveWindowed:
    def test_full_window_full_prior_equals_solve_map(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(15), a=0.5)
        config = SolverConfig(grad_tol=1e-11, max_iters=5000)
        full = solve_map(model, config)
        windowed = solve_windowed(
            WindowedObjective(model, (0, 14), boundary_mode="full-prior"), config
        )
        assert np.array_equal(full.solution.blocks, windowed.solution.blocks)
        assert full.iterations == windowed.iterations

    def test_stationary_marginal_prior_full_window_equals_solve_map(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(15), a=0.7, stationary=True)
        config = SolverConfig(grad_tol=1e-12, max_iters=8000)
        full = solve_map(model, config)
        windowed = solve_windowed(
            WindowedObjective(model, (0, 14), boundary_mode="marginal-prior"), config
        )
        np.testing.assert_allclose(
            windowed.solution.blocks, full.solution.blocks, atol=1e-10
        )

    def test_estimate_grad_lipschitz_matches_quadratic_top_eigenvalue(self, rng):
        from test_objective import assemble_gaussian_hessian

        model = gaussian_model_with_obs(rng.standard_normal(12), a=0.5)
        L = estimate_grad_lipschitz(FullObjective(model), seed=1, iters=200)
        H = assemble_gaussian_hessian(model)
        top = float(np.max(np.linalg.eigvalsh(H)))
        assert L == pytest.approx(top, rel=1e-3)


def stiff_chain(sigma_sq=1e-2):
    # a = 0.95 with small transition noise: the Hessian's conditioning
    # grows as sigma_sq falls
    ys = np.random.default_rng(0).standard_normal(201)
    return gaussian_model_with_obs(ys, a=0.95, sigma_sq=sigma_sq)


class TestAdaptiveSteps:
    @pytest.mark.parametrize("case", ["converged", "capped"])
    def test_matches_the_reference_bytes(self, case):
        if case == "converged":
            ys = np.random.default_rng(0).standard_normal((40, 2))
            model, config = gaussian_model_with_obs(ys, a=0.5), SolverConfig(grad_tol=1e-9)
        else:
            model, config = stiff_chain(), SolverConfig(max_iters=150)
        report = solve_map(model, config)
        x, iterations, restarts = reference_adaptive_descent(FullObjective(model), config)
        assert report.converged == (case == "converged")
        assert report.iterations == iterations > 0 and report.restarts == restarts > 0
        assert np.array_equal(report.solution.blocks, x)

    @pytest.mark.parametrize("a", [0.5, 0.95])
    @pytest.mark.parametrize("sigma_sq", [1e-2, 1e-3, 1e-4])
    def test_conditioning_grid_converges_to_rts(self, a, sigma_sq):
        # strong convexity puts the returned point within
        # |grad U| / lambda_min <= tol / lambda_min of the exact MAP path
        ys = np.random.default_rng(0).standard_normal(201)
        model = gaussian_model_with_obs(ys, a=a, sigma_sq=sigma_sq)
        config = SolverConfig()
        report = solve_map(model, config)
        assert report.converged and report.stop_reason == "tolerance"
        lam_min = float(np.linalg.eigvalsh(assemble_gaussian_hessian(model))[0])
        exact = rts_smoother(model.signal, model.likelihood, model.observations)
        err = float(np.linalg.norm(report.solution.blocks - exact.blocks))
        assert err <= config.resolved_tol(201) / lam_min

    def test_value_count_with_restarts(self):
        obj = CountingObjective(FullObjective(stiff_chain()))
        report = solve_windowed(obj, SolverConfig())
        assert report.converged and 0 < report.restarts < report.iterations
        assert obj.value_evals == report.value_evals == 1
        assert obj.grad_evals == report.grad_evals == report.iterations + 1

    def test_an_unchanged_gradient_keeps_the_step(self):
        # U = eps |x|^2 / 2 - <c, x> with eps so small that the first
        # step leaves the gradient's bits unchanged: no secant bounds the
        # second step, which keeps the first step's length and grows from
        # there until the curvature shows
        eps = 1e-20

        class Flat:
            n_blocks, dim = 3, 1

            def grad(self, xs):
                return eps * xs - 1.0

            def value(self, xs):
                return float(0.5 * eps * np.vdot(xs, xs) - xs.sum())

        report = solve_windowed(Flat(), SolverConfig(grad_tol=1e-6 * math.sqrt(3)))
        assert report.converged
        np.testing.assert_allclose(report.solution.blocks, 1.0 / eps, rtol=1e-6)

    def test_neural_solve_parallel_same_bytes_at_one_and_two_workers(self):
        model = neural_model(N=4, R=3, n=47, seed=0)
        plan = build_segment_plan(47, 2, 6)
        inline = solve_parallel(model, plan, SolverConfig(), workers=1)
        pooled = solve_parallel(model, plan, SolverConfig(), workers=2)
        assert all(seg.converged and seg.restarts > 0 for seg in inline.per_segment)
        assert np.array_equal(inline.stitched.blocks, pooled.stitched.blocks)
        assert [seg.to_dict() | {"wall_clock_seconds": 0} for seg in inline.per_segment] == [
            seg.to_dict() | {"wall_clock_seconds": 0} for seg in pooled.per_segment]

    def test_no_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model in (stiff_chain(1e-4), neural_model(N=4, R=3, n=47, seed=1),
                          stochvol_model(d=3, n=60)):
                report = solve_map(model, SolverConfig())
                assert report.converged and report.restarts > 0


class TestDot:
    """The descent loop's dot product: np.vdot itself up to _DOT_CHUNK
    elements, so that every window of the benchmark models keeps its
    bits, and chunked above it, where it stays within rounding of the
    exact sum."""

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (700, 10), (819, 10), (4096, 2), (8192, 1)])
    def test_vdot_bits_up_to_a_chunk(self, rng, shape):
        assert shape[0] * shape[1] <= _DOT_CHUNK
        u, v = rng.standard_normal(shape), rng.standard_normal(shape)
        assert _dot(u, u) == float(np.vdot(u, u))
        assert _dot(u, v) == float(np.vdot(u, v))
        assert type(_dot(u, v)) is float

    @pytest.mark.parametrize("shape", [(2000, 10), (8193, 1), (5000, 7), (10007, 3), (40000, 5)])
    def test_squared_norm_above_a_chunk(self, rng, shape):
        g = rng.standard_normal(shape) * np.exp(rng.uniform(-3.0, 3.0, shape))
        exact = math.fsum((g * g).ravel())
        assert abs(_dot(g, g) - exact) <= 1e-15 * exact
