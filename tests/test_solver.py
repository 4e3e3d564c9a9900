"""Gradient solvers: convergence, contraction, determinism, divergence."""

import math

import numpy as np
import pytest

from viterbipar import (
    GammaWeight,
    PathVector,
    SolverConfig,
    WindowedObjective,
    certify_linear_gaussian,
    estimate_grad_lipschitz,
    eval_U,
    grad_U,
    rts_smoother,
    solve_map,
    solve_windowed,
)
from viterbipar.errors import DivergenceError
from viterbipar.objective import FullObjective
from viterbipar.core import gamma_weights

from conftest import gamma_norm, gaussian_model_with_obs


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
        # returned solution stays within twice the tolerance
        model = gaussian_model_with_obs(rng.standard_normal(40), a=0.6)
        config = SolverConfig(grad_tol=1e-9, max_iters=5000, gamma=GammaWeight(0.9))
        report = solve_map(model, config)
        fresh = gamma_norm(grad_U(model, report.solution), GammaWeight(0.9))
        assert fresh <= 2e-9

    def test_objective_monotone_under_backtracking(self, rng):
        # the descent loop asserts per-iteration monotonicity internally;
        # verify the end-to-end drop here
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

    def check_reference_loop(self, rng, gamma):
        """A fixed-step solve against the plain loop x = x - h g that stops
        on the per-block squared norms weighted by gamma^m."""
        ys = rng.standard_normal((60, 3))
        model = gaussian_model_with_obs(ys, a=0.8, b=0.3)
        obj = FullObjective(model)
        h = 1.0 / estimate_grad_lipschitz(obj)
        config = SolverConfig(step_mode="fixed", step_size=h, max_iters=5000, grad_tol=1e-9,
                              gamma=GammaWeight(gamma))
        report = solve_map(model, config)
        weights = gamma_weights(60, gamma)
        x = np.zeros((60, 3))
        for it in range(config.max_iters):
            g = obj.grad(x)
            if math.sqrt(float(np.einsum("md,md->m", g, g) @ weights)) <= config.grad_tol:
                break
            x = x - h * g
        assert report.converged and 0 < report.iterations == it
        assert np.array_equal(report.solution.blocks, x)

    def test_fixed_step_matches_reference_loop(self, rng):
        # the in-place update g *= h; x -= g is the plain x = x - h g
        self.check_reference_loop(rng, 0.9)

    def test_fixed_step_matches_reference_loop_gamma_one(self, rng):
        # at gamma = 1 the loop's norm is one dot product; the reference
        # still sums per-block squared norms with unit weights
        self.check_reference_loop(rng, 1.0)

    @pytest.mark.parametrize("step_mode", ["fixed", "backtracking"])
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
    # an infinite step halves to itself forever under backtracking, and a
    # NaN tolerance is never met
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        SolverConfig(**{field: value})


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

    def test_backtracking_mode(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(30), a=0.5)
        report = self.solve(model, SolverConfig(step_size=4.0, grad_tol=1e-9))
        assert report.converged
        assert report.grad_evals == report.iterations + 1
        # the start value, at least one trial per step, the final value
        assert report.value_evals >= report.iterations + 2

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
        for step_mode in ("fixed", "backtracking"):
            capped = solve_map(model, SolverConfig(step_mode=step_mode, step_size=0.1, max_iters=5))
            assert not capped.converged and capped.stop_reason == "max_iters"
            assert capped.to_dict()["stop_reason"] == "max_iters"
        model = gaussian_model_with_obs(rng.standard_normal(30), a=0.5)
        done = solve_map(model, SolverConfig(grad_tol=1e-9))
        assert done.converged and done.stop_reason == "tolerance"
        assert done.to_dict()["stop_reason"] == "tolerance"

    def test_fixed_mode_neither_halves_nor_coasts(self, rng):
        model = gaussian_model_with_obs(rng.standard_normal(30), a=0.5)
        h = 1.0 / estimate_grad_lipschitz(FullObjective(model))
        report = solve_map(model, SolverConfig(step_mode="fixed", step_size=h, grad_tol=1e-9))
        assert report.iterations > 0
        assert (report.halvings, report.coasting_steps) == (0, 0)

    @pytest.mark.parametrize("grad_tol, max_iters", [(1e-9, 3000), (0.0, 300)])
    def test_backtracking_value_count(self, rng, grad_tol, max_iters):
        # the start value, one accepted trial per tested step, one per
        # halving, and the final value; coasting steps test nothing
        model = gaussian_model_with_obs(rng.standard_normal((30, 2)), a=0.5)
        obj = CountingObjective(FullObjective(model))
        report = solve_windowed(obj, SolverConfig(step_size=4.0, grad_tol=grad_tol,
                                                  max_iters=max_iters))
        assert report.halvings > 0 and report.coasting_steps > 0
        assert obj.value_evals == report.value_evals
        assert report.value_evals == 2 + report.iterations - report.coasting_steps + report.halvings
        d = report.to_dict()
        assert (d["halvings"], d["coasting_steps"]) == (report.halvings, report.coasting_steps)


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
