"""Segment-overlap parallel solves: stitching, determinism, error decay."""

import numpy as np
import pytest

from viterbipar import (
    PathVector,
    SolverConfig,
    build_segment_plan,
    relative_error,
    solve_map,
    solve_parallel,
    sweep_delta,
    worker_count_from_env,
)

from conftest import gaussian_model_with_obs


def _model(n=47, a=0.7, seed=21):
    ys = np.random.default_rng(seed).standard_normal(n + 1)
    return gaussian_model_with_obs(ys, a=a, stationary=True)


CONFIG = SolverConfig(grad_tol=1e-12, max_iters=20000)


class TestRelativeError:
    def test_identical_paths(self):
        x = PathVector(np.arange(6.0).reshape(3, 2))
        assert relative_error(x, x) == 0.0

    def test_doubling_gives_one(self):
        x = PathVector(np.arange(1.0, 7.0).reshape(3, 2))
        assert relative_error(PathVector(2.0 * x.blocks), x) == pytest.approx(1.0, rel=1e-14)

    def test_hand_value(self):
        ref = PathVector(np.array([[3.0], [4.0]]))
        cand = PathVector(np.array([[3.0], [0.0]]))
        assert relative_error(cand, ref) == pytest.approx(0.8, rel=1e-14)

    def test_zero_reference_rejected(self):
        z = PathVector(np.zeros((3, 1)))
        with pytest.raises(ZeroDivisionError):
            relative_error(z, z)


class TestSolveParallel:
    def test_degenerate_plan_equals_solve_map(self):
        model = _model()
        plan = build_segment_plan(model.horizon, 1, 0)
        par = solve_parallel(model, plan, CONFIG, workers=1)
        full = solve_map(model, CONFIG)
        assert np.array_equal(par.stitched.blocks, full.solution.blocks)

    def test_full_cover_windows_match_full_solve(self):
        # delta >= n+1-Delta makes every window see the whole problem;
        # with the stationary marginal start the subproblems coincide with
        # the full one up to solver tolerance
        model = _model(n=23)
        plan = build_segment_plan(23, 4, 23)
        par = solve_parallel(model, plan, CONFIG, workers=1)
        full = solve_map(model, CONFIG)
        assert relative_error(par.stitched, full.solution) < 1e-9

    def test_stitch_integrity(self):
        model = _model(n=35)
        plan = build_segment_plan(35, 4, 5)
        par = solve_parallel(model, plan, CONFIG, workers=1)
        for k, ((lo, hi), (elo, _)) in enumerate(zip(plan.segments, plan.enlarged)):
            seg = par.per_segment[k].solution.blocks
            for m in range(lo, hi):
                np.testing.assert_array_equal(par.stitched.blocks[m], seg[m - elo])

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_does_not_change_bytes(self, workers):
        model = _model(n=23)
        plan = build_segment_plan(23, 4, 4)
        base = solve_parallel(model, plan, CONFIG, workers=1)
        multi = solve_parallel(model, plan, CONFIG, workers=workers)
        assert np.array_equal(base.stitched.blocks, multi.stitched.blocks)

    def test_first_segment_subproblem_is_prefix_map(self):
        # with the marginal start (which equals the initial density at
        # index 0), the first enlarged segment solves exactly the
        # shorter-horizon MAP problem
        model = _model(n=23)
        plan = build_segment_plan(23, 4, 3)
        par = solve_parallel(model, plan, CONFIG, workers=1)
        lo, hi = plan.enlarged[0]
        prefix = solve_map(model.window(0, hi - 1), CONFIG)
        np.testing.assert_allclose(
            par.per_segment[0].solution.blocks, prefix.solution.blocks, atol=1e-10
        )

    def test_divergence_names_segments(self):
        model = _model(n=23)
        plan = build_segment_plan(23, 4, 2)
        bad = SolverConfig(step_mode="fixed", step_size=100.0, max_iters=300, grad_tol=0.0)
        from viterbipar.errors import DivergenceError

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                solve_parallel(model, plan, bad, workers=1)
        assert err.value.segments  # at least one segment named


class TestNonConjugateParallel:
    def test_flat_start_default_and_overlap_decay(self):
        from conftest import huber_signal, student_model
        from viterbipar.parallel import default_boundary_mode

        model = student_model(n=23, d=2, signal=huber_signal(d=2, scale=0.2))
        assert default_boundary_mode(model) == "flat-start"
        config = SolverConfig(grad_tol=1e-11, max_iters=30000)
        full = solve_map(model, config)
        errs = []
        for delta in (0, 4, 10):
            plan = build_segment_plan(23, 4, delta)
            par = solve_parallel(model, plan, config, workers=1)
            assert par.boundary_mode == "flat-start"
            errs.append(relative_error(par.stitched, full.solution))
        assert errs[-1] < errs[0]

    def test_flat_start_first_segment_is_prefix_map(self):
        # the window at index 0 keeps the initial density under flat-start,
        # so the first enlarged segment solves the shorter-horizon MAP problem
        from conftest import huber_signal, student_model

        model = student_model(n=23, d=2, signal=huber_signal(d=2, scale=0.2))
        config = SolverConfig(grad_tol=1e-11, max_iters=30000)
        plan = build_segment_plan(23, 4, 3)
        par = solve_parallel(model, plan, config, workers=1, boundary_mode="flat-start")
        lo, hi = plan.enlarged[0]
        prefix = solve_map(model.window(0, hi - 1), config)
        np.testing.assert_allclose(
            par.per_segment[0].solution.blocks, prefix.solution.blocks, atol=1e-10
        )

    def test_default_mode_propagates_other_marginal_errors(self, monkeypatch):
        # only a signal without closed-form marginals selects flat-start;
        # any other failure of marginal_params is an error to report
        from viterbipar.parallel import default_boundary_mode

        model = _model(n=7)

        def broken(m):
            raise np.linalg.LinAlgError("singular marginal covariance")

        monkeypatch.setattr(model.signal, "marginal_params", broken)
        with pytest.raises(np.linalg.LinAlgError):
            default_boundary_mode(model)


class TestSweep:
    def test_rows_and_monotone_trend(self):
        model = _model(n=47, a=0.8)
        rows, reference, mode = sweep_delta(model, 4, [0, 4, 8, 12], CONFIG, workers=1)
        assert mode == "marginal-prior"
        assert [r.delta for r in rows] == [0, 4, 8, 12]
        errs = [r.rel_error for r in rows]
        assert errs[0] == max(errs)
        assert errs[-1] < errs[0]
        for r in rows:
            assert r.speedup > 0 and r.wall_clock_s >= 0

    def test_deterministic_rows(self):
        model = _model(n=23)
        r1, _, _ = sweep_delta(model, 4, [0, 3], CONFIG, workers=1)
        r2, _, _ = sweep_delta(model, 4, [0, 3], CONFIG, workers=1)
        assert [r.rel_error for r in r1] == [r.rel_error for r in r2]

    def test_unsorted_deltas_rejected(self):
        model = _model(n=23)
        with pytest.raises(ValueError):
            sweep_delta(model, 4, [3, 0], CONFIG)


class TestWorkerEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.delenv("VITERBI_PAR_WORKERS", raising=False)
        assert worker_count_from_env(3) == 3
        monkeypatch.setenv("VITERBI_PAR_WORKERS", "7")
        assert worker_count_from_env(3) == 7
        monkeypatch.setenv("VITERBI_PAR_WORKERS", "junk")
        assert worker_count_from_env(3) == 3
