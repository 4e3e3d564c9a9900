"""Segment-overlap parallel solves: stitching, determinism, error decay."""

import os
import pickle
import sys
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from viterbipar import (
    GaussianEmission,
    LinearGaussianSignal,
    ModelSpec,
    PathVector,
    SolverConfig,
    build_segment_plan,
    relative_error,
    solve_map,
    solve_parallel,
    sweep_delta,
)
from viterbipar import parallel
from viterbipar.errors import DivergenceError, UnsupportedModeError

from conftest import exit_at_once, gaussian_model, gaussian_model_with_obs, huber_signal, neural_model, student_model


def _model(n=47, a=0.7, seed=21):
    ys = np.random.default_rng(seed).standard_normal(n + 1)
    return gaussian_model_with_obs(ys, a=a, stationary=True)


CONFIG = SolverConfig(grad_tol=1e-12, max_iters=20000)


@pytest.fixture
def empty_pool_slot():
    """Empty the process-wide pool slot before and after the test, so that
    the test's first pooled solve builds its pool and no pool of the test
    outlives it."""
    parallel._release_pool()
    yield
    parallel._release_pool()


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

    @pytest.mark.parametrize("mode", ["marginal-prior", "flat-start", "full-prior"])
    def test_conjugate_windows_pooled_and_inline_byte_equal(self, mode):
        # each window builds its gradient stencil in the process that
        # solves it, from a job pickled before any gradient call
        rng = np.random.default_rng(8)
        d, n = 3, 35
        B = rng.standard_normal((d, d))
        sig = LinearGaussianSignal(0.4 * rng.standard_normal((d, d)), rng.standard_normal(d),
                                   B @ B.T / d + np.eye(d), rng.standard_normal(d), np.eye(d))
        lik = GaussianEmission(rng.standard_normal((2, d)), np.diag([0.5, 2.0]))
        model = ModelSpec(sig, lik, observations=rng.standard_normal((n + 1, 2)))
        plan = build_segment_plan(n, 4, 3)
        inline = solve_parallel(model, plan, CONFIG, workers=1, boundary_mode=mode)
        pooled = solve_parallel(model, plan, CONFIG, workers=2, boundary_mode=mode)
        assert all(r.converged for r in inline.per_segment)
        assert np.array_equal(inline.stitched.blocks, pooled.stitched.blocks)
        assert ([r.to_dict() | {"wall_clock_seconds": 0} for r in inline.per_segment]
                == [r.to_dict() | {"wall_clock_seconds": 0} for r in pooled.per_segment])

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

        named = []
        for workers in (1, 2):  # inline, then collected from the pool
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DivergenceError) as err:
                    solve_parallel(model, plan, bad, workers=workers)
            assert err.value.segments  # at least one segment named
            named.append(err.value.segments)
        assert named[0] == named[1]


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

    @pytest.mark.usefixtures("empty_pool_slot")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_flat_start_rows_are_parallel_solves(self, workers):
        # each row is solve_parallel's stitched path at its delta, on a
        # signal without closed-form marginals
        model = gaussian_model(n=23, d=2, seed=6, signal=huber_signal(d=2, scale=0.2))
        rows, reference, mode = sweep_delta(model, 4, [0, 2, 5], CONFIG, workers=workers)
        assert mode == "flat-start"
        assert [r.delta for r in rows] == [0, 2, 5]
        for row in rows:
            run = solve_parallel(model, build_segment_plan(23, 4, row.delta), CONFIG, workers=workers)
            assert run.boundary_mode == "flat-start"
            assert row.rel_error == relative_error(run.stitched, reference.solution)
        assert rows[-1].rel_error < rows[0].rel_error

    def test_unsorted_deltas_rejected(self):
        model = _model(n=23)
        with pytest.raises(ValueError):
            sweep_delta(model, 4, [3, 0], CONFIG)


def _pickling_executor(sizes):
    """A stand-in for the process pool that pickles each submitted job, as
    the pool would, records its size, and solves the unpickled copy here."""

    class PicklingExecutor:
        def __init__(self, max_workers=None):
            pass

        def shutdown(self, wait=True):
            pass

        def submit(self, fn, *job):
            blob = pickle.dumps(job)
            sizes.append(len(blob))
            future = Future()
            future.set_result(fn(*pickle.loads(blob)))
            return future

    return PicklingExecutor


@pytest.mark.usefixtures("empty_pool_slot")
class TestSegmentJobs:
    @pytest.mark.parametrize("build", [
        lambda n: _model(n=n),
        lambda n: neural_model(N=3, R=2, n=n, seed=5),
    ], ids=["gaussian", "spikes"])
    def test_job_size_follows_the_window_not_the_horizon(self, monkeypatch, build):
        # segments of 6 indices with overlap 2 on a horizon n and on 4n
        config = SolverConfig(grad_tol=1e-8, max_iters=2000)
        sizes = {}
        for n, num_segments in ((23, 4), (95, 16)):
            model = build(n)
            plan = build_segment_plan(n, num_segments, 2)
            sizes[n] = []
            monkeypatch.setattr("viterbipar.parallel.ProcessPoolExecutor",
                                _pickling_executor(sizes[n]))
            parallel._release_pool()  # the next pooled solve builds the stand-in
            shipped = solve_parallel(model, plan, config, workers=2)
            assert len(sizes[n]) == num_segments
            inline = solve_parallel(model, plan, config, workers=1)
            assert np.array_equal(shipped.stitched.blocks, inline.stitched.blocks)
        assert set(sizes[23]) == set(sizes[95])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_opens_one_pool(self, monkeypatch, workers):
        built = []

        class CountingExecutor(_pickling_executor([])):
            def __init__(self, max_workers=None):
                built.append(max_workers)

        monkeypatch.setattr("viterbipar.parallel.ProcessPoolExecutor", CountingExecutor)
        model = _model(n=47)
        rows, _, _ = sweep_delta(model, 4, [0, 2, 4], CONFIG, workers=workers)
        assert built == ([2] if workers == 2 else [])
        for row, delta in zip(rows, [0, 2, 4]):
            plan = build_segment_plan(47, 4, delta)
            inline = solve_parallel(model, plan, CONFIG, workers=1)
            assert row.rel_error == relative_error(inline.stitched, solve_map(model, CONFIG).solution)

    def test_unbuildable_window_fails_before_the_pool_starts(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("the pool started before every window was built")

        monkeypatch.setattr("viterbipar.parallel.ProcessPoolExecutor", no_pool)
        model = student_model(n=23, d=2, signal=huber_signal(d=2, scale=0.2))
        with pytest.raises(UnsupportedModeError):
            solve_parallel(model, build_segment_plan(23, 4, 2), CONFIG, workers=2,
                           boundary_mode="marginal-prior")


@pytest.mark.usefixtures("empty_pool_slot")
class TestSharedPool:
    @pytest.fixture
    def built(self, monkeypatch):
        """The sizes of the real process pools built during the test."""
        sizes = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr("viterbipar.parallel.ProcessPoolExecutor", CountingPool)
        return sizes

    def test_consecutive_calls_share_one_pool(self, built):
        model = _model(n=23)
        plan = build_segment_plan(23, 4, 4)
        first = solve_parallel(model, plan, CONFIG, workers=2)
        second = solve_parallel(model, plan, CONFIG, workers=2)
        inline = solve_parallel(model, plan, CONFIG, workers=1)
        assert built == [2]
        assert (first.started_pool, second.started_pool, inline.started_pool) == (True, False, False)
        assert first.stitched.blocks.tobytes() == second.stitched.blocks.tobytes()
        assert first.stitched.blocks.tobytes() == inline.stitched.blocks.tobytes()

    def test_another_size_replaces_the_pool(self, built):
        model = _model(n=23)
        plan = build_segment_plan(23, 4, 4)
        solve_parallel(model, plan, CONFIG, workers=2)
        old = parallel._pool_slot[2]
        report = solve_parallel(model, plan, CONFIG, workers=4)
        assert built == [2, 4] and report.started_pool
        assert parallel._pool_slot[2] is not old
        with pytest.raises(RuntimeError, match="shutdown"):
            old.submit(abs, -1)  # the replaced pool was shut down

    def test_dead_worker_leaves_a_fresh_pool_for_the_next_call(self, built, monkeypatch):
        model = _model(n=23)
        plan = build_segment_plan(23, 4, 4)
        with monkeypatch.context() as m:
            m.setattr("viterbipar.parallel.solve_windowed", exit_at_once)
            with pytest.raises(BrokenProcessPool):
                solve_parallel(model, plan, CONFIG, workers=2)
        assert parallel._pool_slot is None
        report = solve_parallel(model, plan, CONFIG, workers=2)
        assert built == [2, 2] and report.started_pool
        inline = solve_parallel(model, plan, CONFIG, workers=1)
        assert np.array_equal(report.stitched.blocks, inline.stitched.blocks)

    def test_pool_of_another_process_is_not_reused(self, built):
        class ParentPool:
            def submit(self, *args):
                raise AssertionError("submitted to a pool of another process")

            def shutdown(self, wait=True):
                raise AssertionError("shut down a pool of another process")

        parallel._pool_slot = (os.getpid() + 1, 2, ParentPool())
        model = _model(n=23)
        report = solve_parallel(model, build_segment_plan(23, 4, 4), CONFIG, workers=2)
        assert built == [2] and report.started_pool
        assert parallel._pool_slot[0] == os.getpid()

    def test_threads_switching_sizes_share_the_slot(self):
        # calls of two sizes from two threads: a pool replaced between
        # another call's lookup and its submit would raise there
        model = _model(n=23)
        plan = build_segment_plan(23, 4, 4)
        want = solve_parallel(model, plan, CONFIG, workers=1).stitched.blocks.tobytes()

        def calls(sizes):
            return [solve_parallel(model, plan, CONFIG, workers=w).stitched.blocks.tobytes()
                    for w in sizes]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as threads:
                futures = [threads.submit(calls, sizes) for sizes in ([2, 3, 2], [3, 2, 3])]
                got = [blob for future in futures for blob in future.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 6
