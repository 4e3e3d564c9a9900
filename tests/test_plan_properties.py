"""Property tests of segment plans and of stitching: the segments tile the
horizon, each enlarged range is its segment widened by the overlap and
clipped, and solve_parallel keeps each segment's own blocks of its window.
No solver runs here; the stitching test stands a known path in for the
window solves."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from viterbipar import (
    GaussianEmission,
    ModelSpec,
    PathVector,
    SolverConfig,
    SolveReport,
    build_segment_plan,
    solve_parallel,
)

from conftest import lg_signal


@st.composite
def plans(draw):
    """A valid plan: l segments of a common length, any overlap below n + 1."""
    l = draw(st.integers(1, 12))
    n = l * draw(st.integers(1, 40)) - 1
    return build_segment_plan(n, l, draw(st.integers(0, n)))


@settings(max_examples=200, deadline=None)
@given(plans())
def test_segments_tile_the_horizon(plan):
    assert len(plan.segments) == len(plan.enlarged) == plan.num_segments_l
    assert plan.segments[0][0] == 0 and plan.segments[-1][1] == plan.horizon_n + 1
    for (_, hi), (lo, _) in zip(plan.segments, plan.segments[1:]):
        assert hi == lo
    assert all(hi - lo == plan.block_len_Delta for lo, hi in plan.segments)


@settings(max_examples=200, deadline=None)
@given(plans())
def test_enlarged_ranges_contain_their_segments_clipped(plan):
    delta, end = plan.overlap_delta, plan.horizon_n + 1
    for (lo, hi), (elo, ehi) in zip(plan.segments, plan.enlarged):
        assert 0 <= elo <= lo < hi <= ehi <= end
        assert (elo, ehi) == (max(0, lo - delta), min(end, hi + delta))


def _window_slice_of(path):
    """A stand-in for solve_windowed that returns the window's slice of path."""

    def solve(obj, config, init=None):
        a, b = obj.window
        return SolveReport(solution=PathVector(path[a : b + 1]), iterations=0,
                           final_grad_norm=0.0, objective_value=0.0, wall_clock_seconds=0.0,
                           converged=True, grad_evals=1, value_evals=1,
                           stop_reason="tolerance", halvings=0, coasting_steps=0)

    return solve


@settings(max_examples=100, deadline=None)
@given(plans(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_stitching_window_slices_returns_the_path(plan, d, seed):
    path = np.random.default_rng(seed).standard_normal((plan.horizon_n + 1, d))
    model = ModelSpec(lg_signal(d=d), GaussianEmission(np.eye(d), np.eye(d)),
                      observations=np.zeros_like(path))
    with mock.patch("viterbipar.parallel.solve_windowed", _window_slice_of(path)):
        report = solve_parallel(model, plan, SolverConfig(), workers=1, boundary_mode="flat-start")
    assert np.array_equal(report.stitched.blocks, path)
