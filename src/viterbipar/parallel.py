"""Segment-overlap parallelization: solve the windowed subproblems
concurrently, discard the overlaps, concatenate, and compare against the
full solve.

Each segment's job is its ``WindowedObjective``, built in the parent,
and the solver configuration. The objective holds only its window's
slice of the model and the window's start term, so a job's size depends
on the window length, not on the horizon. The stitched result is
deterministic and independent of the worker count: each segment is
solved by the same sequential arithmetic whether it runs inline or in a
worker process, and results are collected by segment index.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import PathVector, SegmentPlan, build_segment_plan
from .errors import ConfigError, DivergenceError, UnsupportedModeError
from .models.spec import ModelSpec
from .objective import WindowedObjective
from .solver import SolveReport, SolverConfig, solve_map, solve_windowed

__all__ = [
    "ParallelSolveReport",
    "default_boundary_mode",
    "solve_parallel",
    "relative_error",
    "sweep_delta",
    "SweepRow",
]


@dataclass
class ParallelSolveReport:
    """Stitched solution plus per-segment diagnostics."""

    stitched: PathVector
    per_segment: list[SolveReport]
    plan: SegmentPlan
    boundary_mode: str
    wall_clock_seconds: float

    def to_dict(self) -> dict:
        return {
            "num_segments": self.plan.num_segments_l,
            "delta": self.plan.overlap_delta,
            "boundary_mode": self.boundary_mode,
            "wall_clock_seconds": self.wall_clock_seconds,
            "per_segment": [r.to_dict() for r in self.per_segment],
        }


def default_boundary_mode(model: ModelSpec) -> str:
    """marginal-prior when the signal has closed-form marginals, else flat-start."""
    try:
        model.signal.marginal_params(0)
    except UnsupportedModeError:
        return "flat-start"
    return "marginal-prior"


def _pool(workers: int, num_segments: int):
    """A process pool for the segment solves of a plan, or a null context
    (which gives None) when they run inline."""
    if workers <= 1 or num_segments == 1:
        return nullcontext()
    return ProcessPoolExecutor(max_workers=min(workers, num_segments))


def _segment_jobs(model: ModelSpec, plan: SegmentPlan, config: SolverConfig, mode: str) -> list:
    """One (objective, configuration) job per enlarged range of the plan."""
    return [(WindowedObjective(model, (lo, hi - 1), mode), config) for lo, hi in plan.enlarged]


def _solve_segments(plan: SegmentPlan, jobs: list, pool) -> tuple[PathVector, list[SolveReport]]:
    """Solve the plan's jobs, in ``pool`` or inline when it is None, and
    stitch the segments from the reports collected by segment index."""
    # calling a result solves its segment here, or waits for the pool's answer
    if pool is None:
        results = [partial(solve_windowed, *job) for job in jobs]
    else:
        results = [pool.submit(solve_windowed, *job).result for job in jobs]
    reports: list[SolveReport] = []
    failures = []
    for k, result in enumerate(results):
        try:
            reports.append(result())
        except DivergenceError as exc:
            failures.append((k, exc))
    if failures:
        names = ", ".join(f"segment {k} ({exc})" for k, exc in failures)
        raise DivergenceError(
            f"{len(failures)} segment solve(s) diverged: {names}",
            segments=[k for k, _ in failures],
        )

    stitched = np.empty((plan.horizon_n + 1, jobs[0][0].dim))
    for k, (seg, enl) in enumerate(zip(plan.segments, plan.enlarged)):
        lo, hi = seg
        off = lo - enl[0]
        stitched[lo:hi] = reports[k].solution.blocks[off : off + (hi - lo)]
    return PathVector(stitched), reports


def solve_parallel(
    model: ModelSpec,
    plan: SegmentPlan,
    config: SolverConfig,
    workers: int = 1,
    boundary_mode: str | None = None,
) -> ParallelSolveReport:
    """Solve every enlarged segment, keep each segment's own blocks, and
    concatenate in order.

    ``workers`` only controls scheduling; the stitched output is
    bit-identical for any worker count.
    """
    if plan.horizon_n != model.horizon:
        raise ValueError(
            f"plan horizon {plan.horizon_n} does not match model horizon {model.horizon}"
        )
    mode = boundary_mode or default_boundary_mode(model)
    t_start = time.perf_counter()
    jobs = _segment_jobs(model, plan, config, mode)
    with _pool(workers, len(jobs)) as pool:
        stitched, reports = _solve_segments(plan, jobs, pool)
    return ParallelSolveReport(
        stitched=stitched,
        per_segment=reports,
        plan=plan,
        boundary_mode=mode,
        wall_clock_seconds=time.perf_counter() - t_start,
    )


def relative_error(candidate: PathVector, reference: PathVector) -> float:
    """Root total squared block error over the root total squared reference."""
    c = candidate.blocks
    r = reference.blocks
    if c.shape != r.shape:
        raise ValueError(f"shapes differ: {c.shape} vs {r.shape}")
    denom = float(np.sqrt(np.sum(r * r)))
    if denom == 0.0:
        raise ZeroDivisionError("reference path is identically zero")
    return float(np.sqrt(np.sum((c - r) ** 2))) / denom


@dataclass
class SweepRow:
    delta: int
    rel_error: float
    wall_clock_s: float
    speedup: float


def sweep_delta(
    model: ModelSpec,
    num_segments_l: int,
    deltas: list[int],
    config: SolverConfig,
    workers: int = 1,
) -> tuple[list[SweepRow], SolveReport, str]:
    """Overlap sweep: one row per delta, errors against the full solve.

    The reference is the single-segment, zero-overlap solve under the
    identical solver configuration; speedup is its wall clock over each
    parallel wall clock. One process pool serves every delta, so the
    first row's wall clock includes the pool's start-up. The segment
    solves use :func:`default_boundary_mode`. Returns (rows, reference
    report, boundary mode). Invalid deltas or plans raise before the
    reference solve. A zero-path reference, as all-zero observations of a
    zero-mean chain give, leaves every relative error undefined and raises
    ConfigError before any segment solve.
    """
    if not deltas or sorted(deltas) != list(deltas) or any(d < 0 for d in deltas):
        raise ConfigError("deltas must be a nonempty ascending list of nonnegative overlaps")
    mode = default_boundary_mode(model)
    # every window is built before the reference solve and the pool start
    runs = []
    for delta in deltas:
        t_start = time.perf_counter()
        plan = build_segment_plan(model.horizon, num_segments_l, delta)
        runs.append((delta, plan, _segment_jobs(model, plan, config, mode),
                     time.perf_counter() - t_start))
    reference = solve_map(model, config)
    if not np.any(reference.solution.blocks):
        raise ConfigError(
            "the full solve is the zero path (all-zero observations?); "
            "errors relative to it are undefined"
        )
    rows = []
    with _pool(workers, num_segments_l) as pool:
        for delta, plan, jobs, build_s in runs:
            t_start = time.perf_counter()
            stitched, _ = _solve_segments(plan, jobs, pool)
            wall = build_s + time.perf_counter() - t_start
            rows.append(
                SweepRow(
                    delta=int(delta),
                    rel_error=relative_error(stitched, reference.solution),
                    wall_clock_s=wall,
                    speedup=reference.wall_clock_seconds / max(wall, 1e-12),
                )
            )
    return rows, reference, mode
