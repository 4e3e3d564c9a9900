"""Segment-overlap parallelization: solve the windowed subproblems
concurrently, discard the overlaps, concatenate, and compare against the
full solve.

The stitched result is deterministic and independent of the worker
count: each segment is solved by the same sequential arithmetic whether
it runs inline or in a worker process, and results are collected by
segment index.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import PathVector, SegmentPlan, build_segment_plan
from .errors import DivergenceError, UnsupportedModeError
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


def default_boundary_mode(model: ModelSpec) -> str:
    """marginal-prior when the signal has closed-form marginals, else flat-start."""
    try:
        model.signal.marginal_params(0)
    except UnsupportedModeError:
        return "flat-start"
    return "marginal-prior"


def _solve_one_segment(args):
    model, window, mode, config = args
    obj = WindowedObjective(model, window, boundary_mode=mode)
    return solve_windowed(obj, config)


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
    tasks = [(model, (lo, hi - 1), mode, config) for (lo, hi) in plan.enlarged]

    failures = []
    reports: list[SolveReport | None] = [None] * len(tasks)
    if workers <= 1 or len(tasks) == 1:
        for k, task in enumerate(tasks):
            try:
                reports[k] = _solve_one_segment(task)
            except DivergenceError as exc:
                failures.append((k, exc))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [pool.submit(_solve_one_segment, task) for task in tasks]
            for k, fut in enumerate(futures):
                try:
                    reports[k] = fut.result()
                except DivergenceError as exc:
                    failures.append((k, exc))
    if failures:
        names = ", ".join(f"segment {k} ({exc})" for k, exc in failures)
        raise DivergenceError(
            f"{len(failures)} segment solve(s) diverged: {names}",
            segments=[k for k, _ in failures],
        )

    stitched = np.empty((plan.horizon_n + 1, model.dim))
    for k, (seg, enl) in enumerate(zip(plan.segments, plan.enlarged)):
        lo, hi = seg
        off = lo - enl[0]
        stitched[lo:hi] = reports[k].solution.blocks[off : off + (hi - lo)]
    return ParallelSolveReport(
        stitched=PathVector(stitched),
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
    boundary_mode: str | None = None,
) -> tuple[list[SweepRow], SolveReport, str]:
    """Overlap sweep: one row per delta, errors against the full solve.

    The reference is the single-segment, zero-overlap solve under the
    identical solver configuration; speedup is its wall clock over each
    parallel wall clock. Returns (rows, reference report, boundary mode
    used by the segment solves). A reference that is the zero path, as
    all-zero observations of a zero-mean chain give, leaves every
    relative error undefined and raises ValueError before any segment
    solve.
    """
    if sorted(deltas) != list(deltas) or any(d < 0 for d in deltas):
        raise ValueError("deltas must be nonnegative and sorted ascending")
    reference = solve_map(model, config)
    if not np.any(reference.solution.blocks):
        raise ValueError(
            "the full solve is the zero path (all-zero observations?); "
            "errors relative to it are undefined"
        )
    mode = boundary_mode or default_boundary_mode(model)
    rows = []
    for delta in deltas:
        plan = build_segment_plan(model.horizon, num_segments_l, delta)
        report = solve_parallel(model, plan, config, workers=workers, boundary_mode=mode)
        rows.append(
            SweepRow(
                delta=int(delta),
                rel_error=relative_error(report.stitched, reference.solution),
                wall_clock_s=report.wall_clock_seconds,
                speedup=reference.wall_clock_seconds / max(report.wall_clock_seconds, 1e-12),
            )
        )
    return rows, reference, mode


def worker_count_from_env(default: int = 1) -> int:
    """Default worker count, overridable through VITERBI_PAR_WORKERS."""
    raw = os.environ.get("VITERBI_PAR_WORKERS")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return max(1, value)
