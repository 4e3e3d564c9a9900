"""Segment-overlap parallelization: solve the windowed subproblems
concurrently, discard the overlaps, concatenate, and compare against the
full solve.

``solve_parallel`` is the one segment-solve path; ``sweep_delta`` calls
it once per overlap. Each segment's job is its ``WindowedObjective``,
built in the parent, and the solver configuration. The objective holds
only its window's slice of the model and the window's start term, so a
job's size depends on the window length, not on the horizon. The
stitched result is deterministic and independent of the worker count:
each segment is solved by the same sequential arithmetic whether it runs
inline or in a worker process, and results are collected by segment
index.

Pooled solves share one process-wide pool of worker processes. The first
pooled call starts it, and later calls of the same pool size submit to
it directly. Idle workers stay alive, holding their memory, until the
interpreter exits (``concurrent.futures`` joins them then) or a call
needs another pool size.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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
    # whether this call started the worker pool, so its wall clock includes
    # the pool's start-up; False for inline runs and for calls that reused it
    started_pool: bool

    def to_dict(self) -> dict:
        return {
            "num_segments": self.plan.num_segments_l,
            "delta": self.plan.overlap_delta,
            "boundary_mode": self.boundary_mode,
            "wall_clock_seconds": self.wall_clock_seconds,
            "started_pool": self.started_pool,
            "per_segment": [r.to_dict() for r in self.per_segment],
        }


def default_boundary_mode(model: ModelSpec) -> str:
    """marginal-prior when the signal has closed-form marginals, else flat-start."""
    try:
        model.signal.marginal_params(0)
    except UnsupportedModeError:
        return "flat-start"
    return "marginal-prior"


# The process-wide pool: (pid, size, executor) of the pool that pooled
# segment solves share, or None before the first one. The pid keeps a
# forked child from using its parent's pool.
_pool_slot = None
_pool_lock = threading.Lock()


def _submit(jobs: list, size: int) -> tuple[ProcessPoolExecutor, list, bool]:
    """Submit the jobs to the process-wide pool of ``size`` workers and
    return (pool, futures, whether this call started the pool).

    A pool of another size, a broken one or one this process inherited is
    replaced. A replaced pool of this process is shut down first, which
    lets work already submitted to it finish and joins its threads before
    the new pool forks its workers."""
    global _pool_slot
    with _pool_lock:
        slot = _pool_slot
        started = (slot is None or slot[:2] != (os.getpid(), size)
                   or getattr(slot[2], "_broken", False))
        if started:
            if slot is not None and slot[0] == os.getpid():
                slot[2].shutdown(wait=True)
            _pool_slot = slot = (os.getpid(), size, ProcessPoolExecutor(max_workers=size))
        pool = slot[2]
        return pool, [pool.submit(solve_windowed, *job) for job in jobs], started


def _release_pool(pool=None) -> None:
    """Empty the pool slot, if it holds ``pool`` (any pool when None), and
    shut the pool down if this process started it."""
    global _pool_slot
    with _pool_lock:
        slot = _pool_slot
        if slot is None or (pool is not None and slot[2] is not pool):
            return
        _pool_slot = None
        if slot[0] == os.getpid():
            slot[2].shutdown(wait=True)


def solve_parallel(
    model: ModelSpec,
    plan: SegmentPlan,
    config: SolverConfig,
    workers: int = 1,
    boundary_mode: str | None = None,
) -> ParallelSolveReport:
    """Solve every enlarged segment, keep each segment's own blocks, and
    concatenate in order.

    Every window is built before any segment is solved, so a window that
    cannot be built fails before the pool starts. The segments run on the
    process-wide pool, or inline when one worker would do, and their
    reports are collected by segment index; any that diverged are named
    together in one DivergenceError. ``workers`` only controls scheduling;
    the stitched output is bit-identical for any worker count.
    """
    if plan.horizon_n != model.horizon:
        raise ValueError(
            f"plan horizon {plan.horizon_n} does not match model horizon {model.horizon}"
        )
    mode = boundary_mode or default_boundary_mode(model)
    t_start = time.perf_counter()
    jobs = [(WindowedObjective(model, (lo, hi - 1), mode), config) for lo, hi in plan.enlarged]
    size = min(workers, len(jobs))
    pool, futures, started = None, [], False
    try:
        # calling a result solves its segment here, or waits for the pool's answer
        if size > 1:
            pool, futures, started = _submit(jobs, size)
            results = [future.result for future in futures]
        else:
            results = [partial(solve_windowed, *job) for job in jobs]
        reports: list[SolveReport] = []
        failures = []
        for k, result in enumerate(results):
            try:
                reports.append(result())
            except DivergenceError as exc:
                failures.append((k, exc))
    except BrokenProcessPool:
        _release_pool(pool)  # the next pooled call starts a fresh pool
        raise
    except BaseException:
        for future in futures:
            future.cancel()  # segments not yet started are dropped
        raise
    if failures:
        names = ", ".join(f"segment {k} ({exc})" for k, exc in failures)
        raise DivergenceError(
            f"{len(failures)} segment solve(s) diverged: {names}",
            segments=[k for k, _ in failures],
        )

    stitched = np.empty((plan.horizon_n + 1, model.dim))
    for report, (lo, hi), (a, _) in zip(reports, plan.segments, plan.enlarged):
        stitched[lo:hi] = report.solution.blocks[lo - a : hi - a]
    return ParallelSolveReport(
        stitched=PathVector(stitched),
        per_segment=reports,
        plan=plan,
        boundary_mode=mode,
        wall_clock_seconds=time.perf_counter() - t_start,
        started_pool=started,
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
    identical solver configuration. Each row is one :func:`solve_parallel`
    call under :func:`default_boundary_mode`, and its speedup is the
    reference's wall clock over that call's. The process-wide pool serves
    every delta, so the first row's wall clock includes the pool's
    start-up only if no earlier call in this process started a pool of the
    same size. Returns (rows, reference report, boundary mode).

    Invalid deltas or plans raise before the reference solve; a window
    that cannot be built raises after it, from its delta's
    :func:`solve_parallel` call. A zero-path reference, as all-zero
    observations of a zero-mean chain give, leaves every relative error
    undefined and raises ConfigError before any segment solve.
    """
    if not deltas or sorted(deltas) != list(deltas) or any(d < 0 for d in deltas):
        raise ConfigError("deltas must be a nonempty ascending list of nonnegative overlaps")
    mode = default_boundary_mode(model)
    plans = [build_segment_plan(model.horizon, num_segments_l, delta) for delta in deltas]
    reference = solve_map(model, config)
    if not np.any(reference.solution.blocks):
        raise ConfigError(
            "the full solve is the zero path (all-zero observations?); "
            "errors relative to it are undefined"
        )
    rows = []
    for delta, plan in zip(deltas, plans):
        run = solve_parallel(model, plan, config, workers, mode)
        rows.append(
            SweepRow(
                delta=int(delta),
                rel_error=relative_error(run.stitched, reference.solution),
                wall_clock_s=run.wall_clock_seconds,
                speedup=reference.wall_clock_seconds / max(run.wall_clock_seconds, 1e-12),
            )
        )
    return rows, reference, mode
