"""Path vectors, discount weights and segment plans.

A path is the finite block vector (x_0, ..., x_n), each block in R^d.
All norms treat blocks beyond the stored horizon as zero, so a stored
path stands for the infinite sequence obtained by zero padding.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PlanError, ShapeError

__all__ = [
    "PathVector",
    "GammaWeight",
    "SegmentPlan",
    "gamma_weights",
    "build_segment_plan",
]


@dataclass(frozen=True, eq=False)
class PathVector:
    """A candidate or estimated hidden trajectory.

    Wraps an (n+1, d) float array; block m is ``blocks[m]``. The array is
    treated as immutable once wrapped.
    """

    blocks: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.blocks, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"path must be (n+1, d) with n >= 0, d >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ShapeError("path contains non-finite entries")
        object.__setattr__(self, "blocks", arr)


@dataclass(frozen=True)
class GammaWeight:
    """Discount factor gamma in (0, 1] for the weighted inner product."""

    gamma: float = 1.0

    def __post_init__(self):
        g = float(self.gamma)
        if not (0.0 < g <= 1.0):
            raise ConfigError(f"gamma must lie in (0, 1], got {g}")
        object.__setattr__(self, "gamma", g)


def gamma_weights(n_blocks: int, gamma: float) -> np.ndarray:
    """Weights (1, gamma, gamma^2, ...) of length ``n_blocks``.

    Built by a running product rather than pow-per-term.
    """
    if gamma == 1.0:
        return np.ones(n_blocks)
    w = np.empty(n_blocks)
    w[0] = 1.0
    if n_blocks > 1:
        np.cumprod(np.full(n_blocks - 1, gamma), out=w[1:])
    return w


@dataclass(frozen=True)
class SegmentPlan:
    """The partition A_1, ..., A_l of {0..n} plus the overlap enlargements.

    ``segments[k]`` and ``enlarged[k]`` are half-open index ranges
    (start, stop). Enlarged ranges widen each segment by ``overlap_delta``
    on both sides and clip to {0..n}.
    """

    horizon_n: int
    num_segments_l: int
    block_len_Delta: int
    overlap_delta: int
    segments: tuple
    enlarged: tuple


def build_segment_plan(horizon_n: int, num_segments_l: int, overlap_delta: int) -> SegmentPlan:
    """Partition {0..n} into l equal blocks and attach delta-enlargements.

    The three arguments are integers (numpy integers too, bools not).
    Requires (n+1) divisible by l; the block length is Delta = (n+1)/l and
    segment k covers {(k-1)Delta, ..., k Delta - 1}.
    """
    for name, value in (("horizon_n", horizon_n), ("num_segments_l", num_segments_l),
                        ("overlap_delta", overlap_delta)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise PlanError(f"{name} must be an integer, got {value!r}")
    n, l, delta = int(horizon_n), int(num_segments_l), int(overlap_delta)
    if n < 0 or l < 1:
        raise PlanError(f"need horizon >= 0 and at least one segment, got n={n}, l={l}")
    if delta < 0:
        raise PlanError(f"overlap must be nonnegative, got {delta}")
    if (n + 1) % l != 0:
        raise PlanError(f"horizon+1 = {n + 1} is not divisible by l = {l}")
    if delta >= n + 1:
        raise PlanError(f"overlap {delta} must be smaller than the path length {n + 1}")
    big_delta = (n + 1) // l
    segments = []
    enlarged = []
    for k in range(l):
        lo, hi = k * big_delta, (k + 1) * big_delta
        segments.append((lo, hi))
        enlarged.append((max(0, lo - delta), min(n + 1, hi + delta)))
    return SegmentPlan(
        horizon_n=n,
        num_segments_l=l,
        block_len_Delta=big_delta,
        overlap_delta=delta,
        segments=tuple(segments),
        enlarged=tuple(enlarged),
    )
