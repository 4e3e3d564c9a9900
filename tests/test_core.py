"""Path arithmetic, discounted norms and segment plans."""

import math

import numpy as np
import pytest

from viterbipar import (
    GammaWeight,
    PathVector,
    build_segment_plan,
)
from viterbipar.errors import PlanError, ShapeError

from conftest import gamma_inner, gamma_norm, weighted_norm_at


def pv(*rows):
    return PathVector(np.asarray(rows, dtype=float))


class TestGammaInner:
    def test_two_term_sum(self):
        x = pv([1.0], [1.0])
        assert gamma_inner(x, x, GammaWeight(0.5)) == pytest.approx(1.5, abs=1e-15)

    def test_zero_vector(self):
        x = pv([2.0], [-3.0], [0.5])
        z = PathVector(np.zeros((3, 1)))
        assert gamma_inner(x, z, GammaWeight(0.7)) == 0.0

    def test_hand_evaluated_block_sum(self):
        # d=2, x=y=((1,0),(0,2)), gamma=0.25 -> 1 + 0.25*4 = 2.0
        x = pv([1.0, 0.0], [0.0, 2.0])
        assert gamma_inner(x, x, GammaWeight(0.25)) == pytest.approx(2.0, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gamma_inner(pv([1.0]), pv([1.0], [2.0]), GammaWeight(0.5))

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(3)
        w = GammaWeight(0.6)
        for _ in range(50):
            x = PathVector(rng.standard_normal((5, 3)))
            y = PathVector(rng.standard_normal((5, 3)))
            z = PathVector(rng.standard_normal((5, 3)))
            a, b = rng.standard_normal(2)
            assert gamma_inner(x, y, w) == pytest.approx(gamma_inner(y, x, w), rel=1e-12)
            lhs = gamma_inner(PathVector(a * x.blocks + b * y.blocks), z, w)
            rhs = a * gamma_inner(x, z, w) + b * gamma_inner(y, z, w)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(4)
        w = GammaWeight(0.35)
        for _ in range(100):
            x = PathVector(rng.standard_normal((7, 2)))
            y = PathVector(rng.standard_normal((7, 2)))
            x_plus_y = PathVector(x.blocks + y.blocks)
            assert gamma_norm(x_plus_y, w) <= gamma_norm(x, w) + gamma_norm(y, w) + 1e-12

    def test_gamma_one_is_euclidean(self):
        rng = np.random.default_rng(5)
        arr = rng.standard_normal((6, 4))
        assert gamma_norm(PathVector(arr), GammaWeight(1.0)) == pytest.approx(
            np.linalg.norm(arr), rel=1e-14
        )


class TestWeightedNormAt:
    def test_hand_evaluated(self):
        x = pv([1.0], [1.0])
        assert weighted_norm_at(x, 1, GammaWeight(0.5)) == pytest.approx(
            math.sqrt(1.5), rel=1e-14
        )

    def test_center_zero_matches_gamma_norm(self):
        rng = np.random.default_rng(6)
        x = PathVector(rng.standard_normal((8, 3)))
        w = GammaWeight(0.8)
        assert weighted_norm_at(x, 0, w) == pytest.approx(gamma_norm(x, w), rel=1e-14)

    def test_zero_path(self):
        assert weighted_norm_at(PathVector(np.zeros((6, 2))), 3, GammaWeight(0.5)) == 0.0

    def test_negative_center_rejected(self):
        with pytest.raises(ValueError):
            weighted_norm_at(pv([1.0]), -1, GammaWeight(0.5))


class TestPathVector:
    def test_non_finite_rejected(self):
        with pytest.raises(ShapeError):
            PathVector(np.array([[1.0], [np.nan]]))

    def test_gamma_weight_bounds(self):
        with pytest.raises(ValueError):
            GammaWeight(0.0)
        with pytest.raises(ValueError):
            GammaWeight(1.5)


class TestSegmentPlan:
    def test_hand_example(self):
        plan = build_segment_plan(11, 3, 2)
        assert plan.block_len_Delta == 4
        assert plan.segments[1] == (4, 8)        # A_2 = {4..7}
        assert plan.enlarged[1] == (2, 10)       # A_2(2) = {2..9}

    def test_zero_overlap_is_identity(self):
        plan = build_segment_plan(11, 3, 0)
        assert plan.segments == plan.enlarged

    def test_full_cover_clipping(self):
        plan = build_segment_plan(11, 1, 5)
        assert plan.enlarged[0] == (0, 12)

    def test_non_divisible_rejected(self):
        with pytest.raises(PlanError):
            build_segment_plan(10, 3, 0)

    def test_oversized_overlap_rejected(self):
        with pytest.raises(PlanError):
            build_segment_plan(11, 3, 12)

    @pytest.mark.parametrize("name, args", [
        ("overlap_delta", (23, 4, 2.5)), ("overlap_delta", (23, 4, 2.0)), ("overlap_delta", (23, 4, True)),
        ("num_segments_l", (23, 4.0, 2)), ("num_segments_l", (23, True, 2)),
        ("horizon_n", (23.0, 4, 2)), ("horizon_n", (False, 1, 0)), ("overlap_delta", (23, 4, "2")),
    ])
    def test_non_integer_arguments_rejected(self, name, args):
        # int() would truncate an overlap of 2.5 to 2, and a bool is taken as 0 or 1
        with pytest.raises(PlanError, match=f"^{name} must be an integer, got "):
            build_segment_plan(*args)

    def test_numpy_integers_accepted(self):
        plan = build_segment_plan(np.int64(23), np.int32(4), np.uint8(2))
        assert plan == build_segment_plan(23, 4, 2)
        assert type(plan.overlap_delta) is int

    def test_partition_properties_exhaustive(self):
        # disjoint cover of {0..n} and |A_k(d) \ A_k| <= 2 delta,
        # for every n <= 64, every l dividing n+1, every delta <= n
        for n in range(0, 65):
            divisors = [l for l in range(1, n + 2) if (n + 1) % l == 0]
            for l in divisors:
                for delta in range(0, n + 1):
                    plan = build_segment_plan(n, l, delta)
                    covered = []
                    for (lo, hi), (elo, ehi) in zip(plan.segments, plan.enlarged):
                        covered.extend(range(lo, hi))
                        assert elo <= lo and hi <= ehi
                        assert (ehi - elo) - (hi - lo) <= 2 * delta
                        assert 0 <= elo and ehi <= n + 1
                    assert covered == list(range(n + 1))
