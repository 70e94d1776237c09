import numpy as np
import pytest

from conftest import candidate_lanes
from lanespace import (
    CandidateSet,
    Lane,
    OracleConfig,
    oracle_scores,
    project,
    relation_from_features,
    stripe_iou,
    uniform_height_grid,
)


def loop_oracle(candidates, gt_lanes, basis, heights, iou_floor):
    """Reference: best IoU, offsets and height bins, one candidate at a time."""
    k = candidates.k
    iou = np.array([[stripe_iou(c, g, 30) for g in gt_lanes] for c in candidate_lanes(candidates)])
    offsets = np.zeros((k, basis.m))
    height_dist = np.zeros((k, heights.size))
    for i in range(k):
        j = int(np.argmax(iou[i]))
        gt = gt_lanes[j]
        if iou[i, j] > iou_floor:
            offsets[i] = project(basis, [gt.xs])[0] - candidates.coefficients[i]
        y_end = gt.grid.y_coords[max(gt.top_index - 1, 0)]
        height_dist[i, int(np.argmin(np.abs(heights - y_end)))] = 1.0
    return iou.max(axis=1), offsets, height_dist


@pytest.fixture(scope="module")
def heights(basis):
    return uniform_height_grid(basis.grid, 25)


class TestOracleScores:
    def test_exact_candidate_scores_one(self, basis, candidates, heights):
        gt = [candidate_lanes(candidates)[4]]
        scores, _ = oracle_scores(candidates, gt, basis, heights)
        assert scores.probabilities[4] == pytest.approx(1.0)
        assert np.allclose(scores.offsets[4], 0.0, atol=1e-9)

    def test_far_candidate_scores_zero(self, basis, candidates, heights, make_vertical):
        # ground truth hugging the left border, far from the central candidates
        gt = [make_vertical(3.0)]
        scores, _ = oracle_scores(candidates, gt, basis, heights)
        far = np.array(
            [lane.xs.min() > 1050.0 for lane in candidate_lanes(candidates)]
        )
        if far.any():
            assert np.all(scores.probabilities[far] == 0.0)

    def test_offsets_point_at_projected_target(self, basis, candidates, heights, train_lanes):
        gt = [train_lanes[0]]
        scores, _ = oracle_scores(candidates, gt, basis, heights)
        target = project(basis, [gt[0].xs])[0]
        strong = scores.probabilities > 0.25
        assert strong.any()
        for i in np.nonzero(strong)[0]:
            assert np.allclose(
                candidates.coefficients[i] + scores.offsets[i], target, atol=1e-9
            )

    def test_height_one_hot_at_gt_top(self, basis, candidates, heights, make_vertical):
        gt_lane = make_vertical(640.0, top_index=30)
        scores, _ = oracle_scores(candidates, [gt_lane], basis, heights)
        y_end = basis.grid.y_coords[29]
        expected_bin = int(np.argmin(np.abs(heights - y_end)))
        assert np.all(np.argmax(scores.height_distributions, axis=1) == expected_bin)
        assert np.allclose(scores.height_distributions.sum(axis=1), 1.0)

    def test_deterministic_with_noise(self, basis, candidates, heights, train_lanes):
        cfg = OracleConfig(noise_sigma=0.05, seed=42)
        gt = [train_lanes[1]]
        a, fa = oracle_scores(candidates, gt, basis, heights, cfg)
        b, fb = oracle_scores(candidates, gt, basis, heights, cfg)
        assert np.array_equal(a.probabilities, b.probabilities)
        assert np.array_equal(fa, fb)

    def test_noise_stays_in_unit_interval(self, basis, candidates, heights, train_lanes):
        cfg = OracleConfig(noise_sigma=0.4, seed=1)
        scores, _ = oracle_scores(candidates, [train_lanes[2]], basis, heights, cfg)
        assert np.all(scores.probabilities >= 0.0)
        assert np.all(scores.probabilities <= 1.0)

    def test_champion_features_separate_from_junk(self, basis, candidates, heights, train_lanes):
        gt = train_lanes[:3]
        scores, features = oracle_scores(candidates, gt, basis, heights)
        active = np.nonzero(features[:, 0] > 0)[0]
        assert 1 <= active.size <= len(gt)
        zero_rows = np.nonzero(np.all(features == 0, axis=1))[0]
        assert zero_rows.size == candidates.k - active.size
        if active.size >= 2:
            relation = relation_from_features(features[np.concatenate([active, zero_rows[:3]])])
            n = active.size
            # champions relate strongly to each other, junk relates to nothing
            for i in range(n):
                for j in range(i + 1, n):
                    assert relation[i, j] > 0.5
            assert np.allclose(relation[n:, :], 0.0)

    def test_matches_per_candidate_loop(self, basis, candidates, heights, train_lanes):
        gt = train_lanes[:3] + [Lane(train_lanes[5].xs, 20, train_lanes[5].grid)]
        scores, _ = oracle_scores(candidates, gt, basis, heights)
        best, offsets, height_dist = loop_oracle(candidates, gt, basis, heights, 0.25)
        assert np.array_equal(scores.probabilities, best)
        assert np.array_equal(scores.offsets, offsets)
        assert np.array_equal(scores.height_distributions, height_dist)

    def test_one_champion_per_ground_truth_lane(self, basis, candidates, heights, train_lanes):
        gt = train_lanes[:4]
        _, features = oracle_scores(candidates, gt, basis, heights)
        active = np.nonzero(features[:, 0] > 0)[0]
        assert active.size <= len(gt)

    def test_empty_ground_truth(self, basis, candidates, heights):
        scores, features = oracle_scores(candidates, [], basis, heights)
        assert np.all(scores.probabilities == 0.0)
        assert np.all(features == 0.0)
        assert np.allclose(scores.height_distributions.sum(axis=1), 1.0)
