import itertools

import numpy as np
import pytest

from lanespace import (
    GridMismatch,
    Lane,
    SamplingGrid,
    f_measure,
    match_lanes,
    resample_polyline,
    stripe_iou,
    tusimple_score,
)


def enumerate_greedy_matching(iou, threshold):
    """Re-run the documented greedy rule with plain loops."""
    n_pred, n_gt = iou.shape
    order = sorted(
        (
            (iou[i, j], i, j)
            for i in range(n_pred)
            for j in range(n_gt)
            if iou[i, j] > threshold
        ),
        key=lambda t: (-t[0], t[1], t[2]),
    )
    used_p, used_g, pairs = set(), set(), []
    for _, i, j in order:
        if i not in used_p and j not in used_g:
            used_p.add(i)
            used_g.add(j)
            pairs.append((i, j))
    return pairs


def best_injective_match_count(iou, threshold):
    """Maximum number of matched pairs over all injective assignments."""
    n_pred, n_gt = iou.shape
    best = 0
    preds = range(n_pred)
    for size in range(min(n_pred, n_gt), 0, -1):
        for chosen_preds in itertools.combinations(preds, size):
            for chosen_gts in itertools.permutations(range(n_gt), size):
                count = sum(
                    1
                    for p, g in zip(chosen_preds, chosen_gts)
                    if iou[p, g] > threshold
                )
                best = max(best, count)
        if best == size:
            break
    return best


class TestMatchLanes:
    def test_perfect_predictions(self, grid, make_vertical):
        gt = [make_vertical(x) for x in (200.0, 500.0, 800.0)]
        result = match_lanes(gt, gt, 0.5, 30)
        assert (result.tp, result.fp, result.fn) == (3, 0, 0)

    def test_empty_predictions(self, make_vertical):
        gt = [make_vertical(x) for x in (200.0, 500.0, 800.0)]
        result = match_lanes([], gt, 0.5, 30)
        assert (result.tp, result.fp, result.fn) == (0, 0, 3)

    def test_empty_ground_truth(self, make_vertical):
        preds = [make_vertical(300.0)]
        result = match_lanes(preds, [], 0.5, 30)
        assert (result.tp, result.fp, result.fn) == (0, 1, 0)

    def test_threshold_is_strict(self, grid, make_vertical):
        a = make_vertical(100.0)
        b = make_vertical(110.0)
        iou = stripe_iou(a, b, 30)
        result = match_lanes([b], [a], iou, 30)  # equal is not enough
        assert result.tp == 0

    def test_matches_enumerated_greedy_oracle(self, grid):
        rng = np.random.default_rng(6)
        rise = grid.y_coords[0] - grid.y_coords
        gts = [
            Lane(x + 0.1 * rise, grid.n_samples, grid)
            for x in (250.0, 430.0, 610.0)
        ]
        preds = [
            Lane(gts[j % 3].xs + rng.uniform(-18, 18), grid.n_samples, grid)
            for j in range(4)
        ]
        iou = np.array([[stripe_iou(p, g, 30) for g in gts] for p in preds])
        expected_pairs = enumerate_greedy_matching(iou, 0.3)
        result = match_lanes(preds, gts, 0.3, 30)
        assert [(i, j) for i, j, _ in result.pairs] == expected_pairs
        # surfacing greedy-vs-optimal divergence
        optimal = best_injective_match_count(iou, 0.3)
        assert result.greedy_equals_optimal == (len(expected_pairs) == optimal)

    def test_ious_equal_pairwise_stripe_iou(self, grid, train_lanes):
        rng = np.random.default_rng(12)
        gts = train_lanes[:4]
        preds = [
            Lane(gts[j % 4].xs + rng.uniform(-20, 20), int(rng.integers(5, 51)), grid)
            for j in range(6)
        ] + train_lanes[4:6]
        iou = np.array([[stripe_iou(p, g, 30) for g in gts] for p in preds])
        result = match_lanes(preds, gts, 0.3, 30)
        assert result.pairs
        assert all(value == iou[i, j] for i, j, value in result.pairs)
        assert result.pred_best_iou == tuple(iou.max(axis=1))
        assert result.gt_best_iou == tuple(iou.max(axis=0))

    def test_count_identities(self, grid, make_vertical):
        rng = np.random.default_rng(9)
        for _ in range(5):
            gts = [make_vertical(x) for x in rng.uniform(100, 1100, size=3)]
            preds = [make_vertical(x) for x in rng.uniform(100, 1100, size=4)]
            result = match_lanes(preds, gts, 0.5, 30)
            assert result.tp + result.fn == len(gts)
            assert result.tp + result.fp == len(preds)

    def test_grid_mismatch(self, make_vertical):
        other_grid = SamplingGrid.uniform(1280, 720, 17)
        other = Lane(np.full(17, 100.0), 17, other_grid)
        with pytest.raises(GridMismatch):
            match_lanes([other], [make_vertical(100.0)], 0.5, 30)

    def test_prediction_order_invariance(self, grid, make_vertical):
        gts = [make_vertical(x) for x in (200.0, 500.0, 800.0)]
        preds = [make_vertical(x) for x in (505.0, 195.0, 790.0)]
        a = match_lanes(preds, gts, 0.5, 30)
        b = match_lanes(list(reversed(preds)), gts, 0.5, 30)
        assert (a.tp, a.fp, a.fn) == (b.tp, b.fp, b.fn)

    def test_scale_invariance_of_decisions(self):
        small = SamplingGrid.uniform(640, 360, 30)
        big = SamplingGrid.uniform(1280, 720, 30)
        rng = np.random.default_rng(15)
        xs_g = rng.uniform(100, 540, size=3)
        xs_p = xs_g + rng.uniform(-12, 12, size=3)

        def lanes(grid, centers, scale):
            return [
                Lane(np.full(grid.n_samples, c * scale), grid.n_samples, grid)
                for c in centers
            ]

        result_1x = match_lanes(lanes(small, xs_p, 1), lanes(small, xs_g, 1), 0.5, 16)
        result_2x = match_lanes(lanes(big, xs_p, 2), lanes(big, xs_g, 2), 0.5, 32)
        assert (result_1x.tp, result_1x.fp, result_1x.fn) == (
            result_2x.tp,
            result_2x.fp,
            result_2x.fn,
        )


class TestFMeasure:
    def test_perfect_counts(self):
        report = f_measure([match_stub(1, 0, 0)])
        assert (report.precision, report.recall, report.f_measure) == (1.0, 1.0, 1.0)

    def test_zero_convention(self):
        report = f_measure([match_stub(0, 3, 2)])
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f_measure == 0.0

    def test_hand_computed_values(self):
        report = f_measure([match_stub(86, 14, 25)])
        assert report.precision == pytest.approx(0.86)
        assert report.recall == pytest.approx(86 / 111)
        assert report.f_measure == pytest.approx(0.8152, abs=5e-5)

    def test_aggregates_across_images(self):
        report = f_measure([match_stub(2, 1, 0), match_stub(3, 0, 2)])
        assert (report.tp, report.fp, report.fn) == (5, 1, 2)

    def test_f_between_precision_and_recall(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tp, fp, fn = (int(v) for v in rng.integers(1, 50, size=3))
            report = f_measure([match_stub(tp, fp, fn)])
            lo = min(report.precision, report.recall)
            hi = max(report.precision, report.recall)
            assert lo - 1e-12 <= report.f_measure <= hi + 1e-12


def match_stub(tp, fp, fn):
    from lanespace.metrics import ImageMatch

    return ImageMatch("img", tp, fp, fn, (), (), (), True)


class TestTusimpleScore:
    def test_exact_predictions(self, make_vertical):
        gt = [[make_vertical(x) for x in (200.0, 500.0)]]
        report = tusimple_score(gt, gt)
        assert report.accuracy == 1.0
        assert report.fpr == 0.0
        assert report.fnr == 0.0

    def test_no_predictions(self, make_vertical):
        gt = [[make_vertical(x) for x in (100.0, 300.0, 500.0, 700.0)]]
        report = tusimple_score([[]], gt)
        assert report.fnr == 1.0
        assert report.fpr == 0.0
        assert report.accuracy == 0.0

    def test_offset_beyond_threshold_counts_false(self, grid, make_vertical):
        gt_lane = make_vertical(400.0)
        off_lane = Lane(gt_lane.xs + 21.0, grid.n_samples, grid)  # threshold is 20
        report = tusimple_score([[off_lane]], [[gt_lane]])
        assert report.accuracy == 0.0
        assert report.fpr == 1.0  # 1 incorrect lane out of 1 predicted
        assert report.fnr == 1.0

    def test_within_threshold_is_correct(self, grid, make_vertical):
        gt_lane = make_vertical(400.0)
        near = Lane(gt_lane.xs + 19.0, grid.n_samples, grid)
        report = tusimple_score([[near]], [[gt_lane]])
        assert report.accuracy == 1.0
        assert report.fpr == 0.0

    def test_lane_accuracy_floor(self, grid, make_vertical):
        gt_lane = make_vertical(400.0)
        # half the points off: per-lane accuracy 0.5 < 0.85 floor
        xs = gt_lane.xs.copy()
        xs[::2] += 30.0
        half_off = Lane(xs, grid.n_samples, grid)
        report = tusimple_score([[half_off]], [[gt_lane]])
        assert report.accuracy == pytest.approx(0.5)
        assert report.fpr == 1.0
        assert report.fnr == 1.0

    def test_truncated_prediction_misses_upper_points(self, grid, make_vertical):
        gt_lane = make_vertical(400.0)
        short = make_vertical(400.0, top_index=25)
        report = tusimple_score([[short]], [[gt_lane]])
        assert report.accuracy == pytest.approx(25 / 50)

    def test_deleting_one_of_four_lanes_gives_quarter_fnr(self, make_vertical):
        gt = [[make_vertical(x) for x in (200.0, 400.0, 600.0, 800.0)]]
        preds = [[make_vertical(x) for x in (200.0, 400.0, 600.0)]]
        report = tusimple_score(preds, gt)
        assert report.fnr == pytest.approx(0.25)
        assert report.fpr == 0.0

    def test_per_image_breakdown(self, make_vertical):
        gt = [
            [make_vertical(200.0)],
            [make_vertical(x) for x in (300.0, 700.0)],
        ]
        preds = [[make_vertical(200.0)], [make_vertical(300.0)]]
        report = tusimple_score(preds, gt, image_ids=["a", "b"])
        assert len(report.per_image) == 2
        assert report.per_image[0].n_missed == 0
        assert report.per_image[1].n_missed == 1
        assert report.fnr == pytest.approx(1 / 3)
