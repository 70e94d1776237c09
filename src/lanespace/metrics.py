"""Lane-detection evaluation protocols.

Two conventions are implemented: stripe-IoU matching with precision, recall
and F-measure (the CULane-style protocol), and the TuSimple-style pointwise
accuracy with false-positive / false-negative lane rates. Zero denominators
follow the defined-as-zero convention throughout, stated here once because
the textbook formulas are silent about them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    DEFAULT_STRIPE_WIDTH,
    Lane,
    batch_iou_one_vs_many,
    stack_lanes,
    stripe_spans,
)

TUSIMPLE_POINT_THRESHOLD = 20.0
TUSIMPLE_LANE_ACCURACY_FLOOR = 0.85


@dataclass(frozen=True)
class ImageMatch:
    """Per-image matching outcome for the stripe-IoU protocol."""

    image_id: str
    tp: int
    fp: int
    fn: int
    pairs: tuple[tuple[int, int, float], ...]  # (pred index, gt index, IoU)
    pred_best_iou: tuple[float, ...]
    gt_best_iou: tuple[float, ...]
    greedy_equals_optimal: bool


@dataclass(frozen=True)
class MatchReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f_measure: float
    per_image: tuple[ImageMatch, ...] = ()


@dataclass(frozen=True)
class ImagePointAccuracy:
    image_id: str
    n_correct: int
    n_gt_points: int
    accuracy: float
    n_pred: int
    n_false_pred: int
    n_gt: int
    n_missed: int


@dataclass(frozen=True)
class PointAccuracyReport:
    n_correct: int
    n_gt_points: int
    accuracy: float
    fpr: float
    fnr: float
    per_image: tuple[ImagePointAccuracy, ...] = ()


def _max_bipartite_matching(edges: np.ndarray) -> int:
    """Size of a maximum matching in a boolean (n_pred, n_gt) graph."""
    n_pred, n_gt = edges.shape
    match_of_gt = [-1] * n_gt

    def try_assign(p, visited):
        for g in range(n_gt):
            if edges[p, g] and not visited[g]:
                visited[g] = True
                if match_of_gt[g] < 0 or try_assign(match_of_gt[g], visited):
                    match_of_gt[g] = p
                    return True
        return False

    size = 0
    for p in range(n_pred):
        if try_assign(p, [False] * n_gt):
            size += 1
    return size


def match_lanes(
    predictions,
    ground_truth,
    iou_threshold: float = 0.5,
    width: int = DEFAULT_STRIPE_WIDTH,
    image_id: str = "",
) -> ImageMatch:
    """Greedy one-to-one matching of predictions to ground truth by IoU.

    Pairs are considered in descending IoU order (ties broken by lowest
    prediction index, then lowest ground-truth index); a pair is a true
    positive when its IoU strictly exceeds the threshold. Greedy matching is
    the de-facto convention for this protocol; the report notes whenever a
    maximum matching would have scored differently so audits can spot it.
    """
    predictions = list(predictions)
    ground_truth = list(ground_truth)
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in (0, 1]")
    lanes = predictions + ground_truth
    n_pred, n_gt = len(predictions), len(ground_truth)
    ious = np.zeros((n_pred, n_gt))
    if lanes:
        grid = lanes[0].grid
        starts, ends = stripe_spans(*stack_lanes(lanes, grid), grid, width)
        gt_spans = (starts[n_pred:], ends[n_pred:])
        for i in range(n_pred):
            ious[i] = batch_iou_one_vs_many((starts[i], ends[i]), gt_spans)

    above = [
        (ious[i, j], i, j)
        for i in range(n_pred)
        for j in range(n_gt)
        if ious[i, j] > iou_threshold
    ]
    above.sort(key=lambda t: (-t[0], t[1], t[2]))
    pred_used = [False] * n_pred
    gt_used = [False] * n_gt
    pairs = []
    for iou, i, j in above:
        if not pred_used[i] and not gt_used[j]:
            pred_used[i] = True
            gt_used[j] = True
            pairs.append((i, j, float(iou)))

    tp = len(pairs)
    optimal = _max_bipartite_matching(ious > iou_threshold) if above else 0
    return ImageMatch(
        image_id=image_id,
        tp=tp,
        fp=n_pred - tp,
        fn=n_gt - tp,
        pairs=tuple(pairs),
        pred_best_iou=tuple(float(ious[i].max()) if n_gt else 0.0 for i in range(n_pred)),
        gt_best_iou=tuple(float(ious[:, j].max()) if n_pred else 0.0 for j in range(n_gt)),
        greedy_equals_optimal=tp == optimal,
    )


def f_measure(reports) -> MatchReport:
    """Aggregate per-image counts and compute precision, recall, F-measure."""
    reports = tuple(reports)
    tp = sum(r.tp for r in reports)
    fp = sum(r.fp for r in reports)
    fn = sum(r.fn for r in reports)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall > 0:
        f = 2.0 * precision * recall / (precision + recall)
    else:
        f = 0.0
    return MatchReport(tp, fp, fn, precision, recall, f, reports)


def _lane_point_accuracy(pred: Lane, gt: Lane, distance_threshold: float) -> tuple[int, int]:
    """(correct points, total gt points) for one prediction/gt pair.

    A ground-truth point counts as correct when the prediction covers its
    row (the row is inside the prediction's annotated extent) and the
    horizontal distance is strictly below the threshold.
    """
    n_points = gt.top_index
    if n_points == 0:
        return 0, 0
    k = min(pred.top_index, n_points)
    diffs = np.abs(pred.xs[:k] - gt.xs[:k])
    return int(np.count_nonzero(diffs < distance_threshold)), n_points


def tusimple_score(
    predictions,
    ground_truth,
    distance_threshold: float = TUSIMPLE_POINT_THRESHOLD,
    lane_accuracy_floor: float = TUSIMPLE_LANE_ACCURACY_FLOOR,
    image_ids=None,
) -> PointAccuracyReport:
    """Pointwise accuracy plus lane-level FPR / FNR over a list of images.

    predictions and ground_truth are parallel lists; element i holds the
    lanes of image i, all sampled on one shared grid. Within an image,
    lanes are matched greedily by per-lane point accuracy (descending, ties
    to the lowest prediction then ground-truth index). A predicted lane is
    false when unmatched or when its accuracy falls below the floor; the
    same rule marks the ground-truth lane missed.
    """
    predictions = [list(p) for p in predictions]
    ground_truth = [list(g) for g in ground_truth]
    if len(predictions) != len(ground_truth):
        raise ValueError("need one prediction list per ground-truth list")
    if image_ids is None:
        image_ids = [f"image_{i:05d}" for i in range(len(predictions))]

    per_image = []
    total_correct = 0
    total_points = 0
    total_pred = 0
    total_false = 0
    total_gt = 0
    total_missed = 0
    for image_id, preds, gts in zip(image_ids, predictions, ground_truth):
        lanes = preds + gts
        if lanes:
            stack_lanes(lanes, lanes[0].grid)  # raises GridMismatch
        n_pred, n_gt = len(preds), len(gts)
        acc = np.zeros((n_pred, n_gt))
        correct = np.zeros((n_pred, n_gt), dtype=np.int64)
        points = np.zeros(n_gt, dtype=np.int64)
        for j, gt in enumerate(gts):
            points[j] = gt.top_index
            for i, pred in enumerate(preds):
                c, n = _lane_point_accuracy(pred, gt, distance_threshold)
                correct[i, j] = c
                acc[i, j] = c / n if n else 0.0

        order = [
            (acc[i, j], i, j) for i in range(n_pred) for j in range(n_gt)
        ]
        order.sort(key=lambda t: (-t[0], t[1], t[2]))
        pred_used = [False] * n_pred
        gt_used = [False] * n_gt
        matches = {}
        for _, i, j in order:
            if not pred_used[i] and not gt_used[j]:
                pred_used[i] = True
                gt_used[j] = True
                matches[j] = i

        img_correct = 0
        img_missed = 0
        hit_preds = set()
        for j in range(n_gt):
            i = matches.get(j)
            if i is not None:
                img_correct += int(correct[i, j])
            if i is not None and acc[i, j] >= lane_accuracy_floor:
                hit_preds.add(i)
            else:
                img_missed += 1
        img_points = int(points.sum())
        img_false = n_pred - len(hit_preds)

        per_image.append(
            ImagePointAccuracy(
                image_id=image_id,
                n_correct=img_correct,
                n_gt_points=img_points,
                accuracy=img_correct / img_points if img_points else 1.0,
                n_pred=n_pred,
                n_false_pred=img_false,
                n_gt=n_gt,
                n_missed=img_missed,
            )
        )
        total_correct += img_correct
        total_points += img_points
        total_pred += n_pred
        total_false += img_false
        total_gt += n_gt
        total_missed += img_missed

    return PointAccuracyReport(
        n_correct=total_correct,
        n_gt_points=total_points,
        accuracy=total_correct / total_points if total_points else 1.0,
        fpr=total_false / total_pred if total_pred else 0.0,
        fnr=total_missed / total_gt if total_gt else 0.0,
        per_image=tuple(per_image),
    )
