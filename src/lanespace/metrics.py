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

from .errors import ValidationError
from .geometry import DEFAULT_STRIPE_WIDTH, check_budget, stack_lanes, stripe_ious

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


def _is_maximum_matching(edges: np.ndarray, pairs) -> bool:
    """Whether pairs is a maximum matching of the boolean (n_pred, n_gt) graph edges.

    By Berge's theorem (1957) it is exactly when no augmenting path exists:
    a path from an unmatched prediction to an unmatched ground truth whose
    edges alternate between outside and inside the matching. One
    breadth-first search from every unmatched prediction at once looks for
    one, a layer per step, so each prediction's row is read at most once.
    """
    pred_of_gt = np.full(edges.shape[1], -1)
    unmatched = np.ones(edges.shape[0], dtype=bool)
    for i, j in pairs:
        pred_of_gt[j] = i
        unmatched[i] = False
    seen = np.zeros(edges.shape[1], dtype=bool)
    frontier = np.flatnonzero(unmatched)
    while frontier.size:
        reached = edges[frontier].any(axis=0) & ~seen
        if (pred_of_gt[reached] < 0).any():
            return False
        seen |= reached
        frontier = pred_of_gt[reached]  # each reached ground truth leads on to its prediction
    return True


def _greedy_pairs(score: np.ndarray, allowed: np.ndarray) -> list[tuple[int, int]]:
    """Greedy one-to-one (row, column) pairs over the allowed cells of score.

    Cells are taken in descending score order, ties to the lowest row and
    then the lowest column; a cell whose row or column is used is skipped.
    """
    cells = sorted(np.argwhere(allowed).tolist(), key=lambda c: (-score[c[0], c[1]], *c))
    rows, cols, pairs = set(), set(), []
    for i, j in cells:
        if i not in rows and j not in cols:
            rows.add(i)
            cols.add(j)
            pairs.append((i, j))
    return pairs


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
    if not 0.0 < iou_threshold <= 1.0:
        raise ValidationError("iou_threshold must be in (0, 1]")
    ious = stripe_ious(predictions, ground_truth, width)
    n_pred, n_gt = ious.shape
    above = ious > iou_threshold
    cells = ious.tolist()
    greedy = _greedy_pairs(ious, above)
    pairs = [(i, j, cells[i][j]) for i, j in greedy]
    tp = len(pairs)
    return ImageMatch(
        image_id=image_id,
        tp=tp,
        fp=n_pred - tp,
        fn=n_gt - tp,
        pairs=tuple(pairs),
        pred_best_iou=tuple(ious.max(axis=1).tolist()) if n_gt else (0.0,) * n_pred,
        gt_best_iou=tuple(ious.max(axis=0).tolist()) if n_pred else (0.0,) * n_gt,
        greedy_equals_optimal=_is_maximum_matching(above, greedy),
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


def tusimple_score(predictions, ground_truth, image_ids=None) -> PointAccuracyReport:
    """Pointwise accuracy plus lane-level FPR / FNR over a list of images.

    predictions, ground_truth and image_ids (when given) are parallel lists;
    element i holds image i's lanes, all sampled on one shared grid. Within
    an image, lanes are matched greedily by per-lane point accuracy
    (descending, ties to the lowest prediction then ground-truth index). A
    ground-truth point is correct for a prediction when its row lies inside
    both lanes' annotated extents and the horizontal distance is strictly
    below TUSIMPLE_POINT_THRESHOLD; a pair's accuracy is its correct points
    over the ground-truth lane's points, 0.0 for a lane without points. A
    predicted lane is false when unmatched or when its accuracy falls below
    TUSIMPLE_LANE_ACCURACY_FLOOR; the same rule marks the ground-truth lane
    missed. Each image's (predictions, ground truth, samples) float64
    comparison must fit MAX_ARRAY_BYTES.
    """
    predictions = [list(p) for p in predictions]
    ground_truth = [list(g) for g in ground_truth]
    if len(predictions) != len(ground_truth):
        raise ValidationError("need one prediction list per ground-truth list")
    if image_ids is None:
        image_ids = [f"image_{i:05d}" for i in range(len(predictions))]
    if len(image_ids) != len(ground_truth):
        raise ValidationError("need one image id per ground-truth list")

    per_image = []
    for image_id, preds, gts in zip(image_ids, predictions, ground_truth):
        lanes = preds + gts
        n_pred, n_gt = len(preds), len(gts)
        correct = np.zeros((n_pred, n_gt), dtype=np.int64)
        points = np.zeros(n_gt, dtype=np.int64)
        if lanes:
            xs, top = stack_lanes(lanes, lanes[0].grid)
            points = top[n_pred:]
            check_budget((n_pred, n_gt, xs.shape[1]), 8,
                         "TuSimple point comparison (predictions x ground truth x samples)")
            close = np.abs(xs[:n_pred, None] - xs[None, n_pred:]) < TUSIMPLE_POINT_THRESHOLD
            extent = np.minimum(top[:n_pred, None], points)
            covered = np.arange(xs.shape[1]) < extent[..., None]
            correct = np.count_nonzero(close & covered, axis=2)
        acc = np.divide(correct, points, out=np.zeros(correct.shape), where=points > 0)

        pairs = _greedy_pairs(acc, np.ones(acc.shape, dtype=bool))
        hits = sum(1 for i, j in pairs if acc[i, j] >= TUSIMPLE_LANE_ACCURACY_FLOOR)
        img_correct = sum(int(correct[i, j]) for i, j in pairs)
        img_points = int(points.sum())
        per_image.append(
            ImagePointAccuracy(
                image_id=image_id,
                n_correct=img_correct,
                n_gt_points=img_points,
                accuracy=img_correct / img_points if img_points else 1.0,
                n_pred=n_pred,
                n_false_pred=n_pred - hits,
                n_gt=n_gt,
                n_missed=n_gt - hits,
            )
        )

    n_correct = sum(r.n_correct for r in per_image)
    n_points = sum(r.n_gt_points for r in per_image)
    n_pred = sum(r.n_pred for r in per_image)
    n_gt = sum(r.n_gt for r in per_image)
    return PointAccuracyReport(
        n_correct=n_correct,
        n_gt_points=n_points,
        accuracy=n_correct / n_points if n_points else 1.0,
        fpr=sum(r.n_false_pred for r in per_image) / n_pred if n_pred else 0.0,
        fnr=sum(r.n_missed for r in per_image) / n_gt if n_gt else 0.0,
        per_image=tuple(per_image),
    )
