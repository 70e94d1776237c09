"""Geometry-based score provider for running the pipeline without a model.

Detection-time scores normally come from a trained network; this module
derives them from ground-truth geometry instead so the selection stages can
be exercised end to end. For every candidate it emits:

- lane probability: best stripe IoU against any ground-truth lane (optionally
  jittered by seeded noise),
- coefficient offset: the exact correction toward the best-matching lane,
  zeroed below an IoU floor,
- height distribution: one-hot at the bin nearest the matched lane's
  annotated ending height,
- a relation feature row: a match-quality activation followed by the scaled
  unit coefficient vector and a few geometric summaries. Candidates that are
  not the best match of any lane get an all-zero row, which the relation
  stage treats as "no evidence" (relation 0 to everything), keeping them out
  of every clique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import CandidateSet
from .eigenspace import EigenBasis, project
from .errors import GridMismatch, ValidationError
from .geometry import DEFAULT_STRIPE_WIDTH, SpanStack, check_positive_int, stack_lanes
from .pipeline import CandidateScores

# Down-weights the geometric summaries so the activation channel dominates
# the cosine between two well-matched candidates.
GEOMETRY_SCALE = 0.1


@dataclass(frozen=True)
class OracleConfig:
    iou_floor: float = 0.25
    noise_sigma: float = 0.0
    seed: int = 0
    stripe_width: int = DEFAULT_STRIPE_WIDTH

    def __post_init__(self):
        if not 0.0 <= self.iou_floor < 1.0:
            raise ValidationError("iou_floor must be in [0, 1)")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValidationError("noise_sigma must be finite and non-negative")
        check_positive_int(self.stripe_width, "stripe width")


def _geometry_summary(xs: np.ndarray, grid) -> np.ndarray:
    w = grid.image_width
    return np.array(
        [
            xs[0] / w - 0.5,
            xs[-1] / w - 0.5,
            float(xs.mean()) / w - 0.5,
            (xs[-1] - xs[0]) / w,
        ]
    )


def oracle_scores(
    candidates: CandidateSet,
    gt_lanes,
    basis: EigenBasis,
    height_grid: np.ndarray,
    config: OracleConfig = OracleConfig(),
) -> tuple[CandidateScores, np.ndarray]:
    """Score every candidate against the image's ground-truth lanes.

    Returns (scores, features) where features is the (K, C) matrix consumed
    by the relation stage after NMS.
    """
    grid = candidates.grid
    if basis.grid != grid:
        raise GridMismatch("basis and candidates use different grids")
    gt_lanes = list(gt_lanes)
    gt_xs, gt_top = stack_lanes(gt_lanes, grid)
    heights = np.asarray(height_grid, dtype=np.float64)
    k = candidates.k
    m = basis.m

    width = config.stripe_width
    iou = candidates.spans(width).ious(SpanStack.of(gt_xs, gt_top, grid, width)).T

    offsets = np.zeros((k, m))
    height_dist = np.zeros((k, heights.size))
    champion = np.zeros(k, dtype=bool)
    if gt_lanes:
        best_gt = np.argmax(iou, axis=1)  # ties resolve to the lowest index
        best_iou = iou[np.arange(k), best_gt]
        # the single best candidate of each lane carries the relation evidence
        winners = np.argmax(iou, axis=0)
        won = iou[winners, np.arange(len(gt_lanes))] > config.iou_floor
        champion[winners[won]] = True
        gt_coeffs = np.array([project(basis, gt) for gt in gt_lanes])
        matched = best_iou > config.iou_floor
        offsets[matched] = gt_coeffs[best_gt[matched]] - candidates.coefficients[matched]
        # one-hot at the bin nearest each lane's annotated ending height
        y_end = grid.y_coords[np.maximum(gt_top - 1, 0)]
        gt_bin = np.argmin(np.abs(heights[None, :] - y_end[:, None]), axis=1)
        height_dist[np.arange(k), gt_bin[best_gt]] = 1.0
    else:
        best_iou = np.zeros(k)
        height_dist[:, 0] = 1.0

    probabilities = best_iou.copy()
    if config.noise_sigma > 0:
        rng = np.random.default_rng(config.seed)
        probabilities = probabilities + rng.normal(0, config.noise_sigma, size=k)
        probabilities = np.clip(probabilities, 0.0, 1.0)

    features = np.zeros((k, 1 + m + 4))
    for i in np.nonzero(champion)[0]:
        c = candidates.coefficients[i]
        norm = np.linalg.norm(c)
        unit = c / norm if norm > 0 else c
        features[i, 0] = 0.6 + 0.4 * best_iou[i]
        features[i, 1 : 1 + m] = GEOMETRY_SCALE * unit
        features[i, 1 + m :] = GEOMETRY_SCALE * _geometry_summary(candidates.xs[i], grid)

    scores = CandidateScores(probabilities, height_dist, offsets)
    return scores, features
