"""Lane-candidate generation by clustering in the low-rank coefficient space.

Every training lane is projected to its coefficient vector, the coefficients
are clustered with seeded k-means++ / Lloyd iterations, and each centroid is
reconstructed into a full-length candidate lane. Because the basis transform
is an isometry between coefficient space and reconstructed-lane space, this
is equivalent to clustering the rank-m approximated lanes directly, only
cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, GridMismatch, TooManyClusters
from .eigenspace import EigenBasis, LaneMatrix, project_columns, reconstruct
from .geometry import (
    DEFAULT_STRIPE_WIDTH,
    Lane,
    SamplingGrid,
    batch_iou_one_vs_many,
    stack_lanes,
    stripe_spans,
)


@dataclass(frozen=True)
class ClusteringConfig:
    k: int
    max_iters: int = 100
    tolerance: float = 1e-6  # centroid shift, pixels
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(eq=False)
class CandidateSet:
    """K candidate lanes with their coefficient vectors.

    For clustered sets each lane is exactly the reconstruction of its
    coefficient vector. Straight-anchor sets keep their true straight
    geometry and carry best-effort projected coefficients instead (used as
    the origin for coefficient-space refinement). The lanes are also kept
    stacked as xs (K, N) and top_index (K,).
    """

    lanes: list[Lane]
    coefficients: np.ndarray
    basis_id: str
    xs: np.ndarray = field(init=False, repr=False)
    top_index: np.ndarray = field(init=False, repr=False)
    _span_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.lanes:
            raise ValueError("candidate set cannot be empty")
        self.xs, self.top_index = stack_lanes(self.lanes, self.lanes[0].grid)
        self.xs.setflags(write=False)
        self.top_index.setflags(write=False)
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.ndim != 2 or coeffs.shape[0] != len(self.lanes):
            raise ValueError("coefficients must be (k, m)")
        coeffs.setflags(write=False)
        self.coefficients = coeffs

    @property
    def k(self) -> int:
        return len(self.lanes)

    @property
    def grid(self) -> SamplingGrid:
        return self.lanes[0].grid

    def stripe_span_arrays(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached (k, image_height) stripe span stacks for batch IoU."""
        key = int(width)
        if key not in self._span_cache:
            self._span_cache[key] = stripe_spans(self.xs, self.top_index, self.grid, width)
        return self._span_cache[key]


def _kmeans_plus_plus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining mass sits on already-chosen points; spread over
            # whatever distinct points are left
            remaining = np.nonzero(d2 == 0)[0]
            centroids[i] = points[remaining[int(rng.integers(0, remaining.size))]]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
            centroids[i] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[i]) ** 2, axis=1))
    return centroids


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # squared Euclidean distances; argmin resolves ties to the lowest index
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )
    return np.argmin(d2, axis=1)


def lloyd_kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
    max_iters: int = 100,
    tolerance: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Seeded k-means++ plus Lloyd iterations on raw points.

    Returns (centroids, labels, inertia). Deterministic for a fixed seed.
    Empty clusters are repaired by moving their centroid onto the point
    currently farthest from its assigned centroid, so exactly k centroids
    always come back.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise EmptyInput("no points to cluster")
    distinct = np.unique(points, axis=0).shape[0]
    if k > distinct:
        raise TooManyClusters(f"k={k} exceeds {distinct} distinct points")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_plus_plus(points, k, rng)
    labels = _assign(points, centroids)
    prev_objective = np.inf
    for _ in range(max_iters):
        # update step
        new_centroids = centroids.copy()
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j] > 0:
                new_centroids[j] = points[labels == j].mean(axis=0)
        # repair empty clusters deterministically
        empty = np.nonzero(counts == 0)[0]
        if empty.size:
            dist_own = np.sum((points - new_centroids[labels]) ** 2, axis=1)
            taken = set()
            for j in empty:
                order = np.argsort(dist_own, kind="stable")[::-1]
                pick = next(int(p) for p in order if int(p) not in taken)
                taken.add(pick)
                new_centroids[j] = points[pick]
                dist_own[pick] = -1.0
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        labels = _assign(points, centroids)
        objective = float(
            np.sum((points - centroids[labels]) ** 2)
        )
        assert objective <= prev_objective + 1e-9 * max(1.0, prev_objective), (
            "k-means objective increased"
        )
        prev_objective = objective
        if shift < tolerance:
            break
    inertia = float(np.sum((points - centroids[labels]) ** 2))
    return centroids, labels, inertia


def cluster_lanes(
    basis: EigenBasis, lanes, config: ClusteringConfig
) -> CandidateSet:
    """Project lanes into the basis, cluster, reconstruct the centroids."""
    lanes = list(lanes)
    if not lanes:
        raise EmptyInput("no lanes to cluster")
    matrix = LaneMatrix.from_lanes(lanes)
    if matrix.grid != basis.grid:
        raise GridMismatch("lanes and basis use different grids")
    coeffs = project_columns(basis, matrix)
    centroids, _, _ = lloyd_kmeans(
        coeffs, config.k, config.seed, config.max_iters, config.tolerance
    )
    candidate_lanes = [reconstruct(basis, c) for c in centroids]
    return CandidateSet(candidate_lanes, centroids, basis.content_id)


def straight_anchor_grid(basis: EigenBasis, n: int, max_angle_deg: float = 75.0) -> CandidateSet:
    """Baseline candidate set of n straight lanes.

    Lanes are enumerated row-major over a uniform product of bottom-intercept
    positions and slope angles spanning +-max_angle_deg from vertical. The
    enumeration is a stand-in for straight-anchor schemes from anchor-based
    detectors; no canonical layout exists, so the grid is kept simple.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = basis.grid
    n_angles = max(1, int(round(np.sqrt(n))))
    n_pos = -(-n // n_angles)  # ceil
    if n_pos > 1:
        positions = np.linspace(0.0, grid.image_width - 1.0, n_pos)
    else:
        positions = np.array([grid.image_width / 2.0])
    if n_angles > 1:
        angles = np.deg2rad(np.linspace(-max_angle_deg, max_angle_deg, n_angles))
    else:
        angles = np.array([0.0])
    y0 = grid.y_coords[0]
    rise = y0 - grid.y_coords  # >= 0, grows toward the top of the image
    lanes = []
    coeffs = []
    for xb in positions:
        for ang in angles:
            if len(lanes) == n:
                break
            xs = xb + np.tan(ang) * rise
            lane = Lane(xs, grid.n_samples, grid)
            lanes.append(lane)
            coeffs.append(basis.u.T @ xs)
        if len(lanes) == n:
            break
    return CandidateSet(lanes, np.array(coeffs), basis.content_id)


def mean_best_iou(
    candidates: CandidateSet, test_lanes, width: int = DEFAULT_STRIPE_WIDTH
) -> float:
    """Average over test lanes of the best stripe IoU against any candidate.

    This is the coverage score used to compare candidate-generation schemes:
    a candidate set is good when every plausible lane is close to some
    candidate.
    """
    test_lanes = list(test_lanes)
    if not test_lanes:
        raise EmptyInput("empty test set")
    grid = candidates.grid
    starts, ends = stripe_spans(*stack_lanes(test_lanes, grid), grid, width)
    spans = candidates.stripe_span_arrays(width)
    best = np.empty(len(test_lanes))
    for i in range(len(test_lanes)):
        best[i] = batch_iou_one_vs_many((starts[i], ends[i]), spans).max()
    return float(best.mean())
