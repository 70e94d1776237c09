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

from .errors import EmptyInput, GridMismatch, TooManyClusters, ValidationError
from .eigenspace import EigenBasis, LaneMatrix, project, project_columns, reconstruct
from .geometry import (
    DEFAULT_STRIPE_WIDTH,
    MAX_ARRAY_BYTES,
    SamplingGrid,
    SpanStack,
    check_budget,
    check_positive_int,
    lane_arrays,
    stack_lanes,
)

MAX_ITERS = 100  # Lloyd iterations
TOLERANCE = 1e-6  # centroid shift that ends the iterations, pixels
MAX_ANCHOR_ANGLE_DEG = 75.0  # straight anchors span +-this angle from vertical


@dataclass(frozen=True)
class ClusteringConfig:
    k: int
    seed: int = 0

    def __post_init__(self):
        check_positive_int(self.k, "k")


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """K candidate lanes stacked as xs (K, N) and top_index (K,), with their coefficients.

    For clustered sets each row of xs is exactly the reconstruction of its
    coefficient vector. Straight-anchor sets keep their true straight
    geometry and carry best-effort projected coefficients instead (used as
    the origin for coefficient-space refinement).

    The set is frozen and its arrays are read-only, so its caches stay valid
    for its lifetime: one SpanStack per stripe width, and the suppression
    rows per (width, threshold, candidate), kept bit-packed. The rows kept
    stay within MAX_ARRAY_BYTES in all; rows past that are recomputed on
    every call.
    """

    xs: np.ndarray
    top_index: np.ndarray
    grid: SamplingGrid
    coefficients: np.ndarray
    basis_id: str
    _span_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _row_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        xs, top_index = lane_arrays(self.xs, self.top_index, self.grid)
        if top_index.ndim != 1 or top_index.size == 0:
            raise ValidationError("candidate set must be a non-empty (k, N) stack")
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.ndim != 2 or coeffs.shape[0] != top_index.size:
            raise ValidationError("coefficients must be (k, m)")
        if not np.isfinite(coeffs).all():
            raise ValidationError("coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "top_index", top_index)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def k(self) -> int:
        return int(self.xs.shape[0])

    def spans(self, width: int) -> SpanStack:
        """The candidates' span stack for one stripe width, built on first use."""
        check_positive_int(width, "stripe width")
        if width not in self._span_cache:
            self._span_cache[width] = SpanStack.of(self.xs, self.top_index, self.grid, width)
        return self._span_cache[width]

    def suppressed(self, i: int, width: int, threshold: float) -> np.ndarray:
        """Boolean (k,) row: candidates whose stripe IoU with candidate i exceeds threshold.

        The row depends only on the set, so it is computed once per
        (width, threshold, i) and kept bit-packed while the memo has room.
        Only the lanes whose SpanStack.overlap_bound with candidate i leaves
        room for an IoU above threshold go through the kernel.
        """
        spans = self.spans(width)
        key = (width, float(threshold), int(i))
        packed = self._row_cache.get(key)
        if packed is None:
            # IoU > t means inter * (1 + t) > t * (area_i + area_j); the 1e-9
            # margin dwarfs float64 rounding, so every lane left out has IoU <= t
            lane = spans[i : i + 1]
            bound = spans.overlap_bound(lane, width)
            room = threshold * (spans.area + spans.area[i]) * (1.0 - 1e-9)
            near = np.flatnonzero(bound * (1.0 + threshold) >= room)
            row = np.zeros(self.k, dtype=bool)
            row[near] = spans[near].ious(lane)[0] > threshold
            packed = np.packbits(row)
            # every packed row has the same size, so this is the memo's total
            if (len(self._row_cache) + 1) * packed.nbytes <= MAX_ARRAY_BYTES:
                self._row_cache[key] = packed
        return np.unpackbits(packed, count=self.k).view(bool)


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
    # squared Euclidean distances |p|^2 - 2 p.c + |c|^2, built in the one
    # (points, k) matrix; argmin resolves ties to the lowest index. The
    # product is one call: row-blocked products round differently in BLAS.
    d2 = points @ centroids.T
    d2 *= 2.0
    np.subtract(np.sum(points**2, axis=1)[:, None], d2, out=d2)
    d2 += np.sum(centroids**2, axis=1)
    return np.argmin(d2, axis=1)


def lloyd_kmeans(
    points: np.ndarray, k: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, float]:
    """Seeded k-means++ plus Lloyd iterations on raw points.

    Returns (centroids, labels, inertia). Deterministic for a fixed seed.
    Empty clusters are repaired by moving their centroid onto the point
    currently farthest from its assigned centroid, so exactly k centroids
    always come back. k must be an integer >= 1. Each assignment step
    allocates exactly one (points, k) float64 distance matrix and fills it
    in place; that matrix must fit MAX_ARRAY_BYTES, checked before any work.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise EmptyInput("no points to cluster")
    check_positive_int(k, "k")
    check_budget((len(points), k), 8, "k-means distances (lanes x clusters)")
    distinct = np.unique(points, axis=0).shape[0]
    if k > distinct:
        raise TooManyClusters(f"k={k} exceeds {distinct} distinct points")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_plus_plus(points, k, rng)
    labels = _assign(points, centroids)
    prev_objective = np.inf
    for _ in range(MAX_ITERS):
        # update step
        new_centroids = centroids.copy()
        counts = np.bincount(labels, minlength=k)
        # member sums in point order, from +0.0, exactly as mean(axis=0) adds
        sums = np.stack([np.bincount(labels, weights=col, minlength=k) for col in points.T], axis=1)
        full = counts > 0
        new_centroids[full] = sums[full] / counts[full, None]
        # repair empty clusters deterministically
        empty = np.nonzero(counts == 0)[0]
        if empty.size:
            dist_own = np.sum((points - new_centroids[labels]) ** 2, axis=1)
            farthest = np.argsort(dist_own, kind="stable")[::-1]
            new_centroids[empty] = points[farthest[: empty.size]]
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        labels = _assign(points, centroids)
        objective = float(np.sum((points - centroids[labels]) ** 2))
        assert objective <= prev_objective + 1e-9 * max(1.0, prev_objective), (
            "k-means objective increased"
        )
        prev_objective = objective
        if shift < TOLERANCE:
            break
    return centroids, labels, objective


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
    centroids, _, _ = lloyd_kmeans(coeffs, config.k, config.seed)
    xs = reconstruct(basis, centroids)
    top_index = np.full(len(xs), basis.grid.n_samples)
    return CandidateSet(xs, top_index, basis.grid, centroids, basis.content_id)


def straight_anchor_grid(basis: EigenBasis, n: int) -> CandidateSet:
    """Baseline candidate set of n straight lanes.

    Lanes are enumerated row-major over a uniform product of bottom-intercept
    positions and slope angles spanning +-MAX_ANCHOR_ANGLE_DEG from vertical.
    The enumeration is a stand-in for straight-anchor schemes from
    anchor-based detectors; no canonical layout exists, so the grid is kept
    simple.
    """
    check_positive_int(n, "n")
    grid = basis.grid
    n_angles = max(1, int(round(np.sqrt(n))))
    n_pos = -(-n // n_angles)  # ceil
    check_budget((n_pos * n_angles, grid.n_samples), 8, "straight anchors (positions x angles, samples)")
    if n_pos > 1:
        positions = np.linspace(0.0, grid.image_width - 1.0, n_pos)
    else:
        positions = np.array([grid.image_width / 2.0])
    if n_angles > 1:
        angles = np.deg2rad(np.linspace(-MAX_ANCHOR_ANGLE_DEG, MAX_ANCHOR_ANGLE_DEG, n_angles))
    else:
        angles = np.array([0.0])
    rise = grid.y_coords[0] - grid.y_coords  # >= 0, grows toward the top of the image
    # row-major over (position, angle), truncated to n
    slopes = np.tan(angles)[:, None] * rise
    xs = (positions[:, None, None] + slopes).reshape(-1, grid.n_samples)[:n]
    top_index = np.full(n, grid.n_samples)
    return CandidateSet(xs, top_index, grid, project(basis, xs), basis.content_id)


def mean_best_iou(
    candidates: CandidateSet, test_lanes, width: int = DEFAULT_STRIPE_WIDTH
) -> float:
    """Average over test lanes of the best stripe IoU against any candidate.

    This is the coverage score used to compare candidate-generation schemes:
    a candidate set is good when every plausible lane is close to some
    candidate.

    Each test lane visits the candidates in descending order of the IoU cap
    bound / (area_i + area_j - bound) that SpanStack.overlap_bound allows,
    eight at a time through the exact kernel, and stops once the next cap is
    no larger than the best IoU found. IoU grows with the intersection and
    correctly rounded division is monotone, so no cap is below its lane's
    computed IoU, and the maximum is that of the full kernel bit for bit.
    """
    test_lanes = list(test_lanes)
    if not test_lanes:
        raise EmptyInput("empty test set")
    grid = candidates.grid
    spans = candidates.spans(width)
    tests = SpanStack.of(*stack_lanes(test_lanes, grid), grid, width)
    best = np.zeros(len(tests))
    for i in range(len(tests)):
        query = tests[i : i + 1]
        bound = spans.overlap_bound(query, width)
        cap = np.zeros(len(spans))
        np.divide(bound, spans.area + query.area - bound, out=cap, where=bound > 0)
        order = np.argsort(-cap, kind="stable")
        for start in range(0, len(order), 8):
            if cap[order[start]] <= best[i]:
                break
            best[i] = max(best[i], spans[order[start : start + 8]].ious(query).max())
    return float(np.mean(best))
