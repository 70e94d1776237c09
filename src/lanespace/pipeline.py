"""Detection-time selection stages over externally supplied scores.

The stages mirror an anchor-based detector head: per-candidate feature
pooling along the lane path, greedy NMS on lane probabilities, a pairwise
relation matrix over the survivors, exact maximum-weight-clique selection
with a single-node fallback, and final coefficient-space plus height
refinement. No learning happens here; probabilities, height distributions,
offsets and feature vectors arrive through the scores contract.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .candidates import CandidateSet
from .errors import DimensionMismatch, EmptyInput, TooManyNodes
from .eigenspace import EigenBasis, reconstruct
from .geometry import DEFAULT_STRIPE_WIDTH, Lane, batch_iou_one_vs_many

# Exact clique enumeration is only reasonable for small graphs; NMS keeps
# the node count at T (default 10) anyway.
MAX_CLIQUE_NODES = 25

# A feature grid is a dense (height, width, channels) float array.
FeatureGrid = np.ndarray

# A relation matrix is a dense (T, T) float array with entries in [-1, 1].
RelationMatrix = np.ndarray


@dataclass(frozen=True, eq=False)
class CandidateScores:
    """Externally supplied per-candidate detection scores.

    probabilities: (K,) lane probability in [0, 1].
    height_distributions: (K, R) rows summing to 1 over pre-defined heights.
    offsets: (K, m) coefficient-space refinement offsets.
    """

    probabilities: np.ndarray
    height_distributions: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        h = np.asarray(self.height_distributions, dtype=np.float64)
        o = np.asarray(self.offsets, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("probabilities must be 1-D")
        k = p.size
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if h.shape[:1] != (k,) or h.ndim != 2:
            raise ValueError("height_distributions must be (K, R)")
        if np.any(np.abs(h.sum(axis=1) - 1.0) > 1e-6):
            raise ValueError("each height distribution must sum to 1")
        if o.shape[:1] != (k,) or o.ndim != 2:
            raise ValueError("offsets must be (K, m)")
        for name, arr in (("probabilities", p), ("heights", h), ("offsets", o)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "height_distributions", h)
        object.__setattr__(self, "offsets", o)

    @property
    def k(self) -> int:
        return int(self.probabilities.size)


@dataclass(frozen=True)
class CliqueResult:
    """Selected node subset and its total pairwise compatibility."""

    member_indices: tuple[int, ...]
    compatibility: float

    def __post_init__(self):
        if len(set(self.member_indices)) != len(self.member_indices):
            raise ValueError("clique members must be distinct")


def _bresenham(x0: int, y0: int, x1: int, y1: int):
    """Integer pixel chain from (x0, y0) to (x1, y1), endpoints included."""
    dx = abs(x1 - x0)
    dy = abs(y1 - y0)
    sx = 1 if x1 >= x0 else -1
    sy = 1 if y1 >= y0 else -1
    err = dx - dy
    x, y = x0, y0
    while True:
        yield x, y
        if x == x1 and y == y1:
            return
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            x += sx
        if e2 < dx:
            err += dx
            y += sy


def lane_pixel_path(lane: Lane, scale_x: float = 1.0, scale_y: float = 1.0):
    """Distinct feature-grid pixels along the lane's valid extent.

    Consecutive valid samples are connected with Bresenham segments after
    scaling image coordinates into the feature grid; duplicates are removed
    while preserving first-visit order.
    """
    pts = lane.valid_points()
    if pts.shape[0] == 0:
        return []
    cols = np.floor(pts[:, 0] * scale_x + 0.5).astype(np.int64)
    rows = np.floor(pts[:, 1] * scale_y + 0.5).astype(np.int64)
    seen = set()
    path = []
    for i in range(len(cols)):
        if i == 0:
            segment = [(int(cols[0]), int(rows[0]))]
        else:
            segment = _bresenham(
                int(cols[i - 1]), int(rows[i - 1]), int(cols[i]), int(rows[i])
            )
        for p in segment:
            if p not in seen:
                seen.add(p)
                path.append(p)
    return path


def line_pool(
    grid: FeatureGrid, lane: Lane, scale_x: float = 1.0, scale_y: float = 1.0
) -> np.ndarray:
    """Average the feature vectors of the pixels along the lane.

    Pixels falling outside the grid are skipped; a lane entirely outside the
    grid pools to the zero vector (with a warning).
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 3 or grid.size == 0:
        raise EmptyInput("feature grid must be a non-empty (H, W, C) array")
    h, w, c = grid.shape
    path = lane_pixel_path(lane, scale_x, scale_y)
    inside = [(col, row) for col, row in path if 0 <= row < h and 0 <= col < w]
    if not inside:
        warnings.warn("lane lies outside the feature grid; pooled zeros", stacklevel=2)
        return np.zeros(c)
    cols = np.array([p[0] for p in inside])
    rows = np.array([p[1] for p in inside])
    return grid[rows, cols, :].mean(axis=0)


def nms_select(
    candidates: CandidateSet,
    scores: CandidateScores,
    t: int = 10,
    iou_threshold: float = 0.5,
    width: int = DEFAULT_STRIPE_WIDTH,
    min_probability: float | None = None,
) -> list[int]:
    """Greedy probability-ranked selection with stripe-IoU suppression.

    Repeatedly picks the highest-probability remaining candidate (ties go to
    the lowest index) and discards candidates whose stripe IoU with any pick
    exceeds iou_threshold, until t picks are made or nothing remains. Picks
    keep coming regardless of how low the probabilities get, which trades
    false positives for fewer false negatives; set min_probability to stop
    early instead.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in (0, 1]")
    if scores.k != candidates.k:
        raise DimensionMismatch("scores and candidates disagree on K")
    starts, ends = candidates.stripe_span_arrays(width)
    alive = np.ones(candidates.k, dtype=bool)
    probs = scores.probabilities
    picks: list[int] = []
    while len(picks) < t and alive.any():
        masked = np.where(alive, probs, -np.inf)
        best = int(np.argmax(masked))
        if min_probability is not None and probs[best] < min_probability:
            break
        picks.append(best)
        alive[best] = False
        ious = batch_iou_one_vs_many((starts[best], ends[best]), (starts, ends))
        alive &= ~(ious > iou_threshold)
    return picks


def relation_from_features(features: np.ndarray) -> RelationMatrix:
    """Pairwise cosine relation scores between per-lane feature vectors.

    Rows are l2-normalized before the Gram product, so every entry lands in
    [-1, 1]. All-zero feature rows carry no evidence: they relate 0 to
    everything and trigger a warning.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 1:
        raise EmptyInput("features must be a non-empty (T, C) matrix")
    norms = np.linalg.norm(f, axis=1)
    zero = norms == 0
    if np.any(zero):
        warnings.warn(
            f"{int(zero.sum())} all-zero feature rows; their relations are 0",
            stacklevel=2,
        )
    safe = np.where(zero, 1.0, norms)
    unit = f / safe[:, None]
    relation = unit @ unit.T
    np.clip(relation, -1.0, 1.0, out=relation)
    relation[zero, :] = 0.0
    relation[:, zero] = 0.0
    return relation


def _edge_weights(relation: RelationMatrix) -> np.ndarray:
    r = np.asarray(relation, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("relation matrix must be square")
    return 0.5 * (r + r.T)


def mwcs(
    relation: RelationMatrix, probabilities: np.ndarray, kappa: float
) -> CliqueResult:
    """Exact maximum-weight clique over the thresholded relation graph.

    Edge weights are the symmetrized relation scores; only edges with weight
    strictly above kappa are allowed inside a clique. Among feasible cliques
    of size >= 2 the one with the largest total edge weight wins (ties: more
    members, then lexicographically smallest index set). When no feasible
    clique exists the highest-probability single node is returned.
    """
    w = _edge_weights(relation)
    t = w.shape[0]
    if t > MAX_CLIQUE_NODES:
        raise TooManyNodes(f"T={t} exceeds exact-enumeration bound {MAX_CLIQUE_NODES}")
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.shape != (t,):
        raise DimensionMismatch("need one probability per node")
    if not -1.0 <= kappa <= 1.0:
        raise ValueError("kappa must be in [-1, 1]")

    adj = [0] * t
    for i in range(t):
        for j in range(t):
            if i != j and w[i, j] > kappa:
                adj[i] |= 1 << j

    best: tuple[float, int, tuple[int, ...]] | None = None

    def consider(members: tuple[int, ...], weight: float):
        nonlocal best
        key = (weight, len(members), tuple(-m for m in members))
        if best is None:
            best = (weight, len(members), members)
            return
        bkey = (best[0], best[1], tuple(-m for m in best[2]))
        if key > bkey:
            best = (weight, len(members), members)

    def extend(members: list[int], weight: float, allowed: int):
        # `allowed` holds nodes > members[-1] adjacent to every member
        v = allowed
        while v:
            node = (v & -v).bit_length() - 1
            v &= v - 1
            gain = sum(w[node, m] for m in members)
            new_members = members + [node]
            new_weight = weight + gain
            if len(new_members) >= 2:
                consider(tuple(new_members), new_weight)
            mask_higher = ~((1 << (node + 1)) - 1)
            extend(new_members, new_weight, allowed & adj[node] & mask_higher)

    for start in range(t):
        higher = ~((1 << (start + 1)) - 1)
        extend([start], 0.0, adj[start] & higher)

    if best is not None:
        return CliqueResult(best[2], float(best[0]))
    fallback = int(np.argmax(probs))
    return CliqueResult((fallback,), 0.0)


def finalize(
    basis: EigenBasis,
    candidates: CandidateSet,
    clique: CliqueResult,
    scores: CandidateScores,
    height_grid: np.ndarray,
    use_offsets: bool = True,
    use_heights: bool = True,
) -> list[Lane]:
    """Refine the clique's lanes in coefficient space and trim their height.

    Each member is rebuilt from its coefficients plus offset, then truncated
    at the most probable ending height: samples strictly above the chosen
    height bin are marked extrapolated. The two use_* switches exist for
    ablation runs and default to the full pipeline.
    """
    heights = np.asarray(height_grid, dtype=np.float64)
    if heights.ndim != 1 or heights.size != scores.height_distributions.shape[1]:
        raise ValueError("height_grid length must match the height distributions")
    if heights.size > 1 and not (
        np.all(np.diff(heights) > 0) or np.all(np.diff(heights) < 0)
    ):
        raise ValueError("height_grid must be strictly monotone")
    out = []
    for idx in clique.member_indices:
        if not 0 <= idx < candidates.k:
            raise IndexError(f"clique member {idx} outside candidate set")
        c = candidates.coefficients[idx]
        delta = scores.offsets[idx] if use_offsets else np.zeros_like(c)
        if delta.shape != c.shape:
            raise DimensionMismatch("offset length does not match coefficients")
        lane = reconstruct(basis, c + delta)
        if use_heights:
            bin_idx = int(np.argmax(scores.height_distributions[idx]))
            y_end = heights[bin_idx]
            top_index = int(np.count_nonzero(basis.grid.y_coords >= y_end))
            lane = lane.with_top_index(top_index)
        out.append(lane)
    return out


@dataclass(frozen=True)
class DetectionConfig:
    """Knobs for the per-image selection chain."""

    t: int = 10
    iou_threshold: float = 0.5
    kappa: float = 0.3
    stripe_width: int = DEFAULT_STRIPE_WIDTH
    min_probability: float | None = None
    use_offsets: bool = True
    use_heights: bool = True


def detect_image(
    basis: EigenBasis,
    candidates: CandidateSet,
    scores: CandidateScores,
    features: np.ndarray,
    height_grid: np.ndarray,
    config: DetectionConfig = DetectionConfig(),
) -> tuple[list[Lane], CliqueResult, list[int]]:
    """NMS -> relation -> clique selection -> refinement for one image.

    Returns (refined lanes, clique over the NMS picks, pick indices into the
    candidate set). The clique's member indices refer to positions in the
    pick list; the returned lanes are already mapped back.
    """
    picks = nms_select(
        candidates,
        scores,
        t=config.t,
        iou_threshold=config.iou_threshold,
        width=config.stripe_width,
        min_probability=config.min_probability,
    )
    if not picks:
        return [], CliqueResult((), 0.0), []
    relation = relation_from_features(np.asarray(features)[picks])
    clique = mwcs(relation, scores.probabilities[picks], config.kappa)
    chosen = [picks[i] for i in clique.member_indices]
    mapped = CliqueResult(tuple(chosen), clique.compatibility)
    lanes = finalize(
        basis,
        candidates,
        mapped,
        scores,
        height_grid,
        use_offsets=config.use_offsets,
        use_heights=config.use_heights,
    )
    return lanes, mapped, picks


def uniform_height_grid(grid, r: int = 25) -> np.ndarray:
    """R candidate ending heights spanning the sampling grid's y-range.

    Bin 0 sits at the bottom of the image (largest y, shortest lane) and the
    last bin at the grid's top, matching the grid's bottom-first convention.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return np.array([grid.y_coords[-1]])
    return np.linspace(grid.y_coords[0], grid.y_coords[-1], r)
