"""Detection-time selection stages over externally supplied scores.

The stages mirror an anchor-based detector head: greedy NMS on lane
probabilities, a pairwise relation matrix over the survivors, exact
maximum-weight-clique selection with a single-node fallback, and final
coefficient-space plus height refinement. No learning happens here;
probabilities, height distributions, offsets and feature vectors arrive
through the scores contract.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .candidates import CandidateSet
from .errors import DimensionMismatch, EmptyInput, TooManyNodes, ValidationError
from .eigenspace import EigenBasis, reconstruct
from .geometry import DEFAULT_STRIPE_WIDTH, Lane, check_positive_int, check_stripe_width

# The exact clique search is a branch and bound whose worst case still
# grows as 2^T (mixed-sign complete graphs at kappa=-1 take 0.2-1.2 s at 25);
# NMS keeps the node count at T (default 10) anyway.
MAX_CLIQUE_NODES = 25


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
            raise ValidationError("probabilities must be 1-D")
        k = p.size
        if np.any(p < 0) or np.any(p > 1):
            raise ValidationError("probabilities must lie in [0, 1]")
        if h.shape[:1] != (k,) or h.ndim != 2:
            raise ValidationError("height_distributions must be (K, R)")
        if np.any(np.abs(h.sum(axis=1) - 1.0) > 1e-6):
            raise ValidationError("each height distribution must sum to 1")
        if o.shape[:1] != (k,) or o.ndim != 2:
            raise ValidationError("offsets must be (K, m)")
        for name, arr in (("probabilities", p), ("heights", h), ("offsets", o)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must be finite")
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
            raise ValidationError("clique members must be distinct")


def _check_nms_settings(t, iou_threshold, width, min_probability) -> None:
    check_positive_int(t, "t")
    check_stripe_width(width)
    if not 0.0 < iou_threshold <= 1.0:
        raise ValidationError("iou_threshold must be in (0, 1]")
    if not 0.0 <= min_probability <= 1.0:
        raise ValidationError("min_probability must be in [0, 1]")


def nms_select(
    candidates: CandidateSet,
    scores: CandidateScores,
    t: int = 10,
    iou_threshold: float = 0.5,
    width: int = DEFAULT_STRIPE_WIDTH,
    min_probability: float = 0.0,
) -> list[int]:
    """Greedy probability-ranked selection with stripe-IoU suppression.

    Repeatedly picks the highest-probability remaining candidate (ties go to
    the lowest index) and discards candidates whose stripe IoU with any pick
    exceeds iou_threshold, until t picks are made, nothing remains or the
    best remaining probability is below min_probability. The default 0.0
    never stops early, which trades false positives for fewer false
    negatives.
    """
    _check_nms_settings(t, iou_threshold, width, min_probability)
    if scores.k != candidates.k:
        raise DimensionMismatch("scores and candidates disagree on K")
    # the probabilities of the candidates still alive; -inf marks picked and
    # suppressed ones, and lies below every min_probability
    masked = scores.probabilities.copy()
    picks: list[int] = []
    while len(picks) < t:
        best = int(np.argmax(masked))
        if masked[best] < min_probability:
            break
        picks.append(best)
        masked[best] = -np.inf
        masked[candidates.suppressed(best, width, iou_threshold)] = -np.inf
    return picks


def relation_from_features(features: np.ndarray) -> np.ndarray:
    """Pairwise cosine relation scores between per-lane feature vectors.

    Returns the dense (T, T) relation matrix. Rows are l2-normalized before
    the Gram product, so every entry lands in [-1, 1]. All-zero feature rows
    carry no evidence: they relate 0 to everything. Features must be finite.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 1:
        raise EmptyInput("features must be a non-empty (T, C) matrix")
    if not np.isfinite(f).all():
        raise ValidationError("features must be finite")
    norms = np.linalg.norm(f, axis=1)
    zero = norms == 0
    safe = np.where(zero, 1.0, norms)
    unit = f / safe[:, None]
    relation = unit @ unit.T
    np.clip(relation, -1.0, 1.0, out=relation)
    relation[zero, :] = 0.0
    relation[:, zero] = 0.0
    return relation


def _edge_weights(relation: np.ndarray) -> np.ndarray:
    r = np.asarray(relation, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValidationError("relation matrix must be square")
    if not np.isfinite(r).all():
        raise ValidationError("relation matrix must be finite")
    return 0.5 * (r + r.T)


def mwcs(
    relation: np.ndarray, probabilities: np.ndarray, kappa: float
) -> CliqueResult:
    """Exact maximum-weight clique over the thresholded relation graph.

    Edge weights are the symmetrized relation scores; only edges with weight
    strictly above kappa are allowed inside a clique. Among feasible cliques
    of size >= 2 the one with the largest total edge weight wins (ties: more
    members, then lexicographically smallest index set). When no feasible
    clique exists the highest-probability single node is returned.

    The search is a depth-first branch and bound in ascending node order: a
    subtree is skipped only when an upper bound on its cliques' weight, plus
    a rounding allowance, shows that none of them can tie or beat the best
    clique found so far, so the result is the full enumeration's, bit for bit.
    The parent checks the bound before entering a subtree: the weight so far,
    the positive gains of the remaining nodes, and every positive allowed
    edge from a remaining node to any higher node.
    """
    w = _edge_weights(relation)
    t = w.shape[0]
    if t > MAX_CLIQUE_NODES:
        raise TooManyNodes(f"T={t} exceeds the exact clique search bound {MAX_CLIQUE_NODES}")
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.shape != (t,):
        raise DimensionMismatch("need one probability per node")
    if not np.isfinite(probs).all():
        raise ValidationError("probabilities must be finite")
    if not -1.0 <= kappa <= 1.0:
        raise ValidationError("kappa must be in [-1, 1]")

    rows = w.tolist()
    edges = (w > kappa) & ~np.eye(t, dtype=bool)
    adj = (edges @ (1 << np.arange(t))).tolist()
    up = np.triu(np.where(edges, w, 0.0))  # allowed edges to higher nodes
    # every clique sum and the bound add at most ~300 of the allowed edges in
    # some order, so neither strays from its exact value by more than ~1e-13
    # of their absolute mass; the bound gets ten times that as slack
    slack = 1e-12 * float(np.abs(up).sum())
    # reach[v] sums v's positive allowed up-edges, wherever they lead
    reach = np.maximum(up, 0.0).sum(axis=1).tolist()
    # (weight, size, negated members): max prefers the heavier clique, then
    # the larger one, then the lexicographically smallest index set
    best = (-math.inf, 0, ())

    def extend(members: tuple[int, ...], weight: float, allowed: int, gains: list[float]):
        # `allowed` holds nodes > members[-1] adjacent to every member;
        # gains[v] is v's edge weight to the members, added in member order
        nonlocal best
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            node = low.bit_length() - 1
            # gains[node] is sum(rows[node][m] for m in members), bit for bit
            total = weight + gains[node]
            if members and total >= best[0]:
                grown = members + (node,)
                best = max(best, (total, len(grown), tuple(-m for m in grown)))
            # what is left of `allowed` lies above node
            if not (deeper := allowed & adj[node]):
                continue
            # the child's positive gains, each rounded as the child will hold
            # it, and every positive up-edge of the remaining nodes
            row, bound, bits = rows[node], total + slack, deeper
            while bits:
                v = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                if (g := gains[v] + row[v]) > 0:
                    bound += g
                bound += reach[v]
            # skip the subtree if no clique in it can tie the best on weight and size
            size = len(members) + 1 + deeper.bit_count()
            if bound < best[0] or bound == best[0] and size < best[1]:
                continue
            extend(members + (node,), total, deeper, list(map(operator.add, gains, row)))

    extend((), 0.0, (1 << t) - 1, [0.0] * t)
    if best[1]:
        return CliqueResult(tuple(-m for m in best[2]), best[0])
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
        raise ValidationError("height_grid length must match the height distributions")
    if not np.all(np.isfinite(heights)) or heights.size > 1 and not (
        np.all(np.diff(heights) > 0) or np.all(np.diff(heights) < 0)
    ):
        raise ValidationError("height_grid must be finite and strictly monotone")
    members = np.asarray(clique.member_indices, dtype=np.int64)
    if np.any((members < 0) | (members >= candidates.k)):
        raise IndexError(f"clique members {members.tolist()} reach outside the candidate set")
    coefficients = candidates.coefficients[members]
    if use_offsets:
        offsets = scores.offsets[members]
        if offsets.shape != coefficients.shape:
            raise DimensionMismatch("offset length does not match coefficients")
        coefficients = coefficients + offsets
    top_index = np.full(members.size, basis.grid.n_samples)
    if use_heights:
        y_end = heights[np.argmax(scores.height_distributions[members], axis=1)]
        # samples at or below y_end: a prefix of the bottom-first ladder
        top_index = np.searchsorted(-basis.grid.y_coords, -y_end, side="right")
    xs = reconstruct(basis, coefficients)
    return [Lane(row, top, basis.grid) for row, top in zip(xs, top_index)]


@dataclass(frozen=True)
class DetectionConfig:
    """Knobs for the per-image selection chain."""

    t: int = 10
    iou_threshold: float = 0.5
    kappa: float = 0.3
    stripe_width: int = DEFAULT_STRIPE_WIDTH
    min_probability: float = 0.0
    use_offsets: bool = True
    use_heights: bool = True

    def __post_init__(self):
        # checked up front: NMS and mwcs alone would refuse them only on some image
        _check_nms_settings(self.t, self.iou_threshold, self.stripe_width, self.min_probability)
        if self.t > MAX_CLIQUE_NODES:
            raise TooManyNodes(f"t={self.t} exceeds the exact clique search bound {MAX_CLIQUE_NODES}")
        if not -1.0 <= self.kappa <= 1.0:
            raise ValidationError("kappa must be in [-1, 1]")


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
    features = np.asarray(features)
    if features.shape[:1] != (candidates.k,):
        raise DimensionMismatch("features must have one row per candidate")
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
    relation = relation_from_features(features[picks])
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
    check_positive_int(r, "r")
    if r == 1:
        return np.array([grid.y_coords[-1]])
    return np.linspace(grid.y_coords[0], grid.y_coords[-1], r)
