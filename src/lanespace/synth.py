"""Synthetic road-scene generator for desk-scale experiments.

Produces annotation records with 1 to 5 lanes per image drawn from three
shape families: straight lines converging toward a per-image vanishing
point, laterally shifted circular arcs sharing one radius, and S-curves
built by integrating a curvature profile that flips sign at an inflection
row. Everything is a pure function of the SyntheticSpec fields (seed
included), so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import DatasetRecord
from .errors import ValidationError
from .geometry import check_image_size

FAMILIES = ("straight", "arc", "s_curve")
MAX_LANES = 5
SPACING_RANGE = (168.0, 182.0)  # pixels between neighbouring lane bottoms
# fraction of image height, measured from the top, inside which lane ending
# points fall; lanes always start at the bottom image row
TOP_BAND = (0.35, 0.45)
CENTER_JITTER = 60.0  # pixels the lane block's centre moves off the image axis
POINT_STEP = 10.0  # pixel rows between annotated points


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the generator.

    weights orders the family mix as (straight, arc, s_curve); curvature is
    sampled uniformly from curvature_range (1/pixels) for the curved
    families.
    """

    count: int
    seed: int = 0
    image_size: tuple[int, int] = (1280, 720)
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    curvature_range: tuple[float, float] = (1.8e-3, 3.5e-3)

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError("count must be >= 1")
        check_image_size(*self.image_size)
        if len(self.weights) != 3 or not all(0 <= w < np.inf for w in self.weights):
            raise ValidationError("weights must be 3 finite non-negative numbers")
        if not 0 < sum(self.weights) < np.inf:
            raise ValidationError("weights must have a positive finite sum")
        lo, hi = self.curvature_range
        if not (0 < lo <= hi) or not np.isfinite(hi):
            raise ValidationError("curvature_range must be finite and positive")


def _straight_lanes(rng, spec, bottoms, y_tops):
    w, h = spec.image_size
    vx = rng.uniform(0.47 * w, 0.53 * w)
    vy = rng.uniform(0.08 * h, 0.12 * h)
    lanes = []
    for xb, y_top in zip(bottoms, y_tops):
        ys = np.arange(h - 1.0, y_top, -POINT_STEP)
        frac = (h - 1.0 - ys) / (h - 1.0 - vy)
        xs = xb + (vx - xb) * frac
        lanes.append(np.column_stack([xs, ys]))
    return lanes


def _arc_lanes(rng, spec, bottoms, y_tops):
    _, h = spec.image_size
    curvature = rng.uniform(*spec.curvature_range)
    radius = 1.0 / curvature
    side = 1.0 if rng.random() < 0.5 else -1.0
    span_top = min(y_tops)
    # circle center height must keep |y - cy| < radius over the whole span
    cy = rng.uniform((h - 1.0) - 0.97 * radius, span_top + 0.97 * radius)
    lanes = []
    for xb, y_top in zip(bottoms, y_tops):
        cx = xb - side * np.sqrt(radius**2 - (h - 1.0 - cy) ** 2)
        ys = np.arange(h - 1.0, y_top, -POINT_STEP)
        xs = cx + side * np.sqrt(radius**2 - (ys - cy) ** 2)
        lanes.append(np.column_stack([xs, ys]))
    return lanes


def _s_curve_lanes(rng, spec, bottoms, y_tops):
    _, h = spec.image_size
    k1 = rng.uniform(*spec.curvature_range) * (1.0 if rng.random() < 0.5 else -1.0)
    k2 = -k1 * rng.uniform(0.8, 1.2)
    slope0 = rng.uniform(-0.15, 0.15)
    span_top = min(y_tops)
    y_inflect = rng.uniform(span_top + 0.25 * (h - 1 - span_top), h - 1 - 0.25 * (h - 1 - span_top))
    step = 4.0
    ys = np.arange(h - 1.0, span_top, -step)
    # integrate the graph-curvature ODE dm/dy = -k(y) (1 + m^2)^(3/2)
    xs_rel = np.empty_like(ys)
    xs_rel[0] = 0.0
    m = slope0
    for i in range(1, len(ys)):
        k = k1 if ys[i - 1] > y_inflect else k2
        m = m - k * (1.0 + m * m) ** 1.5 * (-step)
        m = float(np.clip(m, -2.5, 2.5))
        xs_rel[i] = xs_rel[i - 1] + m * (ys[i] - ys[i - 1])
    lanes = []
    for xb, y_top in zip(bottoms, y_tops):
        keep = ys > y_top
        pts = np.column_stack([xb + xs_rel[keep], ys[keep]])
        lanes.append(pts)
    return lanes


_BUILDERS = {
    "straight": _straight_lanes,
    "arc": _arc_lanes,
    "s_curve": _s_curve_lanes,
}


def _make_record(rng, spec: SyntheticSpec, index: int) -> DatasetRecord:
    w, h = spec.image_size
    probs = np.asarray(spec.weights, dtype=np.float64)
    probs = probs / probs.sum()
    family = FAMILIES[int(rng.choice(3, p=probs))]
    for _ in range(60):
        n_lanes = int(rng.integers(1, MAX_LANES + 1))
        spacing = rng.uniform(*SPACING_RANGE)
        block = spacing * (n_lanes - 1)
        margin = 40.0
        if block > w - 2 * margin:
            continue
        # lane blocks sit near the camera axis, the way an ego view does
        center = w / 2.0 + rng.uniform(-CENTER_JITTER, CENTER_JITTER)
        x0 = np.clip(center - block / 2.0, margin, w - margin - block)
        bottoms = x0 + spacing * np.arange(n_lanes) + rng.uniform(
            -5.0, 5.0, size=n_lanes
        )
        lo, hi = TOP_BAND
        y_tops = rng.uniform(lo * h, hi * h, size=n_lanes)
        lanes = _BUILDERS[family](rng, spec, bottoms, y_tops)
        if all(
            lane.shape[0] >= 2
            and np.all(lane[:, 0] >= 1.0)
            and np.all(lane[:, 0] <= w - 2.0)
            for lane in lanes
        ):
            return DatasetRecord(
                image_id=f"synth_{index:05d}",
                image_size=(w, h),
                lanes=lanes,
                category=family,
            )
    # fall back to a single safe vertical lane rather than loop forever
    ys = np.arange(h - 1.0, 0.4 * h, -POINT_STEP)
    xs = np.full_like(ys, w / 2.0)
    return DatasetRecord(
        image_id=f"synth_{index:05d}",
        image_size=(w, h),
        lanes=[np.column_stack([xs, ys])],
        category="straight",
    )


def generate_synthetic(spec: SyntheticSpec) -> list[DatasetRecord]:
    """Generate spec.count annotation records, deterministically."""
    rng = np.random.default_rng(spec.seed)
    return [_make_record(rng, spec, i) for i in range(spec.count)]
