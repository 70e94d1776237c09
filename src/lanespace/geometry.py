"""Sampled-lane representation, lane stacks, stripe spans and stripe IoU.

A lane is a vector of x-coordinates sampled at a fixed ladder of image
heights (bottom of the image first). Lanes shorter than the ladder are
extended by linear extrapolation so every lane is a full N-vector; the
annotated extent is preserved in ``top_index``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidAnnotation, ValidationError

DEFAULT_STRIPE_WIDTH = 30
ENVELOPE_BLOCK_ROWS = 24  # image rows per block of a span envelope
MAX_IMAGE_SIDE = 2**31 - 1  # stripe spans hold image columns and rows as int32


def check_image_size(width, height) -> None:
    """ValidationError unless width and height are integers in [1, MAX_IMAGE_SIDE]."""
    for side in (width, height):
        if not isinstance(side, (int, np.integer)) or not 1 <= side <= MAX_IMAGE_SIDE:
            raise ValidationError(f"image size must be two integers in [1, {MAX_IMAGE_SIDE}]")


@dataclass(frozen=True, eq=False)
class SamplingGrid:
    """Shared vertical sampling ladder for all lanes in one dataset.

    y_coords are strictly decreasing pixel heights: index 0 is the sample
    nearest the camera (bottom of the image).
    """

    image_width: int
    image_height: int
    y_coords: np.ndarray

    def __post_init__(self):
        check_image_size(self.image_width, self.image_height)
        ys = np.asarray(self.y_coords, dtype=np.float64)
        if ys.ndim != 1 or ys.size < 1:
            raise ValidationError("y_coords must be a non-empty 1-D array")
        if not np.all(np.isfinite(ys)):
            raise ValidationError("y_coords must be finite")
        if ys.size > 1 and not np.all(np.diff(ys) < 0):
            raise ValidationError("y_coords must be strictly decreasing (bottom first)")
        if ys[0] >= self.image_height or ys[-1] < 0:
            raise ValidationError("y_coords must lie within [0, image_height)")
        ys.setflags(write=False)
        object.__setattr__(self, "y_coords", ys)

    @property
    def n_samples(self) -> int:
        return int(self.y_coords.size)

    @classmethod
    def uniform(cls, image_width: int, image_height: int, n_samples: int) -> "SamplingGrid":
        """n_samples evenly spaced rows from the bottom row up to 0.35 * image_height.

        The ladder covers the lower two thirds of the image, which is where
        road surface normally sits; other ladders come from the constructor.
        """
        if n_samples < 1:
            raise ValidationError("n_samples must be positive")
        check_image_size(image_width, image_height)
        ys = np.linspace(image_height - 1.0, 0.35 * image_height, n_samples)
        return cls(image_width, image_height, ys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SamplingGrid):
            return NotImplemented
        return (
            self.image_width == other.image_width
            and self.image_height == other.image_height
            and np.array_equal(self.y_coords, other.y_coords)
        )

    def __hash__(self):
        return hash((self.image_width, self.image_height, self.y_coords.tobytes()))


def lane_arrays(xs, top_index, grid: SamplingGrid) -> tuple[np.ndarray, np.ndarray]:
    """Checked read-only float64 xs and int64 top_index of one lane or a stack.

    xs must have shape top_index.shape + (N,): (N,) with a scalar top_index
    for one lane, (K, N) with a (K,) top_index for a stack. Every xs value
    must be finite and every top_index must lie in [0, N].
    """
    xs = np.asarray(xs, dtype=np.float64)
    top_index = np.asarray(top_index)
    if xs.shape != top_index.shape + (grid.n_samples,):
        raise ValidationError("xs length must equal grid.n_samples")
    if not np.isfinite(xs).all():
        raise ValidationError("lane coordinates must be finite")
    if not ((0 <= top_index) & (top_index <= grid.n_samples)).all():
        raise ValidationError("top_index out of range")
    top_index = top_index.astype(np.int64)
    xs.setflags(write=False)
    top_index.setflags(write=False)
    return xs, top_index


@dataclass(frozen=True, eq=False)
class Lane:
    """One lane sampled on a grid.

    xs holds a finite x-coordinate for every grid height, including the
    extrapolated region; samples at indices >= top_index were not annotated.
    top_index == n_samples means the lane is annotated over the full grid.
    """

    xs: np.ndarray
    top_index: int
    grid: SamplingGrid

    def __post_init__(self):
        xs, top_index = lane_arrays(self.xs, self.top_index, self.grid)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "top_index", int(top_index))

    def valid_points(self) -> np.ndarray:
        """Annotated (x, y) pairs, bottom first, shape (top_index, 2)."""
        k = self.top_index
        return np.column_stack([self.xs[:k], self.grid.y_coords[:k]])


def resample_polyline(points, grid: SamplingGrid) -> Lane:
    """Resample an annotation polyline onto the grid heights.

    Grid heights inside the polyline's y-span are linear interpolations of
    the polyline; heights outside the span are filled by extending the line
    through the two nearest annotated points. top_index marks the boundary
    between the annotated and the upward-extrapolated region.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise InvalidAnnotation("polyline needs at least 2 (x, y) points")
    if not np.all(np.isfinite(pts)):
        raise InvalidAnnotation("polyline coordinates must be finite")
    order = np.argsort(pts[:, 1], kind="stable")
    ys = pts[order, 1]
    xs = pts[order, 0]
    if ys[-1] - ys[0] <= 0:
        raise InvalidAnnotation("polyline y-span is degenerate")

    gy = grid.y_coords
    out = np.interp(gy, ys, xs)

    # extend beyond the annotated span along the end segments
    low = gy < ys[0]
    if np.any(low):
        i = int(np.searchsorted(ys, ys[0], side="right"))
        i = min(max(i, 1), len(ys) - 1)
        slope = (xs[i] - xs[0]) / (ys[i] - ys[0])
        out[low] = xs[0] + slope * (gy[low] - ys[0])
    high = gy > ys[-1]
    if np.any(high):
        j = int(np.searchsorted(ys, ys[-1], side="left")) - 1
        j = min(max(j, 0), len(ys) - 2)
        slope = (xs[-1] - xs[j]) / (ys[-1] - ys[j])
        out[high] = xs[-1] + slope * (gy[high] - ys[-1])

    # grid is bottom-first (decreasing y): the annotated block ends at the
    # last sample whose height is still at or below the polyline's far end
    inside = gy >= ys[0]
    top_index = int(np.count_nonzero(inside))
    return Lane(out, top_index, grid)


def stack_lanes(lanes, grid: SamplingGrid) -> tuple[np.ndarray, np.ndarray]:
    """Stack lanes sampled on ``grid`` into xs (K, N) and top_index (K,).

    Raises GridMismatch when any lane was sampled on another grid.
    """
    lanes = list(lanes)
    if any(lane.grid != grid for lane in lanes):
        raise GridMismatch("lanes sampled on different grids")
    xs = np.array([lane.xs for lane in lanes], dtype=np.float64)
    top_index = np.array([lane.top_index for lane in lanes], dtype=np.int64)
    return xs.reshape(len(lanes), grid.n_samples), top_index


def stripe_spans(
    xs: np.ndarray, top_index: np.ndarray, grid: SamplingGrid, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-image-row stripe column windows of a lane stack.

    xs (K, N) and top_index (K,) hold K lanes sampled on ``grid``. Returns
    (start, end) int32 arrays of shape (K, image_height); rows outside a
    lane's valid extent (or fully clipped) have start == end == 0. The window
    on a covered row is the ``width`` contiguous pixel columns centered on
    the lane's interpolated x, clipped to [0, image_width). The x on a row
    uses np.interp's arithmetic on the two samples around it, so every lane's
    row is bit-identical to interpolating that lane on its own.
    """
    if width < 1:
        raise ValidationError("stripe width must be >= 1")
    xs = np.asarray(xs, dtype=np.float64)
    k = xs.shape[0]
    start = np.zeros((k, grid.image_height), dtype=np.int32)
    end = np.zeros_like(start)
    y = grid.y_coords
    row_lo, row_hi = int(np.ceil(y[-1])), int(np.floor(y[0]))
    if row_lo > row_hi:
        return start, end
    rows = np.arange(row_lo, row_hi + 1, dtype=np.float64)
    # y[seg] <= row < y[seg - 1]; rows in the band keep seg < N
    seg = np.searchsorted(-y, -rows, side="left")
    x = xs[:, seg]
    between = rows != y[seg]  # seg >= 1 here, because rows <= y[0]
    i = seg[between]
    lower = xs[:, i]
    slope = xs[:, i - 1] - lower
    slope /= y[i - 1] - y[i]
    slope *= rows[between] - y[i]
    slope += lower
    x[:, between] = slope
    s = np.floor(x - width / 2.0 + 0.5).astype(np.int64)
    e = s + width
    np.clip(s, 0, grid.image_width, out=s)
    np.clip(e, 0, grid.image_width, out=e)
    # a lane covers the rows at or below its last annotated sample: seg < top_index
    off = (s >= e) | (seg[None, :] >= np.asarray(top_index)[:, None])
    s[off] = 0
    e[off] = 0
    start[:, row_lo : row_hi + 1] = s
    end[:, row_lo : row_hi + 1] = e
    return start, end


def span_envelopes(start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-block column bounds of span rows of shape (..., image_height).

    For each block of ENVELOPE_BLOCK_ROWS image rows (the last block may be
    shorter), lo is the minimum start and hi the maximum end over the rows
    the lane covers (start < end). A block with no covered row gets
    lo == int32 max and hi == 0, so it intersects nothing. Two lanes whose
    stripes share a pixel on some row have intersecting envelopes in that
    row's block: max(lo) < min(hi).
    """
    covered = end > start
    empty = np.iinfo(np.int32).max
    lo = np.where(covered, start, empty)
    hi = np.where(covered, end, 0)
    blocks = -(-start.shape[-1] // ENVELOPE_BLOCK_ROWS)
    pad = [(0, 0)] * (start.ndim - 1) + [(0, blocks * ENVELOPE_BLOCK_ROWS - start.shape[-1])]
    shape = start.shape[:-1] + (blocks, ENVELOPE_BLOCK_ROWS)
    lo = np.pad(lo, pad, constant_values=empty).reshape(shape).min(axis=-1)
    hi = np.pad(hi, pad, constant_values=0).reshape(shape).max(axis=-1)
    return lo, hi


def batch_iou_one_vs_many(
    span: tuple[np.ndarray, np.ndarray],
    many: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """IoU of one lane's spans against a (K, H) span stack, vectorized.

    Computed in closed form from per-row integer column intervals, which is
    exactly equivalent to materializing the pixel masks and counting. A pair
    with an empty union scores 0.0.
    """
    s, e = span
    ms, me = many
    inter = np.minimum(me, e[None, :]) - np.maximum(ms, s[None, :])
    np.clip(inter, 0, None, out=inter)
    inter = inter.sum(axis=1)
    area = int(np.sum(e - s))
    areas = (me - ms).sum(axis=1)
    union = areas + area - inter
    out = np.zeros(ms.shape[0], dtype=np.float64)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out


def stripe_iou(a: Lane, b: Lane, width: int = DEFAULT_STRIPE_WIDTH) -> float:
    """Intersection over union of the two lanes' stripes.

    Returns 0.0 when the union is empty.
    """
    starts, ends = stripe_spans(*stack_lanes([a, b], a.grid), a.grid, width)
    return float(batch_iou_one_vs_many((starts[0], ends[0]), (starts[1:], ends[1:]))[0])


def stripe_iou_pixelcount(a: Lane, b: Lane, width: int = DEFAULT_STRIPE_WIDTH) -> float:
    """Audit-mode stripe IoU that materializes boolean pixel masks."""
    grid = a.grid
    starts, ends = stripe_spans(*stack_lanes([a, b], grid), grid, width)
    cols = np.arange(grid.image_width)
    mask_a, mask_b = (starts[:, :, None] <= cols) & (cols < ends[:, :, None])
    union = np.count_nonzero(mask_a | mask_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(mask_a & mask_b) / union
