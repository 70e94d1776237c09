"""Sampled-lane representation, lane stacks, span stacks and stripe IoU.

A lane is a vector of x-coordinates sampled at a fixed ladder of image
heights (bottom of the image first). Lanes shorter than the ladder are
extended by linear extrapolation so every lane is a full N-vector; the
annotated extent is preserved in ``top_index``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, InvalidAnnotation, ValidationError

DEFAULT_STRIPE_WIDTH = 30
ENVELOPE_BLOCK_ROWS = 24  # image rows per block of a span envelope
MAX_IMAGE_SIDE = 2**31 - 1  # stripe spans hold image columns and rows as int32
MAX_ARRAY_BYTES = 2**28  # largest array an input-controlled size may ask for
SPAN_CHUNK_CELLS = 2**16  # lane x image-row cells SpanStack.of spans at once


def check_image_size(width, height) -> None:
    """ValidationError unless width and height are integers in [1, MAX_IMAGE_SIDE]."""
    for side in (width, height):
        if not isinstance(side, (int, np.integer)) or not 1 <= side <= MAX_IMAGE_SIDE:
            raise ValidationError(f"image size must be two integers in [1, {MAX_IMAGE_SIDE}]")


def check_positive_int(value, name: str) -> None:
    """ValidationError naming name unless value is an integer >= 1 (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValidationError(f"{name} must be an integer >= 1")


def check_stripe_width(width) -> None:
    """ValidationError unless width is an integer in [1, MAX_IMAGE_SIDE] (a bool is not one).

    No window is wider than the widest image, and the bound keeps the span
    build's window edges within int64.
    """
    check_positive_int(width, "stripe width")
    if width > MAX_IMAGE_SIDE:
        raise ValidationError(f"stripe width must be at most {MAX_IMAGE_SIDE}")


def check_budget(shape, itemsize: int, what: str) -> None:
    """ValidationError naming what when an array of shape and itemsize exceeds MAX_ARRAY_BYTES."""
    shape = tuple(map(int, shape))  # Python ints: exact products, plain message
    nbytes = math.prod(shape) * itemsize
    if nbytes > MAX_ARRAY_BYTES:
        raise ValidationError(f"{what} of shape {shape} would take {nbytes} bytes, "
                              f"over the {MAX_ARRAY_BYTES}-byte limit")


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
        check_positive_int(n_samples, "n_samples")
        check_image_size(image_width, image_height)
        ys = np.linspace(image_height - 1.0, 0.35 * image_height, n_samples)
        return cls(image_width, image_height, ys)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, SamplingGrid):
            return NotImplemented
        return (
            self.image_width == other.image_width
            and self.image_height == other.image_height
            and np.array_equal(self.y_coords, other.y_coords)
        )

    def __hash__(self):
        return hash((self.image_width, self.image_height, self.y_coords.tobytes()))

    @property
    def first_block(self) -> int:
        """The first ENVELOPE_BLOCK_ROWS-row block that holds an image row the ladder spans."""
        return int(np.ceil(self.y_coords[-1])) // ENVELOPE_BLOCK_ROWS

    @cached_property
    def row_plan(self):
        """The per-row recipe SpanStack.of follows, worked out once per grid object.

        (lower, upper, dy, dr, uncovered) describe the image rows from
        first_block to the last block. A row's x is (x[upper] - x[lower]) /
        dy * dr + x[lower], np.interp's arithmetic on the samples y[lower] <=
        row < y[upper]; on a row at a sample's height, or one the ladder does
        not span, upper == lower, dy == 1 and dr == 0. uncovered[t] marks the
        rows a lane with top_index t does not cover: all but those the ladder
        spans with lower < t.
        """
        y, block = self.y_coords, ENVELOPE_BLOCK_ROWS
        rows = np.arange(self.first_block * block, -(-self.image_height // block) * block,
                         dtype=np.float64)
        spanned = (y[-1] <= rows) & (rows <= y[0])
        lower = np.where(spanned, np.searchsorted(-y, -rows, side="left"), 0)
        between = spanned & (rows != y[lower])  # lower >= 1 here, because rows <= y[0]
        upper = np.where(between, lower - 1, lower)
        dy = np.where(between, y[upper] - y[lower], 1.0)
        dr = np.where(between, rows - y[lower], 0.0)
        uncovered = ~spanned | (lower >= np.arange(self.n_samples + 1)[:, None])
        return lower, upper, dy, dr, uncovered


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


@dataclass(frozen=True, eq=False)
class SpanStack:
    """Stripe spans of K lanes in row blocks, with pixel areas and envelopes; build with of().

    spans is (2, K, blocks, ENVELOPE_BLOCK_ROWS) int32: plane 0 holds the
    start and plane 1 the end column windows of each block of image rows,
    from the grid's first_block to the block holding the image's last row,
    zero past that row; of() writes each plane C-contiguous. The blocks above
    first_block hold no row the ladder spans, so no lane covers them and
    they are not stored. area is the (K,) int64 pixel count of each stripe.
    lo and hi are (K, blocks): per block, the minimum start and the maximum
    end over the rows the lane covers, or int32 max and 0 when it covers
    none. Two lanes that share a pixel on some row have envelopes that meet
    in that row's block: max(lo) < min(hi). width is the stripe width the
    lanes were spanned at. stack[rows] selects lanes.
    """

    spans: np.ndarray
    area: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    width: int

    @classmethod
    def of(cls, xs, top_index, grid: SamplingGrid, width: int) -> "SpanStack":
        """The span stack of lanes xs (K, N) and top_index (K,) sampled on grid.

        A lane covers the image rows at or below its last annotated sample.
        Its window on a covered row is the ``width`` contiguous pixel columns
        centered on its interpolated x, clipped to [0, image_width); every
        other row, and a fully clipped one, has start == end == 0. The x on a
        row uses np.interp's arithmetic on the two samples around it, so every
        lane's row is bit-identical to interpolating that lane on its own.
        width must be an integer in [1, MAX_IMAGE_SIDE], and the span planes
        must fit MAX_ARRAY_BYTES, checked before the grid's row plan is made.
        Lanes are spanned in chunks of about SPAN_CHUNK_CELLS lane rows, each
        written straight into the planes with its areas and envelopes, so the
        build peak is the stack plus one chunk's intermediates.
        """
        check_stripe_width(width)
        xs, top_index = np.asarray(xs, dtype=np.float64), np.asarray(top_index)
        k, image_width, block = xs.shape[0], grid.image_width, ENVELOPE_BLOCK_ROWS
        blocks = -(-grid.image_height // block) - grid.first_block
        check_budget((2, k, blocks, block), 4,
                     "stripe spans (start/end x lanes x blocks x block rows)")
        lower, upper, dy, dr, uncovered = grid.row_plan
        spans = np.empty((2, k, blocks * block), dtype=np.int32)
        area = np.empty(k, dtype=np.int64)
        lo = np.empty((k, blocks), dtype=np.int32)
        hi = np.empty_like(lo)
        firsts = np.arange(0, blocks * block, block)  # each block's first row in a plane row
        step = max(1, SPAN_CHUNK_CELLS // max(1, blocks * block))
        for c in range(0, k, step):
            lanes = slice(c, c + step)
            chunk = xs[lanes]
            base = chunk.take(lower, axis=1)
            x = chunk.take(upper, axis=1)
            # np.interp's arithmetic, which also overflows to +-inf silently on
            # finite samples more than float64's maximum apart; the clip maps inf
            with np.errstate(over="ignore"):
                x -= base
                x /= dy
                x *= dr
                x += base
            # a window a width off the image is empty either way; clipped, every finite x casts
            np.clip(x, -width, image_width + width, out=x)
            x -= width / 2.0
            x += 0.5
            s = np.floor(x, out=x).astype(np.int64)
            # uncovered rows and those clipped away on the right start at -width, so they
            # clip to 0 and 0, as do those clipped away on the left (s + width <= 0)
            gone = uncovered.take(top_index[lanes], axis=0)
            gone |= s >= image_width
            s[gone] = -width
            start, end = spans[0, lanes], spans[1, lanes]
            np.maximum(s, 0, out=start, casting="unsafe")  # every s is below image_width now
            s += width
            np.clip(s, 0, image_width, out=end, casting="unsafe")
            area[lanes] = (end - start).sum(axis=1)
            lo[lanes] = np.minimum.reduceat(np.where(end > start, start, np.iinfo(np.int32).max),
                                            firsts, axis=1)
            hi[lanes] = np.maximum.reduceat(end, firsts, axis=1)  # every uncovered row is zero
        spans = spans.reshape(2, k, blocks, block)
        for array in (spans, area, lo, hi):  # read-only: CandidateSet caches stacks for its lifetime
            array.setflags(write=False)
        return cls(spans, area, lo, hi, width)

    def __len__(self) -> int:
        return self.spans.shape[1]

    def __getitem__(self, rows) -> "SpanStack":
        return SpanStack(self.spans[:, rows], self.area[rows], self.lo[rows], self.hi[rows],
                         self.width)

    def iou_caps(self, query: "SpanStack") -> np.ndarray:
        """(K,) float64 upper bound on each lane's stripe IoU with the one lane of query.

        Each lane's shared pixels are bounded by b: on each of a block's
        ENVELOPE_BLOCK_ROWS rows, at most this stack's width and at most the
        overlap of the two envelopes, and no more than either area; query is
        a one-lane stack spanned at any width, since two windows never share
        more than the narrower one. The cap is b / (area_i + area_j - b), and
        0.0 where b == 0. IoU grows with the intersection and correctly
        rounded division is monotone, so no cap is below the IoU ious
        computes for its lane, bit for bit.
        """
        overlap = np.minimum(self.hi, query.hi) - np.maximum(self.lo, query.lo)
        np.clip(overlap, 0, self.width, out=overlap)
        bound = ENVELOPE_BLOCK_ROWS * overlap.sum(axis=1)
        np.minimum(np.minimum(bound, self.area, out=bound), query.area, out=bound)
        union = self.area + query.area - bound
        # the union is 0 only where both areas, and so b, are 0: that cap is 0 / 1
        return bound / np.maximum(union, 1, out=union)

    def ious(self, queries: "SpanStack") -> np.ndarray:
        """Stripe IoU of every (query, lane) pair, shape (len(queries), len(self)).

        Each query row intersects only the (lane, block) pairs whose
        envelopes meet; every other pair shares no pixel, and a lane with no
        such pair scores 0.0, as does a pair with an empty union. Because an
        uncovered block has lo = int32 max and hi = 0, lo < q.hi and q.lo < hi
        hold together exactly when the envelopes meet. Intersections and
        areas are integer pixel counts of the per-row column intervals,
        divided once in float64, so the table equals counting materialized
        pixel masks. The table must fit MAX_ARRAY_BYTES.
        """
        k, blocks = self.lo.shape
        check_budget((len(queries), k), 8, "stripe IoU table (queries x lanes)")
        starts, ends = self.spans.reshape(2, k * blocks, ENVELOPE_BLOCK_ROWS)
        out = np.zeros((len(queries), k))
        for q in range(len(queries)):
            meet = np.flatnonzero((self.lo < queries.hi[q]) & (queries.lo[q] < self.hi))
            block = meet % blocks
            inter = np.minimum(ends.take(meet, axis=0), queries.spans[1, q].take(block, axis=0))
            start = np.maximum(starts.take(meet, axis=0), queries.spans[0, q].take(block, axis=0))
            inter -= np.minimum(start, inter, out=start)  # end - start, or 0 where it is negative
            # pixel counts stay below 2**53, so the float64 sums are exact
            inter = np.bincount(meet // blocks, weights=np.einsum("ij->i", inter, dtype=np.int64),
                                minlength=k)
            np.divide(inter, self.area + queries.area[q] - inter, out=out[q], where=inter > 0)
        return out


def stripe_ious(rows, cols, width: int = DEFAULT_STRIPE_WIDTH) -> np.ndarray:
    """Stripe IoU of every (row lane, column lane) pair, shape (len(rows), len(cols)).

    Both sides are stacked and spanned once, and the shorter side is the
    kernel's queries. Raises GridMismatch when the lanes were sampled on more
    than one grid, even if one side is empty.
    """
    rows, cols = list(rows), list(cols)
    lanes = rows + cols
    if not lanes:
        return np.zeros((0, 0))
    grid = lanes[0].grid
    spans = SpanStack.of(*stack_lanes(lanes, grid), grid, width)
    if len(rows) <= len(cols):  # ious loops over its queries, and the integer IoU is symmetric
        return spans[len(rows):].ious(spans[: len(rows)])
    return spans[: len(rows)].ious(spans[len(rows):]).T


def stripe_iou(a: Lane, b: Lane, width: int = DEFAULT_STRIPE_WIDTH) -> float:
    """Intersection over union of the two lanes' stripes; 0.0 when the union is empty."""
    return float(stripe_ious([a], [b], width)[0, 0])

