import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import candidate_lanes, row_spans
from lanespace import (
    GridMismatch,
    InvalidAnnotation,
    Lane,
    LaneMatrix,
    SamplingGrid,
    SyntheticSpec,
    ValidationError,
    build_basis,
    generate_synthetic,
    resample_polyline,
    stripe_iou,
    stripe_ious,
    uniform_height_grid,
)
from lanespace.geometry import (
    DEFAULT_STRIPE_WIDTH,
    ENVELOPE_BLOCK_ROWS,
    MAX_ARRAY_BYTES,
    SpanStack,
    check_budget,
    stack_lanes,
)


def interp_oracle(points, y):
    """Scalar piecewise-linear interpolation with end-segment extension."""
    pts = sorted(points, key=lambda p: p[1])
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    if y <= ys[0]:
        i = next(k for k in range(1, len(ys)) if ys[k] > ys[0])
        slope = (xs[i] - xs[0]) / (ys[i] - ys[0])
        return xs[0] + slope * (y - ys[0])
    if y >= ys[-1]:
        j = max(k for k in range(len(ys) - 1) if ys[k] < ys[-1])
        slope = (xs[-1] - xs[j]) / (ys[-1] - ys[j])
        return xs[-1] + slope * (y - ys[-1])
    for k in range(len(ys) - 1):
        if ys[k] <= y <= ys[k + 1]:
            w = (y - ys[k]) / (ys[k + 1] - ys[k])
            return xs[k] * (1 - w) + xs[k + 1] * w
    raise AssertionError("unreachable")


def loop_stripe_spans(lane, width):
    """Reference: one lane's spans from np.interp over its covered rows."""
    h = lane.grid.image_height
    start = np.zeros(h, dtype=np.int32)
    end = np.zeros(h, dtype=np.int32)
    k = lane.top_index
    if k == 0:
        return start, end
    y_valid = lane.grid.y_coords[:k]
    x_valid = lane.xs[:k]
    row_lo = max(int(np.ceil(y_valid[-1])), 0)
    row_hi = min(int(np.floor(y_valid[0])), h - 1)
    if row_lo > row_hi:
        return start, end
    rows = np.arange(row_lo, row_hi + 1)
    x_at_rows = np.interp(rows, y_valid[::-1], x_valid[::-1])
    s = np.floor(x_at_rows - width / 2.0 + 0.5).astype(np.int64)
    e = s + width
    s = np.clip(s, 0, lane.grid.image_width)
    e = np.clip(e, 0, lane.grid.image_width)
    empty = s >= e
    s[empty] = 0
    e[empty] = 0
    start[rows] = s
    end[rows] = e
    return start, end


def spans_of(lane, width):
    """Row of a one-lane stack: (start, end) of length image_height."""
    starts, ends = row_spans(*stack_lanes([lane], lane.grid), lane.grid, width)
    return starts[0], ends[0]


def stripe_iou_pixelcount(a, b, width=DEFAULT_STRIPE_WIDTH):
    """Audit stripe IoU that counts boolean pixel masks built from the span stack's windows."""
    grid = a.grid
    starts, ends = row_spans(*stack_lanes([a, b], grid), grid, width)
    cols = np.arange(grid.image_width)
    mask_a, mask_b = (starts[:, :, None] <= cols) & (cols < ends[:, :, None])
    union = np.count_nonzero(mask_a | mask_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(mask_a & mask_b) / union


def covered_rows(lane, width):
    start, end = spans_of(lane, width)
    return np.nonzero(start < end)[0]


class TestSamplingGrid:
    def test_uniform_is_bottom_first(self, grid):
        assert grid.n_samples == 50
        assert grid.y_coords[0] > grid.y_coords[-1]
        assert np.all(np.diff(grid.y_coords) < 0)

    def test_equality_is_fieldwise(self, grid):
        other = SamplingGrid.uniform(1280, 720, 50)
        assert grid == other
        assert grid != SamplingGrid.uniform(1280, 720, 49)
        assert grid != SamplingGrid.uniform(1281, 720, 50)

    def test_equal_grids_give_byte_equal_stacks(self, grid):
        twin = SamplingGrid.uniform(1280, 720, 50)
        assert twin is not grid and twin == grid
        rng = np.random.default_rng(2)
        xs = rng.uniform(-100.0, 1380.0, size=(30, 1)) + np.cumsum(
            rng.normal(0.0, 20.0, size=(30, 50)), axis=1)
        top = rng.integers(0, 51, size=30)
        # lanes sampled on one grid, stacked and spanned on its twin
        stacked = stack_lanes([Lane(x, t, grid) for x, t in zip(xs, top)], twin)
        ours, theirs = SpanStack.of(*stacked, twin, 30), SpanStack.of(xs, top, grid, 30)
        for name in ("spans", "area", "lo", "hi"):
            a, b = getattr(ours, name), getattr(theirs, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_rejects_increasing_y(self):
        with pytest.raises(ValueError):
            SamplingGrid(100, 100, np.array([10.0, 20.0, 30.0]))

    def test_rejects_out_of_range_y(self):
        with pytest.raises(ValueError):
            SamplingGrid(100, 100, np.array([120.0, 50.0]))


class TestResamplePolyline:
    def test_vertical_segment_spanning_grid(self, grid):
        lane = resample_polyline([(100.0, 719.0), (100.0, 200.0)], grid)
        assert np.allclose(lane.xs, 100.0)
        assert lane.top_index == grid.n_samples

    def test_two_point_line_is_exact(self, grid):
        y0, y1 = grid.y_coords[0], grid.y_coords[-1]
        lane = resample_polyline([(100.0, y0), (200.0, y1)], grid)
        expected = 100.0 + (200.0 - 100.0) * (grid.y_coords - y0) / (y1 - y0)
        assert np.allclose(lane.xs, expected, atol=1e-9)
        assert lane.top_index == grid.n_samples

    def test_quadratic_polyline_matches_interp_oracle(self):
        grid = SamplingGrid(1280, 720, np.linspace(700.0, 300.0, 10))
        ys = np.linspace(710.0, 290.0, 20)
        xs = 600.0 + 0.002 * (ys - 500.0) ** 2
        points = list(zip(xs, ys))
        lane = resample_polyline(points, grid)
        expected = [interp_oracle(points, y) for y in grid.y_coords]
        assert np.allclose(lane.xs, expected, atol=1e-9)

    def test_extrapolation_marked_by_top_index(self, grid):
        # polyline stops half-way up the grid
        y_stop = grid.y_coords[len(grid.y_coords) // 2]
        lane = resample_polyline([(100.0, 719.0), (150.0, y_stop)], grid)
        inside = grid.y_coords >= y_stop
        assert lane.top_index == int(inside.sum())
        # extension continues the last segment's slope
        slope = (150.0 - 100.0) / (y_stop - 719.0)
        expected_top = 150.0 + slope * (grid.y_coords[-1] - y_stop)
        assert lane.xs[-1] == pytest.approx(expected_top, abs=1e-9)

    def test_resampling_own_samples_is_idempotent(self, grid):
        ys = np.linspace(719.0, 300.0, 23)
        xs = 500.0 + 40.0 * np.sin(ys / 90.0)
        lane = resample_polyline(np.column_stack([xs, ys]), grid)
        again = resample_polyline(
            np.column_stack([lane.xs, grid.y_coords]), grid
        )
        assert np.allclose(again.xs, lane.xs, atol=1e-9)
        assert again.top_index == grid.n_samples

    def test_too_few_points(self, grid):
        with pytest.raises(InvalidAnnotation):
            resample_polyline([(100.0, 700.0)], grid)

    def test_degenerate_y_span(self, grid):
        with pytest.raises(InvalidAnnotation):
            resample_polyline([(100.0, 700.0), (200.0, 700.0)], grid)


class TestRasterizeStripe:
    def test_vertical_lane_centered_window(self, make_vertical):
        start, end = spans_of(make_vertical(50.0), 30)
        rows = start < end
        assert np.all(start[rows] == 35)
        assert np.all(end[rows] == 65)

    def test_border_clipping(self, make_vertical):
        start, end = spans_of(make_vertical(5.0), 30)
        rows = start < end
        assert np.all(start[rows] == 0)
        assert np.all(end[rows] == 20)

    def test_rows_limited_to_valid_extent(self, grid, make_vertical):
        lane = make_vertical(200.0, top_index=10)
        rows = covered_rows(lane, 30)
        y_top_valid = grid.y_coords[9]
        assert rows.min() == int(np.ceil(y_top_valid))
        assert rows.max() == int(np.floor(grid.y_coords[0]))

    def test_empty_lane_yields_empty_mask(self, make_vertical):
        start, end = spans_of(make_vertical(200.0, top_index=0), 30)
        assert not np.any(start) and not np.any(end)

    def test_fully_clipped_lane_yields_empty_mask(self, grid):
        lane = Lane(np.full(grid.n_samples, -500.0), grid.n_samples, grid)
        start, end = spans_of(lane, 30)
        assert int(np.sum(end - start)) == 0

    def test_curved_lane_matches_pixel_distance_oracle(self):
        grid = SamplingGrid(120, 80, np.linspace(75.0, 12.0, 9))
        ys = np.linspace(78.0, 10.0, 30)
        xs = 60.0 + 25.0 * np.sin(ys / 17.0)
        lane = resample_polyline(np.column_stack([xs, ys]), grid)
        width = 14
        start, end = spans_of(lane, width)
        covered = {
            (row, c)
            for row in range(grid.image_height)
            for c in range(start[row], end[row])
        }
        # oracle: a pixel is covered when its column falls in the width-window
        # around the lane's interpolated x on that row (row-window convention)
        y_valid = grid.y_coords[: lane.top_index]
        oracle = set()
        for row in range(grid.image_height):
            if row < np.ceil(y_valid[-1]) or row > np.floor(y_valid[0]):
                continue
            x_here = interp_oracle(
                list(zip(lane.xs[: lane.top_index], y_valid)), float(row)
            )
            lo = int(np.floor(x_here - width / 2.0 + 0.5))
            for col in range(grid.image_width):
                if lo <= col < lo + width:
                    oracle.add((row, col))
        assert covered == oracle


class TestStripeIou:
    def test_identity(self, make_vertical):
        assert stripe_iou(make_vertical(300.0), make_vertical(300.0), 30) == 1.0

    def test_disjoint(self, make_vertical):
        assert stripe_iou(make_vertical(100.0), make_vertical(1100.0), 30) == 0.0

    def test_fifteen_pixel_offset_is_one_third(self, make_vertical):
        # per row: 15 px overlap, 45 px union
        iou = stripe_iou(make_vertical(100.0), make_vertical(115.0), 30)
        assert iou == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_grid_mismatch(self, grid, make_vertical):
        other_grid = SamplingGrid.uniform(1280, 720, 40)
        other = Lane(np.full(40, 100.0), 40, other_grid)
        with pytest.raises(GridMismatch):
            stripe_iou(make_vertical(100.0), other, 30)

    @pytest.mark.filterwarnings("error")
    def test_lanes_far_beyond_int64_score_zero_without_warnings(self, make_vertical):
        # x = 1e20 is finite but past int64; the window cast must not see it
        near = make_vertical(100.0)
        for x in (1e20, -1e20):
            assert stripe_iou(make_vertical(x), near, 30) == 0.0
            assert stripe_iou(make_vertical(x), make_vertical(x), 30) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_lane_alternating_past_float64_range_scores_zero_without_warnings(self, grid, make_vertical):
        # between samples 2e308 apart x overflows to +-inf, as np.interp's does, silently
        xs = np.where(np.arange(grid.n_samples) % 2, -1e308, 1e308)
        wild = Lane(xs, grid.n_samples, grid)
        assert stripe_iou(wild, make_vertical(100.0), 30) == 0.0
        assert not SpanStack.of(xs[None], [grid.n_samples], grid, 30).area.any()

    def test_empty_union_returns_zero(self, make_vertical):
        a = make_vertical(100.0, top_index=0)
        b = make_vertical(200.0, top_index=0)
        assert stripe_iou(a, b, 30) == 0.0

    def test_interval_mode_equals_pixel_counting(self, small_grid):
        rng = np.random.default_rng(42)
        for _ in range(10):
            ys = np.linspace(99.0, 20.0, 12)
            a = resample_polyline(
                np.column_stack([rng.uniform(20, 180, 12), ys]), small_grid
            )
            b = resample_polyline(
                np.column_stack([rng.uniform(20, 180, 12), ys]), small_grid
            )
            assert stripe_iou(a, b, 11) == pytest.approx(
                stripe_iou_pixelcount(a, b, 11), abs=1e-12
            )

    @settings(max_examples=30, deadline=None)
    @given(
        xa=st.floats(min_value=0, max_value=1279),
        xb=st.floats(min_value=0, max_value=1279),
        slope=st.floats(min_value=-0.4, max_value=0.4),
    )
    def test_symmetry(self, grid, xa, xb, slope):
        rise = grid.y_coords[0] - grid.y_coords
        a = Lane(xa + slope * rise, grid.n_samples, grid)
        b = Lane(np.full(grid.n_samples, xb), grid.n_samples, grid)
        assert stripe_iou(a, b, 30) == stripe_iou(b, a, 30)

    def test_monotone_under_translation(self, grid, make_vertical):
        base = make_vertical(300.0)
        previous = 1.0
        for offset in np.linspace(0.0, 120.0, 25):
            lane = Lane(base.xs + offset, grid.n_samples, grid)
            value = stripe_iou(base, lane, 30)
            assert value <= previous + 1e-12
            previous = value

    def test_self_iou_with_truncation(self, make_vertical):
        lane = make_vertical(600.0, top_index=20)
        assert stripe_iou(lane, lane, 30) == 1.0


class TestStripeIous:
    def test_table_equals_pixel_counting_against_kmeans_candidates(self, grid, candidates):
        records = generate_synthetic(SyntheticSpec(count=3, seed=8))
        lanes = [lane for record in records for lane in record.resampled(grid)][:5]
        cands = candidate_lanes(candidates)[:20]
        pixel = np.array([[stripe_iou_pixelcount(a, b) for b in cands] for a in lanes])
        assert pixel.any()
        assert np.array_equal(stripe_ious(lanes, cands), pixel)

    def test_budget_refuses_a_large_table_before_allocating(self):
        # one 24-row block keeps the spans small; a (6000, 6000) float64 table takes 288 MB
        grid = SamplingGrid(1280, 24, np.linspace(23.0, 0.0, 4))
        lanes = [Lane(np.full(4, x), 4, grid) for x in np.linspace(0.0, 1279.0, 6000)]
        begin = time.perf_counter()
        with pytest.raises(ValidationError, match=r"stripe IoU table \(queries x lanes\)"):
            stripe_ious(lanes, lanes)
        assert time.perf_counter() - begin < 1.0


class TestStripeSpans:
    def test_spans_match_mask(self, grid, make_vertical):
        lane = make_vertical(77.0, top_index=33)
        start, end = spans_of(lane, 30)
        cols = np.arange(grid.image_width)
        mask = (start[:, None] <= cols) & (cols < end[:, None])
        expected = np.zeros_like(mask)
        rows = slice(int(np.ceil(grid.y_coords[32])), int(np.floor(grid.y_coords[0])) + 1)
        expected[rows, 62:92] = True
        assert np.array_equal(mask, expected)

    @pytest.mark.parametrize("width", [1, 11, 30, 31])
    def test_stack_matches_per_lane_loop(self, width):
        rng = np.random.default_rng(width)
        grids = [
            SamplingGrid.uniform(1280, 720, 50),
            SamplingGrid(1280, 720, np.array([700.0])),
            SamplingGrid(200, 100, np.linspace(99.0, 20.0, 2)),
            SamplingGrid(1640, 590, np.linspace(589.3, 200.7, 37)),
        ]
        for grid in grids:
            n = grid.n_samples
            xs = rng.uniform(-100.0, grid.image_width + 100.0, size=(80, 1))
            xs = xs + np.cumsum(rng.normal(0.0, 20.0, size=(80, n)), axis=1)
            xs[:10] = np.round(xs[:10])
            # straight lanes that sit on the floor() edge at many rows
            rise = grid.y_coords[0] - grid.y_coords
            xs[10:20] = np.round(xs[10:20, :1]) + 0.5 * (width % 2 == 0)
            xs[10:20] += rng.integers(-3, 4, size=(10, 1)) * rise
            top = rng.integers(0, n + 1, size=80)
            top[:2] = [0, 1]
            starts, ends = row_spans(xs, top, grid, width)
            for k in range(80):
                start, end = loop_stripe_spans(Lane(xs[k], int(top[k]), grid), width)
                assert np.array_equal(starts[k], start)
                assert np.array_equal(ends[k], end)


# a ladder top at row 0, one row above the block boundary at row 240, half a row either
# side of it and on it, with the first block that each ladder's spans start at
LADDER_TOPS = {0.0: 0, 239.0: 9, 239.5: 10, 240.0: 10, 240.5: 10}


def random_lanes(rng, grid, k):
    """k wandering lanes, some partly off the image; the first two have top_index 0 and 1."""
    n = grid.n_samples
    xs = rng.uniform(-40.0, grid.image_width + 40.0, size=(k, 1))
    xs = xs + np.cumsum(rng.normal(0.0, 15.0, size=(k, n)), axis=1)
    top = rng.integers(0, n + 1, size=k)
    top[:2] = [0, 1]
    return [Lane(x, t, grid) for x, t in zip(xs, top)]


def pixel_masks(lanes, width):
    """(K, image_height, image_width) boolean stripe masks from loop_stripe_spans."""
    cols = np.arange(lanes[0].grid.image_width)
    starts, ends = (np.array(side)[:, :, None] for side in zip(*[loop_stripe_spans(lane, width)
                                                                  for lane in lanes]))
    return (starts <= cols) & (cols < ends)


class TestSpanStackLayout:
    @pytest.mark.parametrize("top", list(LADDER_TOPS))
    def test_planes_hold_the_blocks_from_the_ladder_top(self, top):
        grid = SamplingGrid(200, 300, np.linspace(299.0, top, 9))
        lanes = random_lanes(np.random.default_rng(1), grid, 7)
        stack = SpanStack.of(*stack_lanes(lanes, grid), grid, 30)
        blocks = 13 - LADDER_TOPS[top]  # 300 rows fill 13 blocks, the last one in part
        assert grid.first_block == LADDER_TOPS[top]
        assert stack.spans.shape == (2, 7, blocks, ENVELOPE_BLOCK_ROWS)
        assert stack.spans.dtype == np.int32
        assert stack.lo.shape == stack.hi.shape == (7, blocks)
        for plane in stack.spans:
            assert plane.flags.c_contiguous and not plane.flags.writeable

    @pytest.mark.parametrize("top", list(LADDER_TOPS))
    def test_kernel_equals_pixel_reference(self, top):
        grid = SamplingGrid(200, 300, np.linspace(299.0, top, 9))
        lanes = random_lanes(np.random.default_rng(int(2 * top)), grid, 24)
        for width in (1, 10, 30):
            masks = pixel_masks(lanes, width)
            stack = SpanStack.of(*stack_lanes(lanes, grid), grid, width)
            table = stack[6:].ious(stack[:6])
            for q in range(6):
                inter = np.count_nonzero(masks[6:] & masks[q], axis=(1, 2))
                union = np.count_nonzero(masks[6:] | masks[q], axis=(1, 2))
                expected = np.divide(inter, union, out=np.zeros(len(inter)), where=union > 0)
                assert np.array_equal(table[q], expected)

    def test_ladder_spanning_no_row_stores_no_block(self):
        grid = SamplingGrid(5, 48, np.array([47.5]))  # between the image's last two rows
        assert grid.first_block == 2 == -(-48 // ENVELOPE_BLOCK_ROWS)
        stack = SpanStack.of(np.full((3, 1), 2.0), np.ones(3, dtype=np.int64), grid, 30)
        assert stack.spans.shape == (2, 3, 0, ENVELOPE_BLOCK_ROWS)
        assert not stack.area.any()
        assert np.array_equal(stack.ious(stack), np.zeros((3, 3)))


# each site's integer argument, by the name its error carries
INTEGER_ARGUMENTS = {
    "n_samples": lambda grid, n: SamplingGrid.uniform(1280, 720, n),
    "m": lambda grid, n: build_basis(LaneMatrix(np.ones((grid.n_samples, 2)), grid), n),
    "r": lambda grid, n: uniform_height_grid(grid, n),
    "count": lambda grid, n: SyntheticSpec(count=n),
}


class TestIntegerArguments:
    @pytest.mark.parametrize("value", [2.5, True, 0])
    @pytest.mark.parametrize("name", list(INTEGER_ARGUMENTS))
    def test_refused_by_name(self, small_grid, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer >= 1$"):
            INTEGER_ARGUMENTS[name](small_grid, value)

    @pytest.mark.parametrize("name", list(INTEGER_ARGUMENTS))
    def test_numpy_integers_are_accepted(self, small_grid, name):
        INTEGER_ARGUMENTS[name](small_grid, np.int64(1))


class TestCheckBudget:
    def test_the_limit_itself_fits(self):
        check_budget((MAX_ARRAY_BYTES // 4,), 4, "spans")

    def test_one_element_more_is_refused_by_name(self):
        with pytest.raises(ValidationError, match="height distributions"):
            check_budget((2, MAX_ARRAY_BYTES // 16 + 1), 8, "height distributions")
