import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import candidate_lanes, row_spans
from lanespace import (
    CandidateScores,
    CandidateSet,
    ClusteringConfig,
    DetectionConfig,
    EmptyInput,
    GridMismatch,
    Lane,
    LaneMatrix,
    OracleConfig,
    SamplingGrid,
    TooManyClusters,
    ValidationError,
    cluster_lanes,
    lloyd_kmeans,
    mean_best_iou,
    nms_select,
    oracle_scores,
    project,
    project_columns,
    reconstruct,
    resample_polyline,
    straight_anchor_grid,
    stripe_iou,
    stripe_ious,
    uniform_height_grid,
)
from lanespace.candidates import MAX_ITERS, TOLERANCE, _assign, _kmeans_plus_plus
from lanespace.geometry import ENVELOPE_BLOCK_ROWS, SpanStack, stack_lanes


def full_kernel(span, many):
    """Reference IoU of one lane's (image_height,) spans against a whole (K, image_height) stack."""
    s, e = span
    ms, me = many
    inter = np.clip(np.minimum(me, e) - np.maximum(ms, s), 0, None).sum(axis=1)
    union = (me - ms).sum(axis=1) + int(np.sum(e - s)) - inter
    out = np.zeros(ms.shape[0])
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out


def full_table(rows, cols):
    """Reference (len(rows), len(cols)) table: full_kernel for each row span against cols."""
    out = np.zeros((rows[0].shape[0], cols[0].shape[0]))
    for i, span in enumerate(zip(*rows)):
        out[i] = full_kernel(span, cols)
    return out


def brute_force_assignment(points, centroids):
    """Nearest-centroid labels computed with plain loops."""
    labels = []
    for p in points:
        best, best_d = 0, float("inf")
        for j, c in enumerate(centroids):
            d = float(np.sum((np.asarray(p) - np.asarray(c)) ** 2))
            if d < best_d - 1e-12:
                best, best_d = j, d
        labels.append(best)
    return np.array(labels)


class TestLloydKmeans:
    def test_k_equals_n_distinct_points(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(12, 3))
        centroids, labels, inertia = lloyd_kmeans(points, 12, seed=4)
        assert inertia == pytest.approx(0.0, abs=1e-18)
        # every point is its own centroid
        matched = {tuple(np.round(c, 9)) for c in centroids}
        expected = {tuple(np.round(p, 9)) for p in points}
        assert matched == expected
        assert sorted(np.bincount(labels, minlength=12)) == [1] * 12

    def test_two_separated_groups(self):
        rng = np.random.default_rng(1)
        left = rng.normal(loc=(-50, 0), scale=1.0, size=(40, 2))
        right = rng.normal(loc=(+50, 0), scale=1.0, size=(40, 2))
        points = np.vstack([left, right])
        centroids, labels, _ = lloyd_kmeans(points, 2, seed=9)
        assert np.array_equal(labels, brute_force_assignment(points, centroids))
        got = sorted(centroids[:, 0])
        assert got[0] == pytest.approx(-50.0, abs=1.0)
        assert got[1] == pytest.approx(+50.0, abs=1.0)
        # converged centroids are the member means
        for j in range(2):
            assert np.allclose(centroids[j], points[labels == j].mean(axis=0), atol=1e-9)

    def test_too_many_clusters(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(TooManyClusters):
            lloyd_kmeans(points, 3, seed=0)

    def test_distance_matrix_budget_refuses_before_allocating(self):
        points = np.random.default_rng(3).normal(size=(6000, 2))  # (6000, 5800) float64: 278 MB
        begin = time.perf_counter()
        with pytest.raises(ValidationError, match="k-means distances"):
            lloyd_kmeans(points, 5800, seed=0)
        assert time.perf_counter() - begin < 1.0

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(60, 4))
        a = lloyd_kmeans(points, 7, seed=5)
        b = lloyd_kmeans(points, 7, seed=5)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_always_returns_k_centroids(self, seed, k):
        rng = np.random.default_rng(seed)
        points = np.round(rng.normal(size=(30, 2)), 3)
        distinct = np.unique(points, axis=0).shape[0]
        if k > distinct:
            k = distinct
        centroids, labels, _ = lloyd_kmeans(points, k, seed=seed)
        assert centroids.shape == (k, 2)
        assert labels.shape == (30,)
        # after repair no cluster may stay empty unless points coincide
        counts = np.bincount(labels, minlength=k)
        assert np.all(counts >= 1)


def reference_lloyd(points, k, seed):
    """Reference k-means: three (points, k) temporaries per assignment, one mean per cluster.

    Returns (centroids, labels, objective, repairs), repairs counting the
    empty clusters moved onto far points.
    """
    def assign(centroids):
        d2 = (
            np.sum(points**2, axis=1)[:, None]
            - 2.0 * points @ centroids.T
            + np.sum(centroids**2, axis=1)[None, :]
        )
        return np.argmin(d2, axis=1)

    points = np.asarray(points, dtype=np.float64)
    centroids = _kmeans_plus_plus(points, k, np.random.default_rng(seed))
    labels = assign(centroids)
    repairs = 0
    for _ in range(MAX_ITERS):
        new_centroids = centroids.copy()
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j] > 0:
                new_centroids[j] = points[labels == j].mean(axis=0)
        empty = np.nonzero(counts == 0)[0]
        if empty.size:
            repairs += empty.size
            dist_own = np.sum((points - new_centroids[labels]) ** 2, axis=1)
            farthest = np.argsort(dist_own, kind="stable")[::-1]
            new_centroids[empty] = points[farthest[: empty.size]]
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        labels = assign(centroids)
        objective = float(np.sum((points - centroids[labels]) ** 2))
        if shift < TOLERANCE:
            break
    return centroids, labels, objective, repairs


def repair_points():
    """Duplicated points on a line on which one cluster empties and is repaired.

    With seed 406 the seeding picks x = 0, 1.0 and 1.3; after one update the
    cluster seeded at 1.0 (members 0.6 and 1.0, mean 0.8) loses 0.6 to the
    mean of the 0.45s and 1.0 to the mean of the 1.16s.
    """
    x = [0.0] + [0.45] * 20 + [0.6, 1.0] + [1.16] * 3 + [1.3]
    return np.column_stack([x, np.zeros(len(x))])


def signed_zero_points():
    """Two far groups; every member of the second holds -0.0 in its last coordinate."""
    rng = np.random.default_rng(12)
    near = rng.normal(size=(30, 3))
    far = rng.normal(loc=100.0, size=(30, 3))
    far[:, 2] = -0.0
    return np.vstack([near, far])


EXACTNESS_CASES = {
    "normals-k1": (lambda: np.random.default_rng(0).normal(size=(200, 6)), 1, 2, 0),
    "normals-k7": (lambda: np.random.default_rng(1).normal(size=(400, 6)), 7, 5, 0),
    "normals-k50": (lambda: np.random.default_rng(2).normal(size=(1500, 6)), 50, 3, 0),
    "duplicates": (repair_points, 3, 406, 1),
    "signed-zero": (signed_zero_points, 2, 0, 0),
}


class TestLloydKmeansExactness:
    @pytest.mark.parametrize("case", list(EXACTNESS_CASES))
    def test_byte_equal_to_reference(self, case):
        make, k, seed, min_repairs = EXACTNESS_CASES[case]
        points = make()
        ref_centroids, ref_labels, ref_objective, repairs = reference_lloyd(points, k, seed)
        assert repairs >= min_repairs
        centroids, labels, objective = lloyd_kmeans(points, k, seed)
        assert centroids.tobytes() == ref_centroids.tobytes()
        assert np.array_equal(labels, ref_labels)
        assert objective.hex() == ref_objective.hex()

    def test_all_negative_zero_member_coordinate_averages_to_positive_zero(self):
        points = signed_zero_points()
        centroids, labels, _ = lloyd_kmeans(points, 2, seed=0)
        far = labels[-1]
        assert np.all(labels[30:] == far) and not np.any(labels[:30] == far)
        assert centroids[far, 2] == 0.0 and not np.signbit(centroids[far, 2])

    def test_duplicate_centroids_tie_to_the_lowest_index(self):
        centroids = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        points = np.array([[0.0, 0.0], [1.0, 1.0], [0.1, 0.0], [0.9, 1.0]])
        assert np.array_equal(_assign(points, centroids), [1, 0, 1, 0])

    def test_peak_memory_is_one_distance_matrix(self):
        points = np.random.default_rng(6).normal(size=(4000, 6))
        k = 800
        tracemalloc.start()
        try:
            lloyd_kmeans(points, k, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (points, k) float64 matrix per step; three temporaries peaked at 2.04x
        assert peak < 1.25 * points.shape[0] * k * 8


class TestClusterCountMustBeAnInteger:
    @pytest.mark.parametrize("k", [0, -3, 2.5, True, "3", None])
    def test_rejected_by_kmeans_and_config(self, k):
        points = np.random.default_rng(0).normal(size=(20, 2))
        with pytest.raises(ValidationError, match="k must be an integer"):
            lloyd_kmeans(points, k)
        with pytest.raises(ValidationError, match="k must be an integer"):
            ClusteringConfig(k=k)

    def test_refused_before_the_budget_check(self):
        points = np.random.default_rng(3).normal(size=(6000, 2))
        with pytest.raises(ValidationError, match="k must be an integer"):
            lloyd_kmeans(points, 5800.0)

    def test_numpy_integers_are_accepted(self):
        points = np.random.default_rng(0).normal(size=(20, 2))
        assert lloyd_kmeans(points, np.int64(3))[0].shape == (3, 2)
        assert ClusteringConfig(k=np.int32(3)).k == 3


class TestClusterLanes:
    def test_candidate_set_consistency(self, basis, candidates):
        assert np.array_equal(candidates.xs, reconstruct(basis, candidates.coefficients))
        assert np.array_equal(candidates.top_index, np.full(candidates.k, basis.grid.n_samples))
        assert candidates.basis_id == basis.content_id

    def test_eigen_and_lane_space_clustering_agree(self, basis, train_lanes):
        lanes = train_lanes[:300]
        matrix = LaneMatrix.from_lanes(lanes)
        coeffs = project_columns(basis, matrix)
        approx_lanes = (basis.u @ coeffs.T).T  # rank-m lanes in lane space
        c_eig, l_eig, _ = lloyd_kmeans(coeffs, 12, seed=21)
        c_lane, l_lane, _ = lloyd_kmeans(approx_lanes, 12, seed=21)
        assert np.array_equal(l_eig, l_lane)
        assert np.allclose(basis.u @ c_eig.T, c_lane.T, atol=1e-9)

    def test_empty_lane_list(self, basis):
        with pytest.raises(EmptyInput):
            cluster_lanes(basis, [], ClusteringConfig(k=2))

    def test_objective_never_increases(self, basis, train_lanes):
        # lloyd_kmeans asserts monotonicity internally on every iteration;
        # run a few configurations to exercise that path
        for k, seed in ((5, 0), (17, 3), (40, 8)):
            cluster_lanes(basis, train_lanes, ClusteringConfig(k=k, seed=seed))


def loop_straight_anchor_grid(basis, n, max_angle_deg=75.0):
    """Reference: the per-lane double loop that straight_anchor_grid once ran."""
    grid = basis.grid
    n_angles = max(1, int(round(np.sqrt(n))))
    n_pos = -(-n // n_angles)
    if n_pos > 1:
        positions = np.linspace(0.0, grid.image_width - 1.0, n_pos)
    else:
        positions = np.array([grid.image_width / 2.0])
    if n_angles > 1:
        angles = np.deg2rad(np.linspace(-max_angle_deg, max_angle_deg, n_angles))
    else:
        angles = np.array([0.0])
    y0 = grid.y_coords[0]
    rise = y0 - grid.y_coords
    rows = []
    coeffs = []
    for xb in positions:
        for ang in angles:
            if len(rows) == n:
                break
            xs = xb + np.tan(ang) * rise
            rows.append(xs)
            coeffs.append(basis.u.T @ xs)
        if len(rows) == n:
            break
    return np.array(rows), np.full(n, grid.n_samples), np.array(coeffs)


class TestStraightAnchors:
    @pytest.mark.parametrize("n", [1, 2, 7, 137, 10000])
    def test_matches_per_lane_loop(self, basis, n):
        anchors = straight_anchor_grid(basis, n)
        xs, top_index, coeffs = loop_straight_anchor_grid(basis, n)
        assert np.array_equal(anchors.xs, xs)
        assert np.array_equal(anchors.top_index, top_index)
        assert np.array_equal(anchors.coefficients, coeffs)

    def test_single_anchor_is_vertical_center(self, basis):
        anchors = straight_anchor_grid(basis, 1)
        assert anchors.k == 1
        lane = candidate_lanes(anchors)[0]
        assert np.allclose(lane.xs, basis.grid.image_width / 2.0)

    def test_exactly_n_lanes_all_straight(self, basis):
        anchors = straight_anchor_grid(basis, 137)
        assert anchors.k == 137
        for lane in candidate_lanes(anchors):
            second_diff = np.diff(lane.xs, n=2)
            assert np.max(np.abs(second_diff)) <= 1e-9

    @pytest.mark.parametrize("n", [0, 2.5, True])
    def test_count_must_be_an_integer(self, basis, n):
        with pytest.raises(ValidationError, match="n must be an integer"):
            straight_anchor_grid(basis, n)

    def test_budget_refuses_a_large_grid_before_allocating(self, basis):
        # a (4473 x 4472, 50) float64 grid would take 8 GB
        begin = time.perf_counter()
        with pytest.raises(ValidationError, match="straight anchors"):
            straight_anchor_grid(basis, 20_000_000)
        assert time.perf_counter() - begin < 1.0

    def test_projected_coefficients_attached(self, basis):
        anchors = straight_anchor_grid(basis, 25)
        assert anchors.coefficients.shape == (25, basis.m)
        for lane, c in zip(candidate_lanes(anchors), anchors.coefficients):
            assert np.allclose(c, basis.u.T @ lane.xs, atol=1e-9)


# name -> edit of a valid (xs, top_index, coefficients) stack that makes it invalid
BAD_STACKS = {
    "empty": lambda xs, top, coeffs: (xs[:0], top[:0], coeffs[:0]),
    "row-length": lambda xs, top, coeffs: (xs[:, :-1], top, coeffs),
    "nan": lambda xs, top, coeffs: (np.where(np.eye(*xs.shape) > 0, np.nan, xs), top, coeffs),
    "top-index-minus-1": lambda xs, top, coeffs: (xs, np.r_[-1, top[1:]], coeffs),
    "top-index-n-plus-1": lambda xs, top, coeffs: (xs, np.r_[xs.shape[1] + 1, top[1:]], coeffs),
    "coefficient-rows": lambda xs, top, coeffs: (xs, top, coeffs[1:]),
    "coefficient-nan": lambda xs, top, coeffs: (xs, top, coeffs + np.nan),
    "coefficient-inf": lambda xs, top, coeffs: (xs, top, coeffs + np.inf),
    "coefficient-minus-inf": lambda xs, top, coeffs: (xs, top, coeffs - np.inf),
}


class TestCandidateSetChecks:
    def test_lanes_view_matches_arrays(self, candidates):
        lanes = candidate_lanes(candidates)
        assert len(lanes) == candidates.k
        for i, lane in enumerate(lanes):
            assert lane.grid == candidates.grid
            assert np.array_equal(lane.xs, candidates.xs[i])
            assert lane.top_index == candidates.top_index[i]

    def test_arrays_are_read_only(self, candidates):
        for arr in (candidates.xs, candidates.top_index, candidates.coefficients):
            assert not arr.flags.writeable
        assert candidates.xs.dtype == np.float64
        assert candidates.top_index.dtype == np.int64

    @pytest.mark.parametrize("name", list(BAD_STACKS))
    def test_invalid_stack_rejected(self, candidates, name):
        xs, top, coeffs = BAD_STACKS[name](
            candidates.xs, candidates.top_index, candidates.coefficients
        )
        with pytest.raises(ValidationError):
            CandidateSet(xs, top, candidates.grid, coeffs, candidates.basis_id)

    def test_fields_cannot_be_rebound(self, candidates):
        with pytest.raises(dataclasses.FrozenInstanceError):
            candidates.xs = candidates.xs[::-1]


def random_stack(rng, grid, k):
    """k straight lanes, some wholly off the image, a quarter with top_index 0 or 1."""
    rise = grid.y_coords[0] - grid.y_coords
    xs = (rng.uniform(-300, grid.image_width + 300, size=(k, 1))
          + rng.uniform(-1.5, 1.5, size=(k, 1)) * rise)
    xs[: max(1, k // 8)] += rng.choice([-5000.0, 5000.0])
    top = rng.integers(0, grid.n_samples + 1, size=k)
    top[k // 8 : k // 8 + k // 4] = rng.integers(0, 2, size=k // 4)
    return xs, top


LADDERS = {
    "50-rows": SamplingGrid(1280, 720, np.linspace(719.0, 252.0, 50)),
    "1-row": SamplingGrid(1280, 720, np.array([700.0])),
    "height-100": SamplingGrid(200, 100, np.linspace(99.0, 20.0, 8)),
    "height-250": SamplingGrid(640, 250, np.linspace(249.0, 3.0, 13)),
    "height-10": SamplingGrid(640, 10, np.linspace(9.0, 0.0, 4)),  # one partial block
}


class TestSpanStackIous:
    @pytest.mark.parametrize("k", [1, 9, 200])
    @pytest.mark.parametrize("ladder", list(LADDERS))
    def test_equals_full_kernel(self, ladder, k):
        grid = LADDERS[ladder]
        rng = np.random.default_rng(k)
        xs, top = random_stack(rng, grid, k)
        cands = CandidateSet(xs, top, grid, np.zeros((k, 2)), "seeded")
        query_xs, query_top = random_stack(rng, grid, 40)
        query_top[:2] = [0, 1]
        for width in (1, 10, 30):
            queries = SpanStack.of(query_xs, query_top, grid, width)
            expected = full_table(row_spans(query_xs, query_top, grid, width),
                                  row_spans(xs, top, grid, width))
            assert np.array_equal(cands.spans(width).ious(queries), expected)

    @pytest.mark.parametrize("ladder", list(LADDERS))
    def test_suppressed_is_the_thresholded_row(self, ladder):
        grid = LADDERS[ladder]
        xs, top = random_stack(np.random.default_rng(3), grid, 60)
        cands = CandidateSet(xs, top, grid, np.zeros((60, 2)), "seeded")
        starts, ends = row_spans(xs, top, grid, 30)
        for threshold in (0.3, 0.5, 0.3):
            for i in range(60):
                expected = full_kernel((starts[i], ends[i]), (starts, ends)) > threshold
                row = cands.suppressed(i, 30, threshold)
                assert row.dtype == bool
                assert np.array_equal(row, expected)
                row[:] = ~row  # the caller's copy, not the memoized row

    @pytest.mark.parametrize("ladder", list(LADDERS))
    def test_bounded_rows_equal_the_thresholded_kernel_row(self, ladder):
        grid = LADDERS[ladder]
        xs, top = random_stack(np.random.default_rng(6), grid, 64)
        cands = CandidateSet(xs, top, grid, np.zeros((64, 2)), "seeded")
        for width in (1, 10, 30):
            spans = cands.spans(width)
            starts, ends = row_spans(xs, top, grid, width)
            for i in range(64):
                shared = np.minimum(ends, ends[i]) - np.maximum(starts, starts[i])
                shared = np.clip(shared, 0, None).sum(axis=1)
                meets = np.maximum(spans.lo, spans.lo[i]) < np.minimum(spans.hi, spans.hi[i])
                bound = spans.overlap_bound(spans[i : i + 1], width)
                assert np.all(shared <= bound)
                # at most width shared pixels on each row of a block where the envelopes meet
                assert np.all(bound <= ENVELOPE_BLOCK_ROWS * width * meets.sum(axis=1))
                row = spans.ious(spans[i : i + 1])[0]
                for threshold in (1e-9, 0.3, 0.5, 1.0):
                    assert np.array_equal(cands.suppressed(i, width, threshold), row > threshold)

    def test_memo_over_the_budget_keeps_nms_picks(self, candidates, monkeypatch):
        k = candidates.k
        probabilities = np.random.default_rng(2).uniform(size=k)
        scores = CandidateScores(probabilities, np.ones((k, 1)), np.zeros((k, 1)))
        expected = nms_select(dataclasses.replace(candidates), scores, t=10)
        assert len(expected) > 3
        budget = 3 * -(-k // 8)  # three packed rows
        monkeypatch.setattr("lanespace.candidates.MAX_ARRAY_BYTES", budget)
        bounded = dataclasses.replace(candidates)
        for _ in range(2):  # the second run reads the kept rows and recomputes the rest
            assert nms_select(bounded, scores, t=10) == expected
        assert len(bounded._row_cache) == 3
        assert sum(row.nbytes for row in bounded._row_cache.values()) <= budget

    @pytest.mark.parametrize("ladder", list(LADDERS))
    def test_stripe_ious_equals_full_kernel(self, ladder):
        grid = LADDERS[ladder]
        xs, top = random_stack(np.random.default_rng(11), grid, 48)
        lanes = [Lane(x, t, grid) for x, t in zip(xs, top)]
        for width in (1, 10, 30):
            spans = row_spans(xs, top, grid, width)
            expected = full_table([a[::2] for a in spans], [a[1::2] for a in spans])
            assert np.array_equal(stripe_ious(lanes[::2], lanes[1::2], width), expected)

    def test_slices_select_lanes(self):
        grid = LADDERS["height-250"]
        xs, top = random_stack(np.random.default_rng(5), grid, 12)
        stack = SpanStack.of(xs, top, grid, 30)
        part = SpanStack.of(xs[3:7], top[3:7], grid, 30)
        assert len(stack) == 12 and len(stack[3:7]) == 4
        for name in ("spans", "area", "lo", "hi"):
            assert np.array_equal(getattr(stack[3:7], name), getattr(part, name))

    def test_pair_meeting_only_in_the_last_partial_block(self):
        grid = LADDERS["height-250"]  # 10 full blocks, then rows 240-249
        xs = np.stack([np.full(13, 100.0), 100.0 + 5.0 * (grid.y_coords[0] - grid.y_coords)])
        top = np.full(2, 13)
        stack = SpanStack.of(xs, top, grid, 30)
        meets = np.maximum(stack.lo[0], stack.lo[1]) < np.minimum(stack.hi[0], stack.hi[1])
        assert np.array_equal(np.flatnonzero(meets), [10])
        expected = full_table(row_spans(xs[1:], top[1:], grid, 30),
                              row_spans(xs[:1], top[:1], grid, 30))
        assert 0.0 < expected[0, 0] < 1.0
        assert np.array_equal(stack[:1].ious(stack[1:]), expected)
        assert np.array_equal(stack[1:].ious(stack[:1]), expected)

    @pytest.mark.parametrize("ladder", list(LADDERS))
    def test_query_without_covered_rows_scores_zero(self, ladder):
        grid = LADDERS[ladder]
        xs, top = random_stack(np.random.default_rng(8), grid, 30)
        stack = SpanStack.of(xs, top, grid, 30)
        empty = SpanStack.of(np.stack([xs[0], xs[0] - 10**6]), [0, grid.n_samples], grid, 30)
        assert not empty.area.any()
        assert np.array_equal(stack.ious(empty), np.zeros((2, 30)))
        assert np.array_equal(empty.ious(stack), np.zeros((30, 2)))

    @pytest.mark.parametrize("sizes", [(1, 14), (14, 1), (14, 4)])
    def test_stripe_ious_is_symmetric(self, sizes):
        grid = LADDERS["50-rows"]
        xs, top = random_stack(np.random.default_rng(sum(sizes)), grid, sum(sizes))
        lanes = [Lane(x, t, grid) for x, t in zip(xs, top)]
        a, b = lanes[: sizes[0]], lanes[sizes[0] :]
        assert np.array_equal(stripe_ious(a, b), stripe_ious(b, a).T)
        assert stripe_ious(a, b).shape == sizes

    def test_build_peak_stays_near_the_stack(self):
        grid = SamplingGrid(1280, 6000, np.linspace(5999.0, 2100.0, 50))
        xs, top = random_stack(np.random.default_rng(4), grid, 1000)
        tracemalloc.start()
        try:
            stack = SpanStack.of(xs, top, grid, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = sum(array.nbytes for array in (stack.spans, stack.area, stack.lo, stack.hi))
        assert own > 30e6
        assert peak < 1.25 * own  # spanning all 1000 lanes at once peaked at 4.2x

    def test_budget_refuses_a_tall_stack_before_allocating(self):
        tall = SamplingGrid(1280, 10**9, np.linspace(719.0, 252.0, 5))
        with pytest.raises(ValidationError, match="stripe spans"):
            SpanStack.of(np.zeros((2, 5)), np.full(2, 5), tall, 30)
        assert "row_plan" not in tall.__dict__  # where the cached_property would keep it


class TestStripeWidthMustBeAnInteger:
    @pytest.mark.parametrize("width", [30.5, True, 0])
    def test_rejected_everywhere_and_cache_stays_clean(self, candidates, train_lanes, width):
        test = train_lanes[:30]
        used = dataclasses.replace(candidates)
        for call in (lambda: mean_best_iou(used, test, width),
                     lambda: used.suppressed(0, width, 0.5),
                     lambda: used.spans(width),
                     lambda: stripe_ious(test[:3], test[3:6], width),
                     lambda: OracleConfig(stripe_width=width),
                     lambda: DetectionConfig(stripe_width=width)):
            with pytest.raises(ValidationError, match="stripe width"):
                call()
        fresh = dataclasses.replace(candidates)
        for w in (30, 1):
            assert mean_best_iou(used, test, w) == mean_best_iou(fresh, test, w)
            assert np.array_equal(used.suppressed(0, w, 0.5), fresh.suppressed(0, w, 0.5))


class TestOracleIouTable:
    def test_equals_per_ground_truth_loop(self, basis, candidates, train_lanes, make_vertical):
        gt = [*train_lanes[:6], make_vertical(640.0, top_index=0), make_vertical(-4000.0)]
        grid = basis.grid
        heights = uniform_height_grid(grid, 25)
        scores, features = oracle_scores(candidates, gt, basis, heights)
        cand_spans = row_spans(candidates.xs, candidates.top_index, grid, 30)
        gt_spans = row_spans(*stack_lanes(gt, grid), grid, 30)
        iou = np.column_stack([full_kernel(span, cand_spans) for span in zip(*gt_spans)])
        assert np.array_equal(scores.probabilities, iou.max(axis=1))
        best_gt = iou.argmax(axis=1)
        matched = iou.max(axis=1) > 0.25
        gt_coeffs = project(basis, stack_lanes(gt, grid)[0])
        expected = gt_coeffs[best_gt[matched]] - candidates.coefficients[matched]
        assert np.array_equal(scores.offsets[matched], expected)
        winners = iou.argmax(axis=0)
        champions = winners[iou[winners, np.arange(len(gt))] > 0.25]
        assert np.array_equal(np.flatnonzero(features.any(axis=1)), np.unique(champions))


class TestMeanBestIou:
    def test_self_match_is_one(self, candidates):
        assert mean_best_iou(candidates, candidate_lanes(candidates), 30) == pytest.approx(1.0)

    def test_far_test_lanes_score_zero(self, basis, make_vertical):
        far = [make_vertical(2.0)]
        anchors = straight_anchor_grid(basis, 1)
        # single central anchor vs a lane hugging the left border
        assert mean_best_iou(anchors, far, 30) == pytest.approx(0.0)

    def test_empty_test_set(self, candidates):
        with pytest.raises(EmptyInput):
            mean_best_iou(candidates, [], 30)

    def test_grid_mismatch(self, candidates):
        other = SamplingGrid.uniform(1280, 720, candidates.grid.n_samples + 3)
        lane = resample_polyline([(100.0, 700.0), (110.0, 300.0)], other)
        with pytest.raises(GridMismatch):
            mean_best_iou(candidates, [lane], 30)

    def test_matches_pairwise_route(self, candidates, train_lanes):
        test = train_lanes[40:60]
        fast = mean_best_iou(candidates, test, 30)
        slow = float(
            np.mean(
                [
                    max(stripe_iou(lane, cand, 30) for cand in candidate_lanes(candidates))
                    for lane in test
                ]
            )
        )
        assert fast == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("width", [10, 30])
    def test_matches_full_kernel_loop(self, basis, candidates, train_lanes, width):
        test = train_lanes[:80]
        for cands in (candidates, straight_anchor_grid(basis, 300)):
            grid = cands.grid
            starts, ends = row_spans(*stack_lanes(test, grid), grid, width)
            spans = row_spans(cands.xs, cands.top_index, grid, width)
            best = np.empty(len(test))
            for i in range(len(test)):
                best[i] = full_kernel((starts[i], ends[i]), spans).max()
            table = cands.spans(width).ious(SpanStack.of(*stack_lanes(test, grid), grid, width))
            assert np.array_equal(table.max(axis=1), best)
            assert mean_best_iou(cands, test, width) == float(best.mean())

    def test_monotone_when_candidates_added(self, basis, candidates, train_lanes):
        test = train_lanes[10:30]
        fewer = CandidateSet(
            candidates.xs[:15],
            candidates.top_index[:15],
            candidates.grid,
            candidates.coefficients[:15],
            candidates.basis_id,
        )
        assert mean_best_iou(candidates, test, 30) >= mean_best_iou(fewer, test, 30)

    @pytest.mark.parametrize("ladder", list(LADDERS))
    def test_bound_order_keeps_the_full_kernel_maximum(self, ladder):
        grid = LADDERS[ladder]
        rng = np.random.default_rng(12)
        xs, top = random_stack(rng, grid, 200)
        cands = CandidateSet(xs, top, grid, np.zeros((200, 2)), "seeded")
        test_xs, test_top = random_stack(rng, grid, 40)
        test_top[:2] = [0, 1]
        test = [Lane(x, t, grid) for x, t in zip(test_xs, test_top)]
        for width in (1, 10, 30):
            table = full_table(row_spans(test_xs, test_top, grid, width),
                               row_spans(xs, top, grid, width))
            assert mean_best_iou(cands, test, width) == float(table.max(axis=1).mean())

    def test_bound_order_keeps_the_maximum_over_10000_anchors(self, basis, train_lanes):
        anchors = straight_anchor_grid(basis, 10_000)
        test = train_lanes[:60]
        tests = SpanStack.of(*stack_lanes(test, basis.grid), basis.grid, 30)
        best = anchors.spans(30).ious(tests).max(axis=1)
        assert mean_best_iou(anchors, test, 30) == float(best.mean())

    def test_lanes_no_candidate_envelope_meets_reach_no_kernel(
        self, basis, make_vertical, monkeypatch
    ):
        anchors = straight_anchor_grid(basis, 1)  # one central anchor
        queries = []
        kernel = SpanStack.ious
        monkeypatch.setattr(SpanStack, "ious", lambda self, q: queries.append(q) or kernel(self, q))
        # a zero cap leaves no room above the best IoU of 0.0
        assert mean_best_iou(anchors, [make_vertical(2.0), make_vertical(-4000.0)], 30) == 0.0
        assert not queries
