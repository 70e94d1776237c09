import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanespace import (
    CandidateScores,
    CandidateSet,
    CliqueResult,
    DimensionMismatch,
    EmptyInput,
    Lane,
    TooManyNodes,
    finalize,
    line_pool,
    mwcs,
    nms_select,
    project,
    reconstruct,
    relation_from_features,
    stripe_iou,
    uniform_height_grid,
)
from lanespace.pipeline import MAX_CLIQUE_NODES, lane_pixel_path


def brute_force_mwcs(weights, probabilities, kappa):
    """Reference solver: scan every subset of size >= 2 explicitly."""
    t = weights.shape[0]
    best = None
    for size in range(2, t + 1):
        for members in itertools.combinations(range(t), size):
            ok = all(
                weights[i, j] > kappa
                for i, j in itertools.combinations(members, 2)
            )
            if not ok:
                continue
            total = sum(
                weights[i, j] for i, j in itertools.combinations(members, 2)
            )
            key = (total, len(members), tuple(-m for m in members))
            if best is None or key > best[0]:
                best = (key, members, total)
    if best is None:
        return (int(np.argmax(probabilities)),), 0.0
    return best[1], best[2]


def clique_weight(relation, members):
    """Total symmetrized edge weight over all pairs of a member set."""
    w = 0.5 * (relation + relation.T)
    return float(sum(w[a, b] for a, b in itertools.combinations(members, 2)))


def greedy_nms_oracle(iou_matrix, probabilities, t, threshold):
    """Reference NMS: plain-python greedy loop over a precomputed IoU table."""
    alive = list(range(len(probabilities)))
    picks = []
    while alive and len(picks) < t:
        best = max(alive, key=lambda i: (probabilities[i], -i))
        picks.append(best)
        alive = [
            i for i in alive if i != best and iou_matrix[best][i] <= threshold
        ]
    return picks


def scores_for(candidates, probs, heights_bins=5, offsets=None):
    k = candidates.k
    m = candidates.coefficients.shape[1]
    height = np.zeros((k, heights_bins))
    height[:, -1] = 1.0
    if offsets is None:
        offsets = np.zeros((k, m))
    return CandidateScores(np.asarray(probs, dtype=np.float64), height, offsets)


class TestLinePool:
    def test_constant_grid(self, make_vertical):
        grid_values = np.full((720, 1280, 3), 7.5)
        pooled = line_pool(grid_values, make_vertical(431.0))
        assert np.allclose(pooled, 7.5)

    def test_column_index_grid(self, make_vertical):
        grid_values = np.tile(
            np.arange(1280, dtype=np.float64)[None, :, None], (720, 1, 1)
        )
        pooled = line_pool(grid_values, make_vertical(7.0))
        assert pooled[0] == pytest.approx(7.0)

    def test_diagonal_lane_matches_pixel_walk_oracle(self, grid):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(90, 160, 4))
        rise = grid.y_coords[0] - grid.y_coords
        lane = Lane(300.0 + 0.9 * rise, grid.n_samples, grid)
        sx, sy = 160 / 1280.0, 90 / 720.0
        pooled = line_pool(values, lane, scale_x=sx, scale_y=sy)

        # oracle: revisit every segment pixel by pixel with a scalar walk
        pts = lane.valid_points()
        cols = np.floor(pts[:, 0] * sx + 0.5).astype(int)
        rows = np.floor(pts[:, 1] * sy + 0.5).astype(int)
        seen = []
        for i in range(1, len(cols)):
            x0, y0, x1, y1 = cols[i - 1], rows[i - 1], cols[i], rows[i]
            n = max(abs(x1 - x0), abs(y1 - y0))
            walked = [(x0, y0)]
            # integer line walk; for slopes <= 1 per axis this matches bresenham
            x, y = x0, y0
            err = abs(x1 - x0) - abs(y1 - y0)
            sx_step = 1 if x1 >= x0 else -1
            sy_step = 1 if y1 >= y0 else -1
            for _ in range(2 * n + 2):
                if (x, y) == (x1, y1):
                    break
                e2 = 2 * err
                if e2 > -abs(y1 - y0):
                    err -= abs(y1 - y0)
                    x += sx_step
                if e2 < abs(x1 - x0):
                    err += abs(x1 - x0)
                    y += sy_step
                walked.append((x, y))
            seen.extend(walked)
        unique = list(dict.fromkeys(seen))
        inside = [(c, r) for c, r in unique if 0 <= r < 90 and 0 <= c < 160]
        expected = np.mean([values[r, c] for c, r in inside], axis=0)
        assert np.allclose(pooled, expected, atol=1e-9)

    def test_fully_outside_lane_warns_and_zeroes(self, grid):
        values = np.ones((10, 10, 2))
        lane = Lane(np.full(grid.n_samples, 5000.0), grid.n_samples, grid)
        with pytest.warns(UserWarning):
            pooled = line_pool(values, lane)
        assert np.allclose(pooled, 0.0)

    def test_empty_grid_rejected(self, make_vertical):
        with pytest.raises(EmptyInput):
            line_pool(np.zeros((0, 4, 1)), make_vertical(100.0))

    def test_path_has_no_duplicates(self, make_vertical):
        path = lane_pixel_path(make_vertical(100.0))
        assert len(path) == len(set(path))


class TestNmsSelect:
    def test_orders_by_probability(self, basis, make_vertical):
        lanes = [make_vertical(x) for x in (100.0, 400.0, 700.0)]
        cands = CandidateSet(
            lanes, np.zeros((3, basis.m)), basis.content_id
        )
        picks = nms_select(cands, scores_for(cands, [0.9, 0.1, 0.1]), t=2)
        assert picks[0] == 0
        assert picks[1] == 1  # tie at 0.1 resolves to the lower index

    def test_duplicate_suppressed(self, basis, make_vertical):
        lanes = [make_vertical(250.0), make_vertical(250.0)]
        cands = CandidateSet(lanes, np.zeros((2, basis.m)), basis.content_id)
        picks = nms_select(cands, scores_for(cands, [0.9, 0.8]), t=2, iou_threshold=0.5)
        assert picks == [0]

    def test_matches_greedy_oracle_on_seeded_instances(self, basis, grid):
        rng = np.random.default_rng(17)
        rise = grid.y_coords[0] - grid.y_coords
        for _ in range(10):
            lanes = [
                Lane(
                    rng.uniform(80, 1200) + rng.uniform(-0.6, 0.6) * rise,
                    grid.n_samples,
                    grid,
                )
                for _ in range(20)
            ]
            cands = CandidateSet(lanes, np.zeros((20, basis.m)), basis.content_id)
            probs = rng.uniform(size=20)
            iou = [
                [stripe_iou(a, b, 30) for b in lanes] for a in lanes
            ]
            expected = greedy_nms_oracle(iou, probs, 10, 0.5)
            got = nms_select(cands, scores_for(cands, probs), t=10, iou_threshold=0.5)
            assert got == expected

    def test_outputs_pairwise_below_threshold(self, basis, grid):
        rng = np.random.default_rng(55)
        rise = grid.y_coords[0] - grid.y_coords
        lanes = [
            Lane(rng.uniform(60, 1220) + rng.uniform(-0.5, 0.5) * rise, grid.n_samples, grid)
            for _ in range(30)
        ]
        cands = CandidateSet(lanes, np.zeros((30, basis.m)), basis.content_id)
        picks = nms_select(cands, scores_for(cands, rng.uniform(size=30)), t=10,
                           iou_threshold=0.4)
        assert len(picks) <= 10
        for a, b in itertools.combinations(picks, 2):
            assert stripe_iou(lanes[a], lanes[b], 30) <= 0.4

    def test_min_probability_stops_early(self, basis, make_vertical):
        lanes = [make_vertical(x) for x in (100.0, 400.0, 700.0)]
        cands = CandidateSet(lanes, np.zeros((3, basis.m)), basis.content_id)
        picks = nms_select(
            cands, scores_for(cands, [0.9, 0.45, 0.2]), t=3, min_probability=0.5
        )
        assert picks == [0]


class TestRelationFromFeatures:
    def test_identical_rows_give_ones(self):
        f = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
        relation = relation_from_features(f)
        assert np.allclose(relation, 1.0)

    def test_orthogonal_rows_give_zero(self):
        relation = relation_from_features(np.eye(3))
        off_diag = relation[~np.eye(3, dtype=bool)]
        assert np.allclose(off_diag, 0.0)

    def test_matches_scalar_cosine_oracle(self):
        rng = np.random.default_rng(12)
        f = rng.normal(size=(5, 8))
        relation = relation_from_features(f)
        for i in range(5):
            for j in range(5):
                expected = float(
                    np.dot(f[i], f[j])
                    / (np.linalg.norm(f[i]) * np.linalg.norm(f[j]))
                )
                assert relation[i, j] == pytest.approx(expected, abs=1e-9)

    def test_zero_rows_flagged_and_zeroed(self):
        f = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
        with pytest.warns(UserWarning):
            relation = relation_from_features(f)
        assert np.allclose(relation[1], 0.0)
        assert np.allclose(relation[:, 1], 0.0)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(7, 5))
        relation = relation_from_features(f)
        assert np.allclose(relation, relation.T, atol=1e-12)
        assert np.all(relation >= -1.0) and np.all(relation <= 1.0)


class TestMwcs:
    def test_single_node_fallback(self):
        relation = np.zeros((1, 1))
        result = mwcs(relation, np.array([0.7]), kappa=0.3)
        assert result.member_indices == (0,)
        assert result.compatibility == 0.0

    def test_complete_positive_graph(self):
        t = 4
        relation = np.full((t, t), 0.9)
        result = mwcs(relation, np.full(t, 0.5), kappa=0.5)
        assert result.member_indices == (0, 1, 2, 3)
        assert result.compatibility == pytest.approx(6 * 0.9)

    def test_fallback_picks_argmax_probability(self):
        relation = np.full((3, 3), -0.5)
        result = mwcs(relation, np.array([0.2, 0.9, 0.4]), kappa=0.0)
        assert result.member_indices == (1,)

    def test_asymmetric_relation_is_symmetrized(self):
        relation = np.array([[1.0, 0.8], [0.2, 1.0]])
        result = mwcs(relation, np.array([0.5, 0.5]), kappa=0.4)
        # w = 0.5, exceeds kappa
        assert result.member_indices == (0, 1)
        assert result.compatibility == pytest.approx(0.5)

    def test_too_many_nodes(self):
        t = MAX_CLIQUE_NODES + 1
        with pytest.raises(TooManyNodes):
            mwcs(np.zeros((t, t)), np.zeros(t), kappa=0.0)

    def test_matches_brute_force_on_seeded_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            t = int(rng.integers(1, 11))
            # dyadic weights make float sums exactly reproducible across routes
            w = rng.integers(-64, 65, size=(t, t)) / 64.0
            w = 0.5 * (w + w.T)
            np.fill_diagonal(w, 0.0)
            kappa = float(rng.integers(-32, 33) / 32.0)
            probs = rng.uniform(size=t)
            expected_members, expected_weight = brute_force_mwcs(w, probs, kappa)
            result = mwcs(w, probs, kappa)
            assert result.member_indices == tuple(expected_members)
            assert result.compatibility == pytest.approx(expected_weight, abs=1e-9)
            # returned weight is consistent with a recomputation
            assert clique_weight(w, result.member_indices) == pytest.approx(
                result.compatibility, abs=1e-9
            )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_property_matches_brute_force(self, data):
        t = data.draw(st.integers(min_value=1, max_value=7))
        cells = data.draw(
            st.lists(
                st.integers(min_value=-64, max_value=64),
                min_size=t * t,
                max_size=t * t,
            )
        )
        w = np.array(cells, dtype=np.float64).reshape(t, t) / 64.0
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        kappa = data.draw(st.integers(min_value=-64, max_value=64)) / 64.0
        probs = np.linspace(0.1, 0.9, t)
        expected_members, _ = brute_force_mwcs(w, probs, kappa)
        result = mwcs(w, probs, kappa)
        assert result.member_indices == tuple(expected_members)
        # every internal edge satisfies the constraint (non-fallback cliques)
        if len(result.member_indices) >= 2:
            for i, j in itertools.combinations(result.member_indices, 2):
                assert w[i, j] > kappa

    def test_tie_prefers_larger_then_lexicographic(self):
        # two disjoint 2-cliques with equal weight; then a 3-clique variant
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 0.5
        w[2, 3] = w[3, 2] = 0.5
        result = mwcs(w, np.full(4, 0.5), kappa=0.25)
        assert result.member_indices == (0, 1)


class TestFinalize:
    def test_zero_offsets_full_height_reproduces_candidates(self, basis, candidates):
        heights = uniform_height_grid(basis.grid, 25)
        k = candidates.k
        height_dist = np.zeros((k, 25))
        height_dist[:, -1] = 1.0  # last bin sits at the grid's top row
        scores = CandidateScores(
            np.full(k, 0.5), height_dist, np.zeros((k, basis.m))
        )
        clique = CliqueResult((2, 5, 9), 1.0)
        lanes = finalize(basis, candidates, clique, scores, heights)
        assert len(lanes) == 3
        for idx, lane in zip(clique.member_indices, lanes):
            assert np.allclose(lane.xs, candidates.lanes[idx].xs, atol=1e-12)
            assert lane.top_index == basis.grid.n_samples

    def test_exact_offset_recovers_projected_target(self, basis, candidates, train_lanes):
        target = train_lanes[3]
        heights = uniform_height_grid(basis.grid, 25)
        k = candidates.k
        offsets = np.zeros((k, basis.m))
        offsets[0] = project(basis, target) - candidates.coefficients[0]
        height_dist = np.zeros((k, 25))
        height_dist[:, -1] = 1.0
        scores = CandidateScores(np.full(k, 0.5), height_dist, offsets)
        lanes = finalize(
            basis, candidates, CliqueResult((0,), 0.0), scores, heights
        )
        expected = reconstruct(basis, project(basis, target))
        assert np.allclose(lanes[0].xs, expected.xs, atol=1e-9)

    def test_height_truncation(self, basis, candidates):
        heights = uniform_height_grid(basis.grid, 25)
        k = candidates.k
        height_dist = np.zeros((k, 25))
        height_dist[:, 10] = 1.0
        scores = CandidateScores(np.full(k, 0.5), height_dist, np.zeros((k, basis.m)))
        lanes = finalize(basis, candidates, CliqueResult((0,), 0.0), scores, heights)
        y_end = heights[10]
        expected_top = int(np.count_nonzero(basis.grid.y_coords >= y_end))
        assert lanes[0].top_index == expected_top

    def test_preserves_clique_cardinality(self, basis, candidates):
        heights = uniform_height_grid(basis.grid, 25)
        k = candidates.k
        height_dist = np.zeros((k, 25))
        height_dist[:, 0] = 1.0
        scores = CandidateScores(np.full(k, 0.5), height_dist, np.zeros((k, basis.m)))
        for members in ((0,), (1, 4), (0, 2, 6, 8)):
            lanes = finalize(
                basis, candidates, CliqueResult(members, 0.0), scores, heights
            )
            assert len(lanes) == len(members)

    def test_out_of_range_member(self, basis, candidates):
        heights = uniform_height_grid(basis.grid, 25)
        k = candidates.k
        height_dist = np.zeros((k, 25))
        height_dist[:, 0] = 1.0
        scores = CandidateScores(np.full(k, 0.5), height_dist, np.zeros((k, basis.m)))
        with pytest.raises(IndexError):
            finalize(
                basis, candidates, CliqueResult((k,), 0.0), scores, heights
            )

    def test_offset_length_mismatch(self, basis, candidates):
        heights = uniform_height_grid(basis.grid, 25)
        k = candidates.k
        height_dist = np.zeros((k, 25))
        height_dist[:, 0] = 1.0
        scores = CandidateScores(
            np.full(k, 0.5), height_dist, np.zeros((k, basis.m + 1))
        )
        with pytest.raises(DimensionMismatch):
            finalize(basis, candidates, CliqueResult((0,), 0.0), scores, heights)


class TestCandidateScoresValidation:
    def test_rejects_bad_probability(self, basis, candidates):
        k = candidates.k
        height = np.zeros((k, 3))
        height[:, 0] = 1.0
        with pytest.raises(ValueError):
            CandidateScores(np.full(k, 1.5), height, np.zeros((k, basis.m)))

    def test_rejects_unnormalized_heights(self, basis, candidates):
        k = candidates.k
        height = np.full((k, 4), 0.3)
        with pytest.raises(ValueError):
            CandidateScores(np.full(k, 0.5), height, np.zeros((k, basis.m)))
