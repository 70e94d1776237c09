import itertools
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import candidate_lanes
from lanespace import (
    CandidateScores,
    CandidateSet,
    CliqueResult,
    DetectionConfig,
    DimensionMismatch,
    Lane,
    TooManyNodes,
    ValidationError,
    detect_image,
    finalize,
    mwcs,
    nms_select,
    project,
    reconstruct,
    relation_from_features,
    stripe_iou,
    uniform_height_grid,
)
from lanespace.geometry import stack_lanes
from lanespace.pipeline import MAX_CLIQUE_NODES


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


def reference_mwcs(relation, probabilities, kappa):
    """Reference solver: depth-first enumeration of every clique from each start node.

    Weights are added in ascending member order, as mwcs adds them, so the
    totals must agree bit for bit.
    """
    w = 0.5 * (relation + relation.T)
    t = w.shape[0]
    adj = [sum(1 << j for j in range(t) if j != i and w[i, j] > kappa) for i in range(t)]
    best = None

    def extend(members, weight, allowed):
        nonlocal best
        v = allowed
        while v:
            node = (v & -v).bit_length() - 1
            v &= v - 1
            new_members = members + [node]
            new_weight = weight + sum(w[node, m] for m in members)
            key = (new_weight, len(new_members), tuple(-m for m in new_members))
            if best is None or key > best:
                best = key
            higher = ~((1 << (node + 1)) - 1)
            extend(new_members, new_weight, allowed & adj[node] & higher)

    for start in range(t):
        extend([start], 0.0, adj[start] & ~((1 << (start + 1)) - 1))
    if best is None:
        return (int(np.argmax(probabilities)),), 0.0
    return tuple(-m for m in best[2]), float(best[0])


def dense_cosine_relation(rng, t, noise, zero_rows=False):
    """Cosines of noisy features around one shared direction.

    Noise 0.9 relates about nine in ten pairs; 2.5 leaves sparser graphs with
    negative edges. The cosines are not dyadic, so sums must follow one order.
    zero_rows zeroes every odd feature row, as the oracle zeroes every
    non-champion's: those nodes relate 0 to everything, so at kappa < 0 their
    edges tie in weight across many cliques.
    """
    direction = rng.normal(size=11)
    features = direction / np.linalg.norm(direction) + noise * rng.normal(
        size=(t, 11)
    ) / np.sqrt(11)
    if zero_rows:
        features[1::2] = 0.0
    return relation_from_features(features)


def mixed_sign_relation(rng, t):
    """Symmetrized uniform(-1, 1) weights: about half the edges are negative."""
    a = rng.uniform(-1.0, 1.0, size=(t, t))
    return 0.5 * (a + a.T)


def assert_matches_reference(relation, probabilities, kappa):
    """mwcs returns reference_mwcs's members and its weight, bit for bit."""
    expected_members, expected_weight = reference_mwcs(relation, probabilities, kappa)
    result = mwcs(relation, probabilities, kappa)
    assert result.member_indices == expected_members
    assert result.compatibility == expected_weight
    return result


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


class TestNmsSelect:
    def test_orders_by_probability(self, basis, grid, make_vertical):
        lanes = [make_vertical(x) for x in (100.0, 400.0, 700.0)]
        cands = CandidateSet(
            *stack_lanes(lanes, grid), grid, np.zeros((3, basis.m)), basis.content_id
        )
        picks = nms_select(cands, scores_for(cands, [0.9, 0.1, 0.1]), t=2)
        assert picks[0] == 0
        assert picks[1] == 1  # tie at 0.1 resolves to the lower index

    @pytest.mark.parametrize("t", [0, 2.5, True])
    def test_pick_budget_must_be_an_integer(self, basis, grid, make_vertical, t):
        lanes = [make_vertical(x) for x in (100.0, 400.0, 700.0)]
        cands = CandidateSet(
            *stack_lanes(lanes, grid), grid, np.zeros((3, basis.m)), basis.content_id
        )
        with pytest.raises(ValidationError, match="t must be an integer"):
            nms_select(cands, scores_for(cands, [0.9, 0.5, 0.1]), t=t)

    def test_duplicate_suppressed(self, basis, grid, make_vertical):
        lanes = [make_vertical(250.0), make_vertical(250.0)]
        cands = CandidateSet(
            *stack_lanes(lanes, grid), grid, np.zeros((2, basis.m)), basis.content_id
        )
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
            cands = CandidateSet(
                *stack_lanes(lanes, grid), grid, np.zeros((20, basis.m)), basis.content_id
            )
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
        cands = CandidateSet(
            *stack_lanes(lanes, grid), grid, np.zeros((30, basis.m)), basis.content_id
        )
        picks = nms_select(cands, scores_for(cands, rng.uniform(size=30)), t=10,
                           iou_threshold=0.4)
        assert len(picks) <= 10
        for a, b in itertools.combinations(picks, 2):
            assert stripe_iou(lanes[a], lanes[b], 30) <= 0.4

    def test_one_set_serves_interleaved_widths_and_thresholds(self, basis, grid):
        # near-parallel lanes a few pixels apart, so both knobs change the picks
        rng = np.random.default_rng(8)
        rise = grid.y_coords[0] - grid.y_coords
        xs = rng.uniform(500, 560, size=(40, 1)) + rng.uniform(-0.05, 0.05, size=(40, 1)) * rise
        top = np.full(40, grid.n_samples)
        coeffs = np.zeros((40, basis.m))
        shared = CandidateSet(xs, top, grid, coeffs, basis.content_id)
        scores = scores_for(shared, rng.uniform(size=40))
        runs = []
        for threshold, width in [(0.3, 10), (0.5, 30), (0.5, 10), (0.3, 30), (0.3, 10)]:
            fresh = CandidateSet(xs, top, grid, coeffs, basis.content_id)
            got = nms_select(shared, scores, t=10, iou_threshold=threshold, width=width)
            expected = nms_select(fresh, scores, t=10, iou_threshold=threshold, width=width)
            assert got == expected
            runs.append(got)
        assert len({tuple(picks) for picks in runs}) == 4  # every setting picks its own set

    def test_min_probability_stops_early(self, basis, grid, make_vertical):
        lanes = [make_vertical(x) for x in (100.0, 400.0, 700.0)]
        cands = CandidateSet(
            *stack_lanes(lanes, grid), grid, np.zeros((3, basis.m)), basis.content_id
        )
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

    def test_zero_rows_zeroed_without_warning(self):
        f = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            relation = relation_from_features(f)
        assert np.allclose(relation[1], 0.0)
        assert np.allclose(relation[:, 1], 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_features(self, bad):
        f = np.eye(3)
        f[1, 2] = bad
        with pytest.raises(ValidationError, match="features must be finite"):
            relation_from_features(f)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_relations_and_probabilities(self, bad):
        relation = np.full((3, 3), 0.9)
        relation[0, 1] = bad
        with pytest.raises(ValidationError, match="relation matrix must be finite"):
            mwcs(relation, np.full(3, 0.5), kappa=0.3)
        # unchecked, [nan, 0.5] fell back to node 0 and [0.2, inf] to node 1
        for probabilities in ([bad, 0.5], [0.2, bad]):
            with pytest.raises(ValidationError, match="probabilities must be finite"):
                mwcs(np.full((2, 2), -1.0), np.array(probabilities), kappa=0.0)

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

    @pytest.mark.parametrize("kappa", [-0.3, 0.0, 0.3])
    def test_matches_reference_on_dense_cosine_graphs(self, kappa):
        # T=17 and 18 give the pruning the most subtrees to skip
        rng = np.random.default_rng(14)
        for zero_rows in (False, True):
            for t in range(13, 19):
                for noise in (0.9, 2.5):
                    relation = dense_cosine_relation(rng, t, noise, zero_rows)
                    probs = rng.uniform(size=t)
                    assert_matches_reference(relation, probs, kappa)

    @pytest.mark.parametrize("kappa", [-1.0, -0.5, 0.0])
    def test_matches_reference_on_mixed_sign_graphs(self, kappa):
        # many positive up-edges lead outside the remaining set, so the bound
        # checked before entering a subtree is far above the one inside it
        rng = np.random.default_rng(1216)
        for t in range(12, 17):
            assert_matches_reference(mixed_sign_relation(rng, t), rng.uniform(size=t), kappa)

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

    def test_all_zero_weights_pick_the_full_set(self):
        # every clique ties at weight 0, so only the size decides
        result = assert_matches_reference(np.zeros((10, 10)), np.zeros(10), -0.5)
        assert result.member_indices == tuple(range(10))

    def test_all_equal_weights(self):
        assert_matches_reference(np.full((10, 10), 0.25), np.zeros(10), 0.0)

    def test_disjoint_equal_blocks_pick_the_lexicographically_smallest(self):
        # three interleaved triangles of equal weight; cross edges sit at kappa
        w = np.zeros((9, 9))
        for block in ((1, 4, 7), (0, 5, 6), (2, 3, 8)):
            for i, j in itertools.combinations(block, 2):
                w[i, j] = w[j, i] = 0.5
        result = assert_matches_reference(w, np.zeros(9), 0.0)
        assert result.member_indices == (0, 5, 6)

    def test_equal_weight_larger_clique_found_later_wins(self):
        # {0, 1} weighs 0.5 first; {2, 3, 4} ties it with 0.25 + 0.25 + 0
        w = np.full((5, 5), -0.5)
        w[0, 1] = w[1, 0] = 0.5
        w[2, 3] = w[3, 2] = w[2, 4] = w[4, 2] = 0.25
        w[3, 4] = w[4, 3] = 0.0
        result = assert_matches_reference(w, np.zeros(5), -0.1)
        assert result.member_indices == (2, 3, 4)

    def test_tiny_edges_rounding_above_the_bound_still_win(self):
        # {2, 3, 4, 5} sums to 0.5 + 1.2 ulp exactly, but adding its gains in
        # member order rounds up twice to 0.5 + 2 ulp, the weight of {0, 1};
        # the bound adds the same edges in another order and lands on
        # 0.5 + 1 ulp, so only the rounding allowance keeps it alive
        ulp = 2.0**-53
        w = np.zeros((6, 6))
        w[0, 1] = 0.5 + 2 * ulp
        w[2, 3] = 0.5
        w[2, 4] = w[3, 4] = 0.3 * ulp
        w[2, 5] = w[3, 5] = w[4, 5] = 0.2 * ulp
        w = w + w.T
        result = assert_matches_reference(w, np.zeros(6), 0.0)
        assert result.member_indices == (2, 3, 4, 5)
        assert result.compatibility == 0.5 + 2 * ulp

    @pytest.mark.parametrize("kappa", [-0.3, 0.0, 0.3])
    def test_dense_cosine_graphs_at_the_node_limit_finish_in_time(self, kappa):
        # full enumeration takes about a minute per graph here; the branch
        # and bound needs well under 0.2 s on a 2-core x86 machine
        rng = np.random.default_rng(25)
        for noise in (0.9, 0.9, 2.5, 2.5):
            relation = dense_cosine_relation(rng, MAX_CLIQUE_NODES, noise)
            start = time.perf_counter()
            result = mwcs(relation, rng.uniform(size=MAX_CLIQUE_NODES), kappa)
            assert time.perf_counter() - start < 2.0
            for i, j in itertools.combinations(result.member_indices, 2):
                assert 0.5 * (relation[i, j] + relation[j, i]) > kappa

    @pytest.mark.parametrize("kappa", [-0.3, -0.6, -1.0])
    def test_zero_row_graphs_at_the_node_limit_finish_in_time(self, kappa):
        rng = np.random.default_rng(25)
        for _ in range(4):
            relation = dense_cosine_relation(rng, MAX_CLIQUE_NODES, 2.5, zero_rows=True)
            start = time.perf_counter()
            result = mwcs(relation, rng.uniform(size=MAX_CLIQUE_NODES), kappa)
            assert time.perf_counter() - start < 2.0
            for i, j in itertools.combinations(result.member_indices, 2):
                assert 0.5 * (relation[i, j] + relation[j, i]) > kappa

    def test_all_zero_graph_at_the_node_limit_finishes_in_time(self):
        t = MAX_CLIQUE_NODES
        start = time.perf_counter()
        result = mwcs(np.zeros((t, t)), np.zeros(t), kappa=-0.5)
        assert time.perf_counter() - start < 2.0
        assert result == CliqueResult(tuple(range(t)), 0.0)

    @pytest.mark.parametrize("seed, members, weight_hex", [
        (0, (0, 1, 3, 4, 5, 7, 9, 10, 11, 12, 14, 16, 19, 20, 22, 24), "0x1.1ce9492ebee30p+4"),
        (1, (1, 2, 3, 4, 7, 8, 15, 16, 18, 19, 21, 23), "0x1.1560858a4f489p+3"),
        (2, (0, 1, 2, 5, 6, 7, 8, 10, 13, 15, 16, 17, 21, 22, 23, 24), "0x1.eeaf196a6cd7fp+3"),
        (3, (1, 2, 4, 7, 10, 11, 14, 15, 16, 18, 19, 20, 21, 22), "0x1.b8031892c3646p+3"),
    ])
    def test_mixed_sign_complete_graphs_at_the_node_limit_finish_in_time(
        self, seed, members, weight_hex
    ):
        # every edge is allowed at kappa -1, so only the bounds prune; the
        # expected cliques come from the search before the bound checked in
        # the parent, which took 1.1-5.0 s per graph on a 2-core x86 machine
        t = MAX_CLIQUE_NODES
        relation = mixed_sign_relation(np.random.default_rng(seed), t)
        start = time.perf_counter()
        result = mwcs(relation, np.zeros(t), kappa=-1.0)
        assert time.perf_counter() - start < 3.0
        assert result.member_indices == members
        assert result.compatibility.hex() == weight_hex

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
            assert np.allclose(lane.xs, candidate_lanes(candidates)[idx].xs, atol=1e-12)
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


class TestDetectImage:
    def test_features_need_one_row_per_candidate(self, basis, candidates):
        scores = scores_for(candidates, np.full(candidates.k, 0.5), heights_bins=1)
        heights = uniform_height_grid(basis.grid, 1)
        with pytest.raises(DimensionMismatch, match="one row per candidate"):
            detect_image(basis, candidates, scores, np.ones((10, 4)), heights)


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


class TestDetectionConfigValidation:
    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"t": 0}, ValidationError),
            ({"t": 2.5}, ValidationError),
            ({"t": True}, ValidationError),
            ({"t": MAX_CLIQUE_NODES + 1}, TooManyNodes),
            ({"kappa": 2.0}, ValidationError),
            ({"kappa": -1.5}, ValidationError),
            ({"kappa": float("nan")}, ValidationError),
            ({"iou_threshold": 0.0}, ValidationError),
            ({"iou_threshold": 1.5}, ValidationError),
            ({"min_probability": 2.0}, ValidationError),
            ({"min_probability": -0.1}, ValidationError),
        ],
    )
    def test_rejects_clique_settings_out_of_range(self, fields, error):
        with pytest.raises(error):
            DetectionConfig(**fields)

    def test_accepts_the_range_ends(self):
        DetectionConfig(t=1, kappa=-1.0, iou_threshold=1.0, min_probability=0.0, stripe_width=1)
        DetectionConfig(t=MAX_CLIQUE_NODES, kappa=1.0, min_probability=1.0)
