import json

import numpy as np
import pytest

from conftest import candidate_lanes
from lanespace import CandidateScores, SchemaError, VersionError
from lanespace.eigenspace import low_rank_residual
from lanespace.serialize import (
    load_basis,
    load_candidates,
    load_detections,
    load_image_scores,
    save_basis,
    save_candidates,
    save_detections,
    save_image_scores,
)


class TestBasisRoundTrip:
    def test_elementwise_equal(self, basis, tmp_path):
        path = tmp_path / "basis.json"
        save_basis(basis, path)
        loaded = load_basis(path)
        assert np.array_equal(loaded.u, basis.u)
        assert np.array_equal(loaded.singular_values, basis.singular_values)
        assert loaded.grid == basis.grid
        assert loaded.content_id == basis.content_id

    def test_reloaded_basis_gives_identical_residual(self, basis, train_lanes, tmp_path):
        from lanespace import LaneMatrix

        path = tmp_path / "basis.json"
        save_basis(basis, path)
        loaded = load_basis(path)
        matrix = LaneMatrix.from_lanes(train_lanes)
        original = low_rank_residual(matrix.columns, basis.u)
        assert np.array_equal(low_rank_residual(matrix.columns, loaded.u), original)

    def test_corrupt_dims_raise_schema_error(self, basis, tmp_path):
        path = tmp_path / "basis.json"
        save_basis(basis, path)
        obj = json.loads(path.read_text())
        obj["u"]["data"] = obj["u"]["data"][:-3]
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError):
            load_basis(path)

    def test_version_mismatch(self, basis, tmp_path):
        path = tmp_path / "basis.json"
        save_basis(basis, path)
        obj = json.loads(path.read_text())
        obj["schema_version"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(VersionError):
            load_basis(path)

    def test_wrong_kind(self, basis, tmp_path):
        path = tmp_path / "basis.json"
        save_basis(basis, path)
        obj = json.loads(path.read_text())
        obj["kind"] = "candidate_set"
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError):
            load_basis(path)


class TestCandidatesRoundTrip:
    def test_round_trip(self, candidates, tmp_path):
        path = tmp_path / "cands.json"
        save_candidates(candidates, path)
        loaded = load_candidates(path)
        assert loaded.k == candidates.k
        assert loaded.basis_id == candidates.basis_id
        assert np.array_equal(loaded.coefficients, candidates.coefficients)
        assert np.array_equal(loaded.xs, candidates.xs)
        assert np.array_equal(loaded.top_index, candidates.top_index)

    def test_count_mismatch_detected(self, candidates, tmp_path):
        path = tmp_path / "cands.json"
        save_candidates(candidates, path)
        obj = json.loads(path.read_text())
        obj["k"] = candidates.k + 1
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError):
            load_candidates(path)


class TestScoresRoundTrip:
    def test_round_trip(self, basis, candidates, tmp_path):
        rng = np.random.default_rng(0)
        k, m = candidates.k, basis.m
        heights = np.linspace(719.0, 252.0, 25)
        dist = np.zeros((k, 25))
        dist[:, 3] = 1.0
        scores = CandidateScores(rng.uniform(size=k), dist, rng.normal(size=(k, m)))
        features = rng.normal(size=(k, 11))
        path = tmp_path / "scores.jsonl"
        save_image_scores([("img0", scores, features, heights)], path)
        loaded = load_image_scores(path)
        assert len(loaded) == 1
        image_id, s2, f2, h2 = loaded[0]
        assert image_id == "img0"
        assert np.array_equal(s2.probabilities, scores.probabilities)
        assert np.array_equal(s2.height_distributions, scores.height_distributions)
        assert np.array_equal(s2.offsets, scores.offsets)
        assert np.array_equal(f2, features)
        assert np.array_equal(h2, heights)


class TestDetectionsRoundTrip:
    def test_round_trip(self, candidates, tmp_path):
        grid = candidates.grid
        lanes = candidate_lanes(candidates)[:3]
        path = tmp_path / "det.jsonl"
        save_detections([("img0", lanes, 1.25)], path)
        loaded = load_detections(path, grid)
        assert len(loaded) == 1
        image_id, lanes2, compatibility = loaded[0]
        assert image_id == "img0"
        assert compatibility == 1.25
        for a, b in zip(lanes2, lanes):
            assert np.array_equal(a.xs, b.xs)
            assert a.top_index == b.top_index

    def test_lane_length_checked(self, candidates, tmp_path):
        grid = candidates.grid
        path = tmp_path / "det.jsonl"
        save_detections([("img0", candidate_lanes(candidates)[:1], 0.0)], path)
        obj = json.loads(path.read_text().strip())
        obj["lanes"][0]["xs"] = obj["lanes"][0]["xs"][:-1]
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(SchemaError):
            load_detections(path, grid)
