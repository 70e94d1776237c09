import dataclasses
import json

import numpy as np
import pytest

from conftest import candidate_lanes
from lanespace import (
    CandidateScores,
    SchemaError,
    VersionError,
    f_measure,
    match_lanes,
    oracle_scores,
    serialize,
    tusimple_score,
    uniform_height_grid,
)
from lanespace.eigenspace import low_rank_residual
from lanespace.serialize import (
    _encode_array,
    _json,
    load_basis,
    load_candidates,
    load_detections,
    load_image_scores,
    save_basis,
    save_candidates,
    save_detections,
    save_image_scores,
    save_json,
)


def listed(value):
    """value with every array replaced by its row-major flat list, as json.dumps needs it."""
    if isinstance(value, np.ndarray):
        return value.ravel().tolist()
    if isinstance(value, dict):
        return {key: listed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [listed(item) for item in value]
    return value


_rng = np.random.default_rng(4)
WRITER_ARRAYS = {
    "signed-zero-rows": np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [0.0, 0.0], [-0.0, -0.0]]),
    "extremes": np.array([[5e-324, -5e-324, 1e300], [-1e300, 0.1, 1 / 3], [5e-324, -5e-324, 1e300]]),
    "one-hot-rows": np.eye(25)[_rng.integers(0, 25, size=300)],
    "mostly-zero-rows": np.where(_rng.uniform(size=(200, 1)) < 0.1, _rng.normal(size=(200, 6)), 0.0),
    "1-d": _rng.normal(size=40),
    "1-d-repeats": np.array([1.5, 1.5, -0.0, 1.5]),
    "0-d": np.array(-2.5e-7),
    "k-by-0": np.zeros((4, 0)),
    "0-by-n": np.zeros((0, 6)),
    "3-d": np.stack([_rng.normal(size=(2, 4))] * 3),
    "integers": np.arange(12).reshape(3, 4),
    "transposed": _rng.normal(size=(5, 3)).T,
}


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


class TestWriter:
    @pytest.mark.parametrize("name", list(WRITER_ARRAYS))
    def test_array_is_json_dumps_of_its_list(self, name):
        arr = WRITER_ARRAYS[name]
        field = _encode_array(arr)
        expected = json.dumps({"dims": list(arr.shape), "data": listed(field["data"])})
        assert _json(field, {}) == expected

    def test_rows_repeated_across_arrays_share_one_text(self):
        one_hot = WRITER_ARRAYS["one-hot-rows"]
        signed = WRITER_ARRAYS["signed-zero-rows"]
        fields = {"a": _encode_array(one_hot), "b": [_encode_array(one_hot[::-1]), signed],
                  "c": {"d": _encode_array(signed[:, :1]), "e": (1, -0.0, "x")}}
        rows = {}
        assert _json(fields, rows) == json.dumps(listed(fields))
        # one text per distinct row: the one-hot rows, four signed-zero pairs, [0.0] and [-0.0]
        assert len(rows) == len({row.tobytes() for row in one_hot}) + 4 + 2

    def test_every_artifact_kind_is_json_dumps_of_its_list_form(
        self, basis, candidates, train_lanes, tmp_path, monkeypatch
    ):
        lanes = candidate_lanes(candidates)
        heights = uniform_height_grid(basis.grid)
        scores, features = oracle_scores(candidates, train_lanes[:4], basis, heights)
        offsets = scores.offsets.copy()
        offsets[::3] = -0.0
        signed = CandidateScores(scores.probabilities, scores.height_distributions, offsets)
        matches = [match_lanes(lanes[:3], train_lanes[:4]), match_lanes([], train_lanes[:1])]
        writers = {
            "eigen_basis": lambda path: save_basis(basis, path),
            "candidate_set": lambda path: save_candidates(candidates, path),
            "image_scores": lambda path: save_image_scores(
                [("a", scores, features, heights), ("b", signed, -features, heights)], path
            ),
            "detections": lambda path: save_detections(
                [("a", lanes[:3], 1.25), ("b", [], 0.0)], path
            ),
            "match_report": lambda path: save_json(
                "match_report", dataclasses.asdict(f_measure(matches)), path
            ),
            "point_accuracy_report": lambda path: save_json(
                "point_accuracy_report",
                dataclasses.asdict(tusimple_score([lanes[:3]], [train_lanes[:4]])),
                path,
            ),
            "approx_report": lambda path: save_json(
                "approx_report", {"lanes": 4, "rows": [{"rank": 1, "residual_energy": 0.5}]}, path
            ),
        }
        for kind, write in writers.items():
            write(tmp_path / f"{kind}.rows")
        monkeypatch.setattr(serialize, "_json", lambda value, rows: json.dumps(listed(value)))
        for kind, write in writers.items():
            write(tmp_path / f"{kind}.dumps")
            written = (tmp_path / f"{kind}.rows").read_bytes()
            assert written == (tmp_path / f"{kind}.dumps").read_bytes(), kind
            assert json.loads(written.splitlines()[0])["kind"] == kind
