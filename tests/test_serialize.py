import copy
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MUTATIONS, candidate_lanes, mutated, spliced_dumps, value_paths
from lanespace import (
    CandidateScores,
    CandidateSet,
    ClusteringConfig,
    SchemaError,
    SyntheticSpec,
    ValidationError,
    VersionError,
    cluster_lanes,
    f_measure,
    generate_synthetic,
    match_lanes,
    oracle_scores,
    serialize,
    straight_anchor_grid,
    tusimple_score,
    uniform_height_grid,
)
from lanespace.eigenspace import low_rank_residual
from lanespace.errors import json_floats
from lanespace.serialize import (
    _encode_array,
    _grid_to_obj,
    _json,
    _write_lines,
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


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and float64 bit patterns, so -0.0 differs from 0.0."""
    return a.dtype == b.dtype == np.float64 and np.array_equal(a.view(np.int64), b.view(np.int64))


def save_version_1(candidates: CandidateSet, path):
    """The candidate set as schema_version 1 wrote it, every array a flat list."""
    fields = {
        "grid": _grid_to_obj(candidates.grid),
        "basis_id": candidates.basis_id,
        "k": candidates.k,
        "coefficients": _encode_array(candidates.coefficients),
        "lanes": _encode_array(candidates.xs),
        "top_indices": candidates.top_index.tolist(),
    }
    _write_lines("candidate_set", [fields], path)


@pytest.fixture(scope="module")
def candidate_sets(basis, candidates):
    """Clustered sets at K=40 and K=1000, an extreme-valued set and 10,000 straight anchors."""
    grid = basis.grid
    extremes = np.array([-0.0, 5e-324, -5e-324, 1e300, -1e300, 0.0, 1 / 3])
    xs = np.resize(extremes, (9, grid.n_samples))
    lanes = [lane for record in generate_synthetic(SyntheticSpec(count=420, seed=8))
             for lane in record.resampled(grid)]
    return {
        "clustered-k40": candidates,
        "extremes": CandidateSet(xs, np.arange(9), grid, np.resize(extremes[::-1], (9, 4)), "x"),
        "clustered-k1000": cluster_lanes(basis, lanes, ClusteringConfig(k=1000, seed=2)),
        "anchors-k10000": straight_anchor_grid(basis, 10_000),
    }


class TestCandidatesRoundTrip:
    @pytest.mark.parametrize("name", ["clustered-k40", "extremes", "clustered-k1000",
                                      "anchors-k10000"])
    def test_round_trip(self, candidate_sets, name, tmp_path):
        candidates = candidate_sets[name]
        path = tmp_path / "cands.json"
        save_candidates(candidates, path)
        obj = json.loads(path.read_text())
        assert obj["schema_version"] == 2
        assert sorted(obj["lanes"]) == sorted(obj["coefficients"]) == ["dims", "float64"]
        loaded = load_candidates(path)
        assert loaded.k == candidates.k
        assert loaded.basis_id == candidates.basis_id
        assert same_bits(loaded.xs, candidates.xs)
        assert same_bits(loaded.coefficients, candidates.coefficients)
        assert np.array_equal(loaded.top_index, candidates.top_index)

    @pytest.mark.parametrize("name", ["extremes", "clustered-k1000"])
    def test_version_1_list_form_loads_to_equal_arrays(self, candidate_sets, name, tmp_path):
        candidates = candidate_sets[name]
        path = tmp_path / "cands.json"
        save_version_1(candidates, path)
        obj = json.loads(path.read_text())
        assert obj["schema_version"] == 1 and "data" in obj["lanes"]
        loaded = load_candidates(path)
        assert same_bits(loaded.xs, candidates.xs)
        assert same_bits(loaded.coefficients, candidates.coefficients)
        assert np.array_equal(loaded.top_index, candidates.top_index)
        assert loaded.basis_id == candidates.basis_id

    def test_only_candidate_sets_read_version_2(self, basis, candidates, tmp_path):
        save_candidates(candidates, tmp_path / "cands.json")
        obj = json.loads((tmp_path / "cands.json").read_text())
        obj["schema_version"] = 3
        (tmp_path / "cands.json").write_text(json.dumps(obj))
        with pytest.raises(VersionError, match="want 1 or 2"):
            load_candidates(tmp_path / "cands.json")
        save_basis(basis, tmp_path / "basis.json")
        obj = json.loads((tmp_path / "basis.json").read_text())
        assert obj["schema_version"] == 1 and "data" in obj["u"]
        obj["schema_version"] = 2
        (tmp_path / "basis.json").write_text(json.dumps(obj))
        with pytest.raises(VersionError):
            load_basis(tmp_path / "basis.json")

    def test_count_mismatch_detected(self, candidates, tmp_path):
        path = tmp_path / "cands.json"
        save_candidates(candidates, path)
        obj = json.loads(path.read_text())
        obj["k"] = candidates.k + 1
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError):
            load_candidates(path)


# (scores, features, height grid) of one small image: one-hot and fractional
# rows, signed zeros, a subnormal and a two-digit dims, so its line holds
# tokens of every kind
SCORES_ENTRY = (
    CandidateScores(
        np.array([0.0, 1.0, 0.25, 1 / 3]),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.25, 0.25], [0.0, 0.0, 1.0]]),
        np.array([[0.0, -0.0], [1.5, 0.0], [0.0, 0.0], [-2.25, 5e-324]]),
    ),
    np.pad([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.1, 0.2, 1e300], [0.0, 0.0, -1.0]], ((0, 0), (0, 7))),
    np.array([719.0, 400.0, 252.0]),
)


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

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_line_breaks_other_than_newline_stay_inside_an_id(self, char, tmp_path):
        path = tmp_path / "scores.jsonl"
        save_image_scores([("img", *SCORES_ENTRY)], path)
        obj = json.loads(path.read_text())
        obj["image_id"] = f"a{char}b"
        path.write_text(json.dumps(obj, ensure_ascii=False) + "\n", encoding="utf-8")
        [(image_id, scores, features, heights)] = load_image_scores(path)
        assert image_id == f"a{char}b"
        assert same_bits(features, SCORES_ENTRY[1])


def scores_outcome(path):
    """load_image_scores(path) as plain tuples of arrays, or the type and message of its error."""
    try:
        entries = load_image_scores(path)
    except ValidationError as exc:
        return type(exc), str(exc)
    return [(image_id, s.probabilities, s.height_distributions, s.offsets, f, h)
            for image_id, s, f, h in entries]


def assert_read_as_the_general_path_reads(text, path):
    """load_image_scores reads text as it does with the scores-line matcher switched off."""
    path.write_text(text, encoding="utf-8")
    outcome = scores_outcome(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "_SCORES_LINE", re.compile("(?!)"))  # never matches
        general = scores_outcome(path)
    if isinstance(general, tuple) or isinstance(outcome, tuple):
        assert outcome == general
        return
    assert len(outcome) == len(general)
    for entry, expected in zip(outcome, general):
        assert entry[0] == expected[0]
        assert all(same_bits(a, b) for a, b in zip(entry[1:], expected[1:]))


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# what a dims integer may be replaced by
DIMS_EDITS = [lambda d: "0" + d, lambda d: d.translate(ARABIC_INDIC),
              lambda d: d[0] + d[1:].translate(ARABIC_INDIC), lambda d: "1" + "0" * 18,
              lambda d: "9" * 5000]
# what one number of the line may be replaced by
TOKEN_EDITS = ["1.00", "1e0", "1E0", "1", "-0.0", "0", "00.0", "0.0", "1.0", "٣", "NaN",
               "Infinity", "-Infinity", "+1.0", ".5", "[" * 5000]
SEPARATOR_EDITS = [",", ",  ", ", \t", ",\t", ",\r", ",\n", " ,"]
ID_EDITS = ["\x01", "\x1f", "\t", "\x7f", '\\"', "\\u0041", "é", "\u2028"]


def _spans(pattern, text, offset=0):
    return [(offset + m.start(), offset + m.end()) for m in re.finditer(pattern, text)]


def _replace_one(line, draw, spans, replacements):
    """line with one of spans replaced by a drawn replacement (a text, or a function of the old)."""
    start, end = draw(st.sampled_from(spans))
    new = draw(st.sampled_from(replacements))
    return line[:start] + (new(line[start:end]) if callable(new) else new) + line[end:]


def _swap_keys(line, draw):
    obj = json.loads(line)
    dicts = [obj, *(value for value in obj.values() if isinstance(value, dict))]
    target = draw(st.sampled_from(dicts))
    keys = list(target)
    i = draw(st.integers(0, len(keys) - 2))
    keys[i], keys[i + 1] = keys[i + 1], keys[i]
    reordered = {key: target.pop(key) for key in keys}
    target.update(reordered)
    return json.dumps(obj)


def _mutate_value(line, draw):
    obj = json.loads(line)
    path = draw(st.sampled_from(list(value_paths(obj))))
    return spliced_dumps(mutated(obj, path, draw(st.sampled_from(MUTATIONS))))


SCORES_LINE_EDITS = {
    "mutated value": _mutate_value,
    "dims": lambda line, draw: _replace_one(
        line, draw, [span for m in re.finditer(r'"dims": \[[^\]]*', line)
                     for span in _spans(r"[0-9]+", m.group(), m.start())], DIMS_EDITS),
    "token": lambda line, draw: _replace_one(
        line, draw, _spans(r"(?<=[\[ ])-?[0-9][0-9.eE+-]*", line), TOKEN_EDITS),
    "separator": lambda line, draw: _replace_one(line, draw, _spans(", ", line), SEPARATOR_EDITS),
    "image id": lambda line, draw: _replace_one(
        line, draw, _spans(r'(?<="image_id": "synth_0000)', line), ID_EDITS),
    "swapped keys": _swap_keys,
}


class TestScoresLineReader:
    @pytest.fixture(scope="class")
    def line(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("scores") / "scores.jsonl"
        save_image_scores([("synth_00001", *SCORES_ENTRY)], path)
        return path.read_text().rstrip("\n")

    def test_writer_lines_never_reach_the_json_parser(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(5)
        k = 300
        dense = CandidateScores(rng.uniform(size=k), rng.dirichlet(np.ones(25), size=k),
                                rng.normal(size=(k, 6)))
        empty = CandidateScores(np.zeros(0), np.zeros((0, 25)), np.zeros((0, 6)))
        entries = [("img-0", *SCORES_ENTRY),
                   ("img 1", dense, rng.normal(size=(k, 11)), np.linspace(719.0, 252.0, 25)),
                   ("[2]", empty, np.zeros((0, 11)), np.linspace(719.0, 252.0, 25))]
        path = tmp_path / "scores.jsonl"
        save_image_scores(entries, path)

        def refuse(text, where):
            raise AssertionError("a line save_image_scores wrote went through parse_json")

        monkeypatch.setattr(serialize, "parse_json", refuse)
        loaded = load_image_scores(path)
        assert [entry[0] for entry in loaded] == ["img-0", "img 1", "[2]"]
        for (_, scores, features, heights), (_, *expected) in zip(loaded, entries):
            arrays = (scores.probabilities, scores.height_distributions, scores.offsets,
                      features, heights)
            wanted = (expected[0].probabilities, expected[0].height_distributions,
                      expected[0].offsets, *expected[1:])
            assert all(same_bits(a, b) for a, b in zip(arrays, wanted))

    def test_every_mutated_value_reads_as_the_general_path_reads(self, line, tmp_path):
        obj = json.loads(line)
        for path in value_paths(obj):
            for value in MUTATIONS:
                text = spliced_dumps(mutated(copy.deepcopy(obj), path, value))
                assert_read_as_the_general_path_reads(text + "\n", tmp_path / "scores.jsonl")

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_edited_lines_read_as_the_general_path_reads(self, line, tmp_path_factory, data):
        edit = SCORES_LINE_EDITS[data.draw(st.sampled_from(sorted(SCORES_LINE_EDITS)))]
        path = tmp_path_factory.getbasetemp() / "edited_scores.jsonl"
        assert_read_as_the_general_path_reads(edit(line, data.draw) + "\n", path)


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

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_line_breaks_other_than_newline_stay_inside_an_id(self, candidates, char, tmp_path):
        path = tmp_path / "det.jsonl"
        save_detections([("img", candidate_lanes(candidates)[:2], 0.5)], path)
        obj = json.loads(path.read_text())
        obj["image_id"] = f"a{char}b"
        path.write_text(json.dumps(obj, ensure_ascii=False) + "\n", encoding="utf-8")
        [(image_id, lanes, compatibility)] = load_detections(path, candidates.grid)
        assert image_id == f"a{char}b"
        assert len(lanes) == 2 and compatibility == 0.5

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


class TestJsonFloats:
    def test_same_bits_as_asarray(self):
        values = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1 / 3, 7, -3,
                  2**53 + 1, 2**63 + 1, -(2**64) - 1, 2**1023 + 2**970, 10**300]
        assert same_bits(json_floats(values, "values"), np.asarray(values, dtype=np.float64))
        assert json_floats([], "values").shape == (0,)

    @pytest.mark.parametrize("values", [[1.0, True], [1.0, "2"], [None], [[1.0]], (1.0,), 1.0])
    def test_only_flat_lists_of_numbers(self, values):
        with pytest.raises(SchemaError, match="flat list of numbers"):
            json_floats(values, "values")

    @pytest.mark.parametrize("values", [[10**400], [float("inf")], [1.0, float("nan")]])
    def test_only_finite_float64_values(self, values):
        with pytest.raises(SchemaError):
            json_floats(values, "values")
