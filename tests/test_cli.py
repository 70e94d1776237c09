import base64
import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEEP_LIST, LONG_INT, MUTATIONS, mutated, spliced_dumps, value_paths
from lanespace.cli import main
from lanespace.datasets import write_tusimple_jsonl
from lanespace.errors import ValidationError
from lanespace.geometry import MAX_IMAGE_SIDE
from lanespace.serialize import (
    SCHEMA_VERSION,
    load_basis,
    load_candidates,
    load_detections,
    load_image_scores,
)
from lanespace.synth import SyntheticSpec, generate_synthetic


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def run_ok(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full pipeline run whose artifacts later tests reuse."""
    runner = CliRunner()
    root = tmp_path_factory.mktemp("cliws")
    train = root / "train.jsonl"
    test = root / "test.jsonl"
    basis = root / "basis.json"
    cands = root / "cands.json"
    scores = root / "scores.jsonl"
    det = root / "det.jsonl"
    run_ok(runner, ["synth", "--count", "60", "--seed", "5", "-o", str(train)])
    run_ok(runner, ["synth", "--count", "12", "--seed", "77", "-o", str(test)])
    run_ok(
        runner,
        ["build-basis", "-d", str(train), "--rank", "6", "--samples", "50",
         "-o", str(basis)],
    )
    run_ok(
        runner,
        ["cluster", "-d", str(train), "-b", str(basis), "--k", "120", "--seed",
         "3", "-o", str(cands)],
    )
    run_ok(
        runner,
        ["score-oracle", "-c", str(cands), "-b", str(basis), "-d", str(test),
         "-o", str(scores)],
    )
    run_ok(
        runner,
        ["detect", "-c", str(cands), "-b", str(basis), "-s", str(scores),
         "-o", str(det)],
    )
    return {
        "root": root,
        "train": train,
        "test": test,
        "basis": basis,
        "cands": cands,
        "scores": scores,
        "det": det,
    }


class TestChain:
    def test_artifacts_exist_and_parse(self, workspace):
        basis = load_basis(workspace["basis"])
        cands = load_candidates(workspace["cands"])
        assert cands.basis_id == basis.content_id
        detections = load_detections(workspace["det"], basis.grid)
        assert len(detections) == 12
        assert all(lanes for _, lanes, _ in detections)

    def test_eval_culane_metric(self, runner, workspace):
        result = run_ok(
            runner,
            ["eval", "-p", str(workspace["det"]), "-d", str(workspace["test"]),
             "-b", str(workspace["basis"])],
        )
        value = float(result.output.split("f_measure:")[1].strip().splitlines()[0])
        assert 0.0 <= value <= 1.0

    def test_eval_tusimple_metric(self, runner, workspace):
        result = run_ok(
            runner,
            ["eval", "-p", str(workspace["det"]), "-d", str(workspace["test"]),
             "-b", str(workspace["basis"]), "--metric", "tusimple"],
        )
        assert "accuracy:" in result.output
        assert "fnr:" in result.output

    def test_single_object_artifacts_open_with_version_and_kind(self, runner, workspace):
        root, test, basis = workspace["root"], str(workspace["test"]), str(workspace["basis"])
        evaluate = ["eval", "-p", str(workspace["det"]), "-d", test, "-b", basis]
        reports = {
            "approx_report": ["approx", "-d", test, "-b", basis],
            "match_report": evaluate,
            "point_accuracy_report": [*evaluate, "--metric", "tusimple"],
        }
        for kind, args in reports.items():
            run_ok(runner, [*args, "-o", str(root / f"{kind}.json")])
        files = {"eigen_basis": workspace["basis"], "candidate_set": workspace["cands"],
                 **{kind: root / f"{kind}.json" for kind in reports}}
        for kind, path in files.items():
            obj = json.loads(path.read_text())
            version = 2 if kind == "candidate_set" else SCHEMA_VERSION  # packed arrays
            assert list(obj.items())[:2] == [("schema_version", version), ("kind", kind)]

    def test_list_form_candidates_give_the_same_chain_bytes(self, runner, workspace, tmp_path):
        listed = _edited(workspace["cands"], tmp_path, _to_list_form)
        outputs = {}
        for name, cands in (("packed", workspace["cands"]), ("listed", listed)):
            common = ["-c", str(cands), "-b", str(workspace["basis"])]
            scores, det, report = (tmp_path / f"{name}.{ext}" for ext in ("sc", "det", "rep"))
            run_ok(runner, ["score-oracle", *common, "-d", str(workspace["test"]),
                            "--noise-sigma", "0.1", "-o", str(scores)])
            run_ok(runner, ["detect", *common, "-s", str(scores), "-o", str(det)])
            run_ok(runner, ["eval", "-p", str(det), "-d", str(workspace["test"]),
                            "-b", str(workspace["basis"]), "-o", str(report)])
            outputs[name] = [path.read_bytes() for path in (scores, det, report)]
        assert outputs["packed"] == outputs["listed"]

    def test_straight_anchors_and_approx(self, runner, workspace):
        anchors = workspace["root"] / "anchors.json"
        run_ok(
            runner,
            ["straight-anchors", "-b", str(workspace["basis"]), "--n", "50",
             "-o", str(anchors)],
        )
        assert load_candidates(anchors).k == 50
        result = run_ok(
            runner,
            ["approx", "-d", str(workspace["train"]), "-b", str(workspace["basis"]),
             "--ranks", "1,2,3"],
        )
        assert "rank 3:" in result.output

    def test_render_svg(self, runner, workspace):
        out = workspace["root"] / "fig.svg"
        run_ok(
            runner,
            ["render", "-d", str(workspace["test"]), "-b", str(workspace["basis"]),
             "-p", str(workspace["det"]), "-c", str(workspace["cands"]),
             "-o", str(out)],
        )
        text = out.read_text()
        assert "<svg" in text
        assert "ground truth" in text

    def test_detect_ablation_flags(self, runner, workspace):
        out = workspace["root"] / "det_no_offsets.jsonl"
        run_ok(
            runner,
            ["detect", "-c", str(workspace["cands"]), "-b", str(workspace["basis"]),
             "-s", str(workspace["scores"]), "--disable-offsets", "-o", str(out)],
        )
        basis = load_basis(workspace["basis"])
        plain = load_detections(workspace["det"], basis.grid)
        ablated = load_detections(out, basis.grid)
        different = any(
            len(a[1]) != len(b[1])
            or any(not np.array_equal(la.xs, lb.xs) for la, lb in zip(a[1], b[1]))
            for a, b in zip(plain, ablated)
        )
        assert different


class TestValidationBehaviour:
    def test_mismatched_basis_is_validation_error(self, runner, workspace):
        other_basis = workspace["root"] / "other_basis.json"
        run_ok(
            runner,
            ["build-basis", "-d", str(workspace["train"]), "--rank", "4",
             "-o", str(other_basis)],
        )
        result = runner.invoke(
            main,
            ["score-oracle", "-c", str(workspace["cands"]), "-b", str(other_basis),
             "-d", str(workspace["test"]), "-o", "/dev/null"],
        )
        assert result.exit_code == 2
        assert "different basis" in result.output

    @pytest.mark.parametrize(
        "flag, value, message", [("--t", "26", "t=26 exceeds"), ("--kappa", "2", "kappa must")]
    )
    def test_clique_settings_fail_before_scores_are_read(
        self, runner, workspace, tmp_path, flag, value, message
    ):
        missing = str(tmp_path / "no_scores.jsonl")
        result = runner.invoke(main, [*_detect(workspace, tmp_path, missing), flag, value])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "no_scores" not in result.output

    def test_bad_dataset_is_validation_error(self, runner, workspace, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        result = runner.invoke(
            main,
            ["build-basis", "-d", str(bad), "-o", str(tmp_path / "x.json")],
        )
        assert result.exit_code == 2

    def test_missing_file_is_runtime_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["approx", "-d", str(tmp_path / "none.jsonl"),
             "-b", str(tmp_path / "none.json")],
        )
        assert result.exit_code == 1
        assert "cannot read" in result.output


def _config(tmp_path, defaults):
    path = tmp_path / "config.json"
    path.write_text(spliced_dumps({"schema_version": 1, "defaults": defaults}))
    return str(path)


def _edited(path, tmp_path, edit):
    """The first line of a workspace artifact, changed by edit, as a new file."""
    obj = json.loads(path.read_text().splitlines()[0])
    edit(obj)
    out = tmp_path / f"bad_{path.name}"
    out.write_text(spliced_dumps(obj) + "\n")
    return str(out)


def _detect(ws, tmp_path, scores=None):
    return ["detect", "-c", str(ws["cands"]), "-b", str(ws["basis"]),
            "-s", scores or str(ws["scores"]), "-o", str(tmp_path / "out.jsonl")]


def _score(ws, tmp_path):
    return ["score-oracle", "-c", str(ws["cands"]), "-b", str(ws["basis"]),
            "-d", str(ws["test"]), "-o", str(tmp_path / "out.jsonl")]


def _eval_candidates(ws, tmp, edit):
    return ["eval-candidates", "-c", _edited(ws["cands"], tmp, edit), "-d", str(ws["test"])]


def _eval(ws, tmp, edit):
    return ["eval", "-p", _edited(ws["det"], tmp, edit), "-d", str(ws["test"]),
            "-b", str(ws["basis"])]


def _set_item(key, index, value):
    return lambda obj: obj[key]["data"].__setitem__(index, value)


def _values(field) -> np.ndarray:
    """The values of a packed array field, decoded here rather than by the library."""
    return np.frombuffer(base64.b64decode(field["float64"]), dtype="<f8")


def _to_list_form(obj: dict):
    """Rewrite a packed candidate set as schema_version 1 wrote it: each array a flat list."""
    for key in ("coefficients", "lanes"):
        obj[key] = {"dims": obj[key]["dims"], "data": _values(obj[key]).tolist()}
    obj["schema_version"] = 1


def _set_listed(key, index, value):
    """An edit of the candidate set's list form: item index of the array under key set to value."""
    def edit(obj):
        _to_list_form(obj)
        _set_item(key, index, value)(obj)
    return edit


def _set_packed(key, edit_values):
    """An edit that packs edit_values(values) of the array under key back into its field."""
    def edit(obj):
        values = edit_values(_values(obj[key]).copy())
        obj[key]["float64"] = base64.b64encode(values.astype("<f8")).decode("ascii")
    return edit


def _set_top(value):
    return lambda obj: obj["lanes"][0].update(top_index=value)


def _build_basis_on_line(tmp_path, **fields):
    """build-basis on a one-line TuSimple file whose fields are replaced by fields."""
    obj = {"raw_file": "a", "h_samples": [700, 600], "lanes": [[5, 6]], **fields}
    path = tmp_path / "edited.jsonl"
    path.write_text(spliced_dumps(obj) + "\n")
    return ["build-basis", "-d", str(path), "-o", str(tmp_path / "b.json")]


# name -> (args built from the workspace and tmp_path, expected exit code)
BAD_INPUTS = {
    "detect-t-0": (lambda ws, tmp: [*_detect(ws, tmp), "--t", "0"], 2),
    "detect-kappa-2": (lambda ws, tmp: [*_detect(ws, tmp), "--kappa", "2"], 2),
    "detect-t-26": (lambda ws, tmp: [*_detect(ws, tmp), "--t", "26"], 2),
    # refused when the config is built, even with no image to run NMS on
    "detect-no-images-iou-thresh-0": (
        lambda ws, tmp: [*_detect(ws, tmp, str(tmp / "empty.jsonl")), "--iou-thresh", "0"], 2),
    "detect-no-images-min-prob-2": (
        lambda ws, tmp: [*_detect(ws, tmp, str(tmp / "empty.jsonl")), "--min-prob", "2"], 2),
    "detect-no-images-stripe-width-0": (
        lambda ws, tmp: [*_detect(ws, tmp, str(tmp / "empty.jsonl")), "--stripe-width", "0"], 2),
    # a width beyond int64 once overflowed inside the span build
    "eval-candidates-stripe-width-2-63": (
        lambda ws, tmp: ["eval-candidates", "-c", str(ws["cands"]), "-d", str(ws["test"]),
                         "--stripe-width", str(2**63)], 2),
    "eval-candidates-stripe-width-over-max-image-side": (
        lambda ws, tmp: ["eval-candidates", "-c", str(ws["cands"]), "-d", str(ws["test"]),
                         "--stripe-width", str(MAX_IMAGE_SIDE + 1)], 2),
    "build-basis-rank-0": (
        lambda ws, tmp: ["build-basis", "-d", str(ws["train"]), "--rank", "0",
                         "-o", str(tmp / "b.json")], 2),
    "synth-count-0": (lambda ws, tmp: ["synth", "--count", "0", "-o", str(tmp / "s.jsonl")], 2),
    "cluster-k-0": (
        lambda ws, tmp: ["cluster", "-d", str(ws["train"]), "-b", str(ws["basis"]),
                         "--k", "0", "-o", str(tmp / "c.json")], 2),
    "score-oracle-heights-0": (lambda ws, tmp: [*_score(ws, tmp), "--heights", "0"], 2),
    "score-oracle-iou-floor-1.5": (lambda ws, tmp: [*_score(ws, tmp), "--iou-floor", "1.5"], 2),
    # over the array budget: refused before the array is allocated
    "score-oracle-heights-1e8": (lambda ws, tmp: [*_score(ws, tmp), "--heights", "100000000"], 2),
    "build-basis-samples-1e8": (
        lambda ws, tmp: ["build-basis", "-d", str(ws["train"]), "--samples", "100000000",
                         "-o", str(tmp / "b.json")], 2),
    "straight-anchors-n-2e7": (
        lambda ws, tmp: ["straight-anchors", "-b", str(ws["basis"]), "--n", "20000000",
                         "-o", str(tmp / "a.json")], 2),
    "candidates-image-height-1e9": (
        lambda ws, tmp: _eval_candidates(
            ws, tmp, lambda obj: obj["grid"].update(image_height=10**9)), 2),
    "synth-out-is-directory": (lambda ws, tmp: ["synth", "--count", "2", "-o", str(tmp)], 1),
    "synth-out-under-a-file": (
        lambda ws, tmp: ["synth", "--count", "2", "-o", str(ws["train"] / "x.jsonl")], 1),
    "approx-ranks-a": (
        lambda ws, tmp: ["approx", "-d", str(ws["train"]), "-b", str(ws["basis"]),
                         "--ranks", "a"], 2),
    "synth-seed-negative": (
        lambda ws, tmp: ["synth", "--count", "2", "--seed", "-1", "-o", str(tmp / "s.jsonl")],
        2),
    "config-t-ten": (
        lambda ws, tmp: [*_detect(ws, tmp), "--config", _config(tmp, {"t": "ten"})], 2),
    "config-seed-x": (
        lambda ws, tmp: ["synth", "--count", "2", "--config", _config(tmp, {"seed": "x"}),
                         "-o", str(tmp / "s.jsonl")], 2),
    "config-null-k": (
        lambda ws, tmp: ["cluster", "-d", str(ws["train"]), "-b", str(ws["basis"]),
                         "--config", _config(tmp, {"k": None}), "-o", str(tmp / "c.json")], 2),
    # config values are checked as the text a flag would carry, not truncated
    "config-k-2.5": (
        lambda ws, tmp: ["cluster", "-d", str(ws["train"]), "-b", str(ws["basis"]),
                         "--config", _config(tmp, {"k": 2.5}), "-o", str(tmp / "c.json")], 2),
    "config-k-true": (
        lambda ws, tmp: ["cluster", "-d", str(ws["train"]), "-b", str(ws["basis"]),
                         "--config", _config(tmp, {"k": True}), "-o", str(tmp / "c.json")], 2),
    "config-seed-1.0": (
        lambda ws, tmp: ["synth", "--count", "2", "--config", _config(tmp, {"seed": 1.0}),
                         "-o", str(tmp / "s.jsonl")], 2),
    "config-kappa-true": (
        lambda ws, tmp: [*_detect(ws, tmp), "--config", _config(tmp, {"kappa": True})], 2),
    "scores-bad-dims": (
        lambda ws, tmp: _detect(ws, tmp, _edited(
            ws["scores"], tmp, lambda obj: obj["probabilities"].update(dims=["a", 1]))), 2),
    "scores-string-data": (
        lambda ws, tmp: _detect(ws, tmp, _edited(
            ws["scores"], tmp, _set_item("probabilities", 0, "a"))), 2),
    "scores-nan-features": (
        lambda ws, tmp: _detect(ws, tmp, _edited(
            ws["scores"], tmp, _set_item("features", 0, float("nan")))), 2),
    "scores-probability-1.5": (
        lambda ws, tmp: _detect(ws, tmp, _edited(
            ws["scores"], tmp, _set_item("probabilities", 0, 1.5))), 2),
    "scores-not-utf8": (lambda ws, tmp: _detect(ws, tmp, str(tmp / "binary.jsonl")), 2),
    "dataset-not-utf8": (
        lambda ws, tmp: ["build-basis", "-d", str(tmp / "binary.jsonl"),
                         "-o", str(tmp / "b.json")], 2),
    "csv-not-utf8": (
        lambda ws, tmp: ["build-basis", "-d", str(tmp / "binary.jsonl"), "--format", "csv",
                         "-o", str(tmp / "b.json")], 2),
    "culane-not-utf8": (
        lambda ws, tmp: ["build-basis", "-d", str(tmp / "culane"), "--format", "culane",
                         "-o", str(tmp / "b.json")], 2),
    "config-not-utf8": (
        lambda ws, tmp: ["synth", "--count", "2", "--config", str(tmp / "binary.jsonl"),
                         "-o", str(tmp / "s.jsonl")], 2),
    "candidates-top-index-2.7": (
        lambda ws, tmp: _eval_candidates(
            ws, tmp, lambda obj: obj["top_indices"].__setitem__(0, 2.7)), 2),
    "candidates-top-index-a": (
        lambda ws, tmp: _eval_candidates(
            ws, tmp, lambda obj: obj["top_indices"].__setitem__(0, "a")), 2),
    "candidates-image-width-x": (
        lambda ws, tmp: _eval_candidates(
            ws, tmp, lambda obj: obj["grid"].update(image_width="x")), 2),
    "detections-top-index-2.7": (lambda ws, tmp: _eval(ws, tmp, _set_top(2.7)), 2),
    "detections-top-index-a": (lambda ws, tmp: _eval(ws, tmp, _set_top("a")), 2),
    "candidates-top-index-51": (
        lambda ws, tmp: _eval_candidates(
            ws, tmp, lambda obj: obj["top_indices"].__setitem__(0, 51)), 2),
    "candidates-top-index--1": (
        lambda ws, tmp: _eval_candidates(
            ws, tmp, lambda obj: obj["top_indices"].__setitem__(0, -1)), 2),
    "candidates-top-indices-int": (
        lambda ws, tmp: _eval_candidates(ws, tmp, lambda obj: obj.update(top_indices=5)), 2),
    "candidates-grid-int": (
        lambda ws, tmp: _eval_candidates(ws, tmp, lambda obj: obj.update(grid=3)), 2),
    "detections-lanes-int": (lambda ws, tmp: _eval(ws, tmp, lambda obj: obj.update(lanes=3)), 2),
    "detections-lane-entry-int": (
        lambda ws, tmp: _eval(ws, tmp, lambda obj: obj["lanes"].__setitem__(0, 3)), 2),
    "detections-compatibility-nan": (
        lambda ws, tmp: _eval(ws, tmp, lambda obj: obj.update(compatibility=float("nan"))), 2),
    "detections-compatibility-x": (
        lambda ws, tmp: _eval(ws, tmp, lambda obj: obj.update(compatibility="x")), 2),
    "dataset-string-coordinates": (
        lambda ws, tmp: ["build-basis", "-d", str(tmp / "strings.jsonl"),
                         "-o", str(tmp / "b.json")], 2),
    "render-empty-dataset": (
        lambda ws, tmp: ["render", "-d", str(tmp / "empty.jsonl"), "-b", str(ws["basis"]),
                         "-o", str(tmp / "r.svg")], 2),
    "dataset-lanes-int": (lambda ws, tmp: _build_basis_on_line(tmp, lanes=3), 2),
    "dataset-lanes-null": (lambda ws, tmp: _build_basis_on_line(tmp, lanes=None), 2),
    "dataset-h-samples-null": (lambda ws, tmp: _build_basis_on_line(tmp, h_samples=None), 2),
    "dataset-raw-file-null": (
        lambda ws, tmp: [*_build_basis_on_line(tmp, raw_file=None), "--rank", "1"], 2),
    "dataset-nested-h-samples": (
        lambda ws, tmp: [*_build_basis_on_line(tmp, h_samples=[[700, 600]], lanes=[[[5, 6]]]),
                         "--rank", "1"], 2),
    "dataset-lane-entry-int": (
        lambda ws, tmp: [*_build_basis_on_line(tmp, lanes=[3]), "--rank", "1"], 2),
    "detect-min-prob-nan": (lambda ws, tmp: [*_detect(ws, tmp), "--min-prob", "nan"], 2),
    "detect-min-prob-2": (lambda ws, tmp: [*_detect(ws, tmp), "--min-prob", "2"], 2),
    "render-max-candidates--1": (
        lambda ws, tmp: ["render", "-d", str(ws["test"]), "-b", str(ws["basis"]),
                         "-c", str(ws["cands"]), "--max-candidates", "-1",
                         "-o", str(tmp / "r.svg")], 2),
    "synth-weights-nan": (
        lambda ws, tmp: ["synth", "--count", "2", "--weights", "nan,1,1",
                         "-o", str(tmp / "s.jsonl")], 2),
    "synth-weights-inf": (
        lambda ws, tmp: ["synth", "--count", "2", "--weights", "inf,1,1",
                         "-o", str(tmp / "s.jsonl")], 2),
    "synth-weights-sum-overflows": (
        lambda ws, tmp: ["synth", "--count", "2", "--weights", "1e308,1e308,1",
                         "-o", str(tmp / "s.jsonl")], 2),
    "score-oracle-noise-sigma-nan": (
        lambda ws, tmp: [*_score(ws, tmp), "--noise-sigma", "nan"], 2),
    "score-oracle-noise-sigma-inf": (
        lambda ws, tmp: [*_score(ws, tmp), "--noise-sigma", "inf"], 2),
    "candidates-image-width-huge": (
        lambda ws, tmp: _eval_candidates(
            ws, tmp, lambda obj: obj["grid"].update(image_width=10**400)), 2),
    "build-basis-image-width-huge": (
        lambda ws, tmp: ["build-basis", "-d", str(ws["train"]), "--image-width", str(10**400),
                         "-o", str(tmp / "b.json")], 2),
    "build-basis-image-height-huge": (
        lambda ws, tmp: ["build-basis", "-d", str(ws["train"]), "--image-height", str(10**400),
                         "-o", str(tmp / "b.json")], 2),
    "synth-image-width-huge": (
        lambda ws, tmp: ["synth", "--count", "2", "--image-width", str(10**400),
                         "-o", str(tmp / "s.jsonl")], 2),
    "detections-xs-bool": (
        lambda ws, tmp: _eval(ws, tmp, lambda obj: obj["lanes"][0]["xs"].__setitem__(0, True)),
        2),
    "candidates-data-bool": (
        lambda ws, tmp: _eval_candidates(ws, tmp, _set_listed("lanes", 0, True)), 2),
    "candidates-float64-int": (
        lambda ws, tmp: _eval_candidates(ws, tmp, lambda obj: obj["lanes"].update(float64=5)), 2),
    # a lenient decoder would drop the "$" and read the lanes
    "candidates-float64-not-base64": (
        lambda ws, tmp: _eval_candidates(
            ws, tmp, lambda obj: obj["lanes"].update(float64="$" + obj["lanes"]["float64"])), 2),
    "candidates-float64-one-value-short": (
        lambda ws, tmp: _eval_candidates(ws, tmp, _set_packed("lanes", lambda xs: xs[:-1])), 2),
    "candidates-float64-nan": (
        lambda ws, tmp: _eval_candidates(
            ws, tmp, _set_packed("coefficients", lambda c: np.append(c[:-1], np.nan))), 2),
    "candidates-data-and-float64": (
        lambda ws, tmp: _eval_candidates(
            ws, tmp, lambda obj: obj["lanes"].update(data=_values(obj["lanes"]).tolist())), 2),
    "candidates-neither-data-nor-float64": (
        lambda ws, tmp: _eval_candidates(ws, tmp, lambda obj: obj["lanes"].pop("float64")), 2),
    "candidates-k-5000-digits": (
        lambda ws, tmp: _eval_candidates(ws, tmp, lambda obj: obj.update(k=LONG_INT)), 2),
    "dataset-5000-digits": (
        lambda ws, tmp: _build_basis_on_line(tmp, h_samples=[700, LONG_INT]), 2),
    "config-5000-digits": (
        lambda ws, tmp: ["synth", "--count", "2", "--config", _config(tmp, {"seed": LONG_INT}),
                         "-o", str(tmp / "s.jsonl")], 2),
    "scores-5000-deep": (
        lambda ws, tmp: _detect(ws, tmp, _edited(
            ws["scores"], tmp, lambda obj: obj.update(features=DEEP_LIST))), 2),
    "dataset-5000-deep": (lambda ws, tmp: _build_basis_on_line(tmp, lanes=DEEP_LIST), 2),
    "config-5000-deep": (
        lambda ws, tmp: ["synth", "--count", "2", "--config", _config(tmp, {"seed": DEEP_LIST}),
                         "-o", str(tmp / "s.jsonl")], 2),
    "detections-compatibility-huge": (
        lambda ws, tmp: _eval(ws, tmp, lambda obj: obj.update(compatibility=10**400)), 2),
}


class TestInputErrorsExitCleanly:
    def test_validation_error_is_a_value_error(self):
        assert issubclass(ValidationError, ValueError)

    @pytest.mark.parametrize("name", list(BAD_INPUTS))
    def test_one_error_line_and_no_traceback(self, runner, workspace, tmp_path, name):
        build, code = BAD_INPUTS[name]
        (tmp_path / "empty.jsonl").write_text("")
        (tmp_path / "binary.jsonl").write_bytes(b"\xff\xfe\n")
        (tmp_path / "culane").mkdir()
        (tmp_path / "culane" / "a.lines.txt").write_bytes(b"\xff\xfe\n")
        (tmp_path / "strings.jsonl").write_text(
            json.dumps({"raw_file": "a", "h_samples": [700, 600], "lanes": [["x", 5]]}) + "\n"
        )
        result = runner.invoke(main, build(workspace, tmp_path))
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines()
                  if line.startswith(("error:", "Error:"))]
        assert len(errors) == 1, result.output
        assert "Traceback" not in result.output


# artifact -> (its workspace key, the command that reads a mutated copy at path)
ARTIFACT_READERS = {
    "candidates": ("cands", lambda ws, path: ["eval-candidates", "-c", path, "-d", str(ws["test"])]),
    "basis": ("basis", lambda ws, path: ["approx", "-d", str(ws["test"]), "-b", path]),
    "scores": ("scores", lambda ws, path: _detect(ws, ws["root"], path)),
    "detections": (
        "det", lambda ws, path: ["eval", "-p", path, "-d", str(ws["test"]), "-b", str(ws["basis"])]),
    "test-dataset": ("test", lambda ws, path: ["iou", "-d", path, "-b", str(ws["basis"])]),
}
class TestArtifactMutations:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_one_mutated_value_exits_0_or_2_without_traceback(self, runner, workspace, data):
        key, command = ARTIFACT_READERS[data.draw(st.sampled_from(sorted(ARTIFACT_READERS)))]
        obj = json.loads(workspace[key].read_text().splitlines()[0])
        path = data.draw(st.sampled_from(list(value_paths(obj))))
        value = data.draw(st.sampled_from(MUTATIONS))
        out = workspace["root"] / f"mutated_{workspace[key].name}"
        out.write_text(spliced_dumps(mutated(obj, path, value)) + "\n")
        result = runner.invoke(main, command(workspace, str(out)))
        assert result.exit_code in (0, 2), result.output
        assert isinstance(result.exception, (SystemExit, type(None))), result.exception
        errors = [line for line in result.output.splitlines()
                  if line.startswith(("error:", "Error:"))]
        assert len(errors) == (result.exit_code == 2), result.output
        assert "Traceback" not in result.output


class TestFlagsReachTheLibrary:
    def test_weights_pick_the_families(self, runner, tmp_path):
        out = tmp_path / "s.jsonl"
        run_ok(runner, ["synth", "--count", "8", "--weights", "0,0,1", "-o", str(out)])
        categories = [json.loads(line)["category"] for line in out.read_text().splitlines()]
        assert categories == ["s_curve"] * 8

    def test_curvature_sets_the_curvature_range(self, runner, tmp_path):
        out = tmp_path / "s.jsonl"
        plain = tmp_path / "plain.jsonl"
        expected = tmp_path / "expected.jsonl"
        args = ["synth", "--count", "6", "--seed", "2", "--weights", "0,1,0"]
        run_ok(runner, [*args, "--curvature", "0.003,0.003", "-o", str(out)])
        run_ok(runner, [*args, "-o", str(plain)])
        spec = SyntheticSpec(count=6, seed=2, weights=(0.0, 1.0, 0.0),
                             curvature_range=(0.003, 0.003))
        write_tusimple_jsonl(generate_synthetic(spec), expected)
        assert out.read_text() == expected.read_text()
        assert out.read_text() != plain.read_text()

    def test_noise_sigma_perturbs_only_probabilities(self, runner, workspace, tmp_path):
        run_ok(runner, [*_score(workspace, tmp_path), "--noise-sigma", "0.2"])
        plain = load_image_scores(workspace["scores"])
        noisy = load_image_scores(tmp_path / "out.jsonl")
        assert len(noisy) == len(plain)
        for (_, a, fa, _), (_, b, fb, _) in zip(plain, noisy):
            assert not np.array_equal(a.probabilities, b.probabilities)
            assert np.array_equal(a.offsets, b.offsets)
            assert np.array_equal(fa, fb)

    def test_image_id_picks_the_rendered_image(self, runner, workspace, tmp_path):
        out = tmp_path / "r.svg"
        result = run_ok(runner, ["render", "-d", str(workspace["test"]),
                                 "-b", str(workspace["basis"]),
                                 "--image-id", "synth_00003", "-o", str(out)])
        assert "image: synth_00003" in result.output
        assert "<title>synth_00003</title>" in out.read_text()

    def test_min_prob_stops_selection(self, runner, workspace, tmp_path):
        run_ok(runner, [*_detect(workspace, tmp_path), "--min-prob", "1"])
        grid = load_basis(workspace["basis"]).grid
        detections = load_detections(tmp_path / "out.jsonl", grid)
        assert len(detections) == 12
        assert all(not lanes for _, lanes, _ in detections)

    def test_max_candidates_caps_the_candidate_layer(self, runner, workspace, tmp_path):
        out = tmp_path / "r.svg"
        run_ok(runner, ["render", "-d", str(workspace["test"]), "-b", str(workspace["basis"]),
                        "-c", str(workspace["cands"]), "--max-candidates", "3",
                        "-o", str(out)])
        text = out.read_text()
        group = text.split('<g id="candidates">')[1].split("</g>")[0]
        assert group.count("<polyline") == 3
        assert "candidates (3)" in text


class TestConfigAndEnv:
    def test_config_file_overrides_defaults(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"schema_version": 1, "defaults": {"seed": 9, "samples": 30}})
        )
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        run_ok(runner, ["synth", "--count", "4", "--config", str(config), "-o", str(out_a)])
        run_ok(runner, ["synth", "--count", "4", "--seed", "9", "-o", str(out_b)])
        assert out_a.read_text() == out_b.read_text()

    def test_config_values_are_converted_like_flags(self, runner, tmp_path):
        config = _config(tmp_path, {"seed": "9"})
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        run_ok(runner, ["synth", "--count", "4", "--config", config, "-o", str(out_a)])
        run_ok(runner, ["synth", "--count", "4", "--seed", "9", "-o", str(out_b)])
        assert out_a.read_text() == out_b.read_text()

    def test_help_shows_shared_defaults(self, runner):
        text = run_ok(runner, ["detect", "--help"]).output
        assert "[default: 10]" in text
        assert "[default: 0.3]" in text

    def test_explicit_flag_beats_config(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema_version": 1, "defaults": {"seed": 9}}))
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        run_ok(runner, ["synth", "--count", "4", "--seed", "2", "--config", str(config),
                        "-o", str(out_a)])
        run_ok(runner, ["synth", "--count", "4", "--seed", "2", "-o", str(out_b)])
        assert out_a.read_text() == out_b.read_text()

    def test_bad_config_version_exits_2(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema_version": 3, "defaults": {}}))
        result = runner.invoke(
            main, ["synth", "--count", "2", "--config", str(config), "-o", "x.jsonl"]
        )
        assert result.exit_code == 2

    def test_unknown_config_key_exits_2(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema_version": 1, "defaults": {"bogus": 1}}))
        result = runner.invoke(
            main, ["synth", "--count", "2", "--config", str(config), "-o", "x.jsonl"]
        )
        assert result.exit_code == 2

    def test_out_dir_env_redirects_relative_paths(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("LANESPACE_OUT_DIR", str(tmp_path / "redirected"))
        run_ok(runner, ["synth", "--count", "2", "--seed", "1", "-o", "data.jsonl"])
        assert (tmp_path / "redirected" / "data.jsonl").exists()

    def test_absolute_path_ignores_env(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("LANESPACE_OUT_DIR", str(tmp_path / "redirected"))
        target = tmp_path / "direct.jsonl"
        run_ok(runner, ["synth", "--count", "2", "--seed", "1", "-o", str(target)])
        assert target.exists()
