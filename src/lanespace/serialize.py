"""JSON (de)serialization for bases, candidate sets, scores and reports.

Every file is a JSON object with a schema_version and a kind tag; numeric
arrays are stored as row-major flat lists next to their explicit dims. The
standard json encoder emits shortest round-trippable decimals, so float64
content survives a round trip bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .candidates import CandidateSet
from .errors import IoError, SchemaError, VersionError
from .eigenspace import EigenBasis
from .geometry import Lane, SamplingGrid
from .metrics import MatchReport, PointAccuracyReport
from .pipeline import CandidateScores

SCHEMA_VERSION = 1


def _require(obj: dict, key: str):
    if key not in obj:
        raise SchemaError(f"missing key '{key}'")
    return obj[key]


def _check_header(obj: dict, kind: str):
    if not isinstance(obj, dict):
        raise SchemaError("expected a JSON object")
    version = _require(obj, "schema_version")
    if version != SCHEMA_VERSION:
        raise VersionError(f"schema_version {version} unsupported (want {SCHEMA_VERSION})")
    actual = _require(obj, "kind")
    if actual != kind:
        raise SchemaError(f"expected kind '{kind}', found '{actual}'")


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {"dims": list(arr.shape), "data": arr.ravel().tolist()}


def _decode_array(obj, expected_ndim: int | None = None) -> np.ndarray:
    if not isinstance(obj, dict):
        raise SchemaError("array field must be an object with dims and data")
    dims = _require(obj, "dims")
    data = _require(obj, "data")
    expected = int(np.prod(dims)) if dims else 0
    if len(data) != expected:
        raise SchemaError(f"array claims shape {dims} but carries {len(data)} values")
    if expected_ndim is not None and len(dims) != expected_ndim:
        raise SchemaError(f"array must have {expected_ndim} dims, found {len(dims)}")
    return np.asarray(data, dtype=np.float64).reshape(dims)


def _grid_to_obj(grid: SamplingGrid) -> dict:
    return {
        "image_width": grid.image_width,
        "image_height": grid.image_height,
        "n_samples": grid.n_samples,
        "y_coords": _encode_array(grid.y_coords),
    }


def _grid_from_obj(obj: dict) -> SamplingGrid:
    ys = _decode_array(_require(obj, "y_coords"), expected_ndim=1)
    if ys.size != _require(obj, "n_samples"):
        raise SchemaError("grid n_samples does not match y_coords length")
    return SamplingGrid(int(obj["image_width"]), int(obj["image_height"]), ys)


def _write_json(obj: dict, path):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc.msg})") from exc


def save_basis(basis: EigenBasis, path):
    _write_json(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "eigen_basis",
            "grid": _grid_to_obj(basis.grid),
            "m": basis.m,
            "u": _encode_array(basis.u),
            "singular_values": _encode_array(basis.singular_values),
        },
        path,
    )


def load_basis(path) -> EigenBasis:
    obj = _read_json(path)
    _check_header(obj, "eigen_basis")
    grid = _grid_from_obj(_require(obj, "grid"))
    u = _decode_array(_require(obj, "u"), expected_ndim=2)
    sv = _decode_array(_require(obj, "singular_values"), expected_ndim=1)
    if u.shape[1] != _require(obj, "m"):
        raise SchemaError("basis m does not match u dims")
    return EigenBasis(u, sv, grid)


def save_candidates(candidates: CandidateSet, path):
    _write_json(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "candidate_set",
            "grid": _grid_to_obj(candidates.grid),
            "basis_id": candidates.basis_id,
            "k": candidates.k,
            "coefficients": _encode_array(candidates.coefficients),
            "lanes": _encode_array(candidates.xs),
            "top_indices": candidates.top_index.tolist(),
        },
        path,
    )


def load_candidates(path) -> CandidateSet:
    obj = _read_json(path)
    _check_header(obj, "candidate_set")
    grid = _grid_from_obj(_require(obj, "grid"))
    coeffs = _decode_array(_require(obj, "coefficients"), expected_ndim=2)
    xs = _decode_array(_require(obj, "lanes"), expected_ndim=2)
    tops = _require(obj, "top_indices")
    if xs.shape[0] != _require(obj, "k") or len(tops) != xs.shape[0]:
        raise SchemaError("candidate count disagreement")
    if xs.shape[1] != grid.n_samples:
        raise SchemaError("candidate lane length does not match grid")
    lanes = [Lane(row, int(top), grid) for row, top in zip(xs, tops)]
    return CandidateSet(lanes, coeffs, str(_require(obj, "basis_id")))


def save_image_scores(entries, path):
    """Write per-image score records as JSON lines.

    entries yields (image_id, CandidateScores, features, height_grid).
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for image_id, scores, features, height_grid in entries:
                obj = {
                    "schema_version": SCHEMA_VERSION,
                    "kind": "image_scores",
                    "image_id": image_id,
                    "probabilities": _encode_array(scores.probabilities),
                    "height_distributions": _encode_array(scores.height_distributions),
                    "offsets": _encode_array(scores.offsets),
                    "features": _encode_array(features),
                    "height_grid": _encode_array(height_grid),
                }
                fh.write(json.dumps(obj) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_image_scores(path):
    """Read per-image score records; yields (image_id, scores, features, height_grid)."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    out = []
    for line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc.msg}") from exc
        _check_header(obj, "image_scores")
        scores = CandidateScores(
            _decode_array(_require(obj, "probabilities"), expected_ndim=1),
            _decode_array(_require(obj, "height_distributions"), expected_ndim=2),
            _decode_array(_require(obj, "offsets"), expected_ndim=2),
        )
        features = _decode_array(_require(obj, "features"), expected_ndim=2)
        if features.shape[0] != scores.k:
            raise SchemaError("feature rows do not match candidate count")
        heights = _decode_array(_require(obj, "height_grid"), expected_ndim=1)
        out.append((str(_require(obj, "image_id")), scores, features, heights))
    return out


def save_detections(entries, path):
    """Write per-image detected lanes as JSON lines.

    entries yields (image_id, list_of_lanes, clique_compatibility).
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for image_id, lanes, compatibility in entries:
                obj = {
                    "schema_version": SCHEMA_VERSION,
                    "kind": "detections",
                    "image_id": image_id,
                    "lanes": [
                        {"xs": lane.xs.tolist(), "top_index": lane.top_index}
                        for lane in lanes
                    ],
                    "compatibility": float(compatibility),
                }
                fh.write(json.dumps(obj) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_detections(path, grid: SamplingGrid):
    """Read detections; returns list of (image_id, lanes, compatibility)."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    out = []
    for line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc.msg}") from exc
        _check_header(obj, "detections")
        lanes = []
        for lane_obj in _require(obj, "lanes"):
            xs = np.asarray(_require(lane_obj, "xs"), dtype=np.float64)
            if xs.size != grid.n_samples:
                raise SchemaError("detection lane length does not match grid")
            lanes.append(Lane(xs, int(_require(lane_obj, "top_index")), grid))
        out.append((str(_require(obj, "image_id")), lanes, obj.get("compatibility", 0.0)))
    return out


def save_match_report(report: MatchReport, path):
    _write_json(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "match_report",
            "tp": report.tp,
            "fp": report.fp,
            "fn": report.fn,
            "precision": report.precision,
            "recall": report.recall,
            "f_measure": report.f_measure,
            "per_image": [
                {
                    "image_id": img.image_id,
                    "tp": img.tp,
                    "fp": img.fp,
                    "fn": img.fn,
                    "pairs": [list(pair) for pair in img.pairs],
                    "pred_best_iou": list(img.pred_best_iou),
                    "gt_best_iou": list(img.gt_best_iou),
                    "greedy_equals_optimal": img.greedy_equals_optimal,
                }
                for img in report.per_image
            ],
        },
        path,
    )


def save_point_accuracy_report(report: PointAccuracyReport, path):
    _write_json(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "point_accuracy_report",
            "n_correct": report.n_correct,
            "n_gt_points": report.n_gt_points,
            "accuracy": report.accuracy,
            "fpr": report.fpr,
            "fnr": report.fnr,
            "per_image": [
                {
                    "image_id": img.image_id,
                    "n_correct": img.n_correct,
                    "n_gt_points": img.n_gt_points,
                    "accuracy": img.accuracy,
                    "n_pred": img.n_pred,
                    "n_false_pred": img.n_false_pred,
                    "n_gt": img.n_gt,
                    "n_missed": img.n_missed,
                }
                for img in report.per_image
            ],
        },
        path,
    )
