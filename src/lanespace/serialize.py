"""JSON (de)serialization for bases, candidate sets, scores and reports.

Every file is a JSON object with a schema_version and a kind tag; numeric
arrays are stored as row-major flat lists next to their explicit dims. Every
line is json.dumps's text, whose shortest round-trippable decimals keep
float64 content bit for bit through a round trip.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .candidates import CandidateSet
from .errors import SchemaError, VersionError, json_floats, open_for_writing, parse_json, read_text
from .eigenspace import EigenBasis
from .geometry import Lane, SamplingGrid
from .pipeline import CandidateScores

SCHEMA_VERSION = 1


def _require(obj: dict, key: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a JSON object with key '{key}', found {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"missing key '{key}'")
    return obj[key]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a JSON list, found {type(value).__name__}")
    return value


def _check_header(obj: dict, kind: str):
    version = _require(obj, "schema_version")
    if version != SCHEMA_VERSION:
        raise VersionError(f"schema_version {version} unsupported (want {SCHEMA_VERSION})")
    actual = _require(obj, "kind")
    if actual != kind:
        raise SchemaError(f"expected kind '{kind}', found '{actual}'")


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {"dims": list(arr.shape), "data": arr}  # _json writes the array as its flat list


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, found {value!r}")
    return value


def _decode_array(obj, expected_ndim: int | None = None) -> np.ndarray:
    if not isinstance(obj, dict):
        raise SchemaError("array field must be an object with dims and data")
    dims = _require(obj, "dims")
    if not isinstance(dims, list) or not all(type(d) is int and d >= 0 for d in dims):
        raise SchemaError(f"array dims must be non-negative integers, found {dims}")
    data = json_floats(_require(obj, "data"), "array data")
    if data.size != math.prod(dims):
        raise SchemaError(f"array claims shape {dims} but carries {data.size} values")
    if expected_ndim is not None and len(dims) != expected_ndim:
        raise SchemaError(f"array must have {expected_ndim} dims, found {len(dims)}")
    return data.reshape(dims)


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
    return SamplingGrid(
        _int(_require(obj, "image_width"), "image_width"),
        _int(_require(obj, "image_height"), "image_height"),
        ys,
    )


def _json(value, rows: dict) -> str:
    """json.dumps(value)'s text, where a float64 array stands for its row-major flat list.

    The array is written row by row (a 0-d or 1-D array is one row), and rows
    maps a row's bytes to its text, so a row that repeats is encoded once.
    Dict keys must be strings.
    """
    if isinstance(value, np.ndarray):
        if not value.size:
            return "[]"
        flat = value.reshape(-1, value.shape[-1] if value.ndim else 1)
        keys = [row.tobytes() for row in flat]
        new = {key: i for i, key in enumerate(keys) if key not in rows}
        if len(new) == len(keys):  # no row repeats or was seen: nothing to share
            return json.dumps(flat.ravel().tolist())
        if new:  # one dumps for every new row: "[[a, b], [c, d]]" splits at "], ["
            texts = json.dumps(flat[list(new.values())].tolist())[2:-2].split("], [")
            rows.update(zip(new, texts))
        return "[" + ", ".join(map(rows.__getitem__, keys)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(key)}: {_json(item, rows)}"
                               for key, item in value.items()) + "}"
    if isinstance(value, (list, tuple)) and any(
        isinstance(item, (dict, list, tuple, np.ndarray)) for item in value
    ):
        return "[" + ", ".join(_json(item, rows) for item in value) + "]"
    return json.dumps(value)


def _write_lines(kind: str, records, path):
    """Write each record as one line of JSON: the versioned header of kind, then its fields.

    Repeated rows are shared within a line only, so memory stays one line's text.
    """
    with open_for_writing(path) as fh:
        for fields in records:
            line = {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}
            fh.write(_json(line, {}) + "\n")


def save_json(kind: str, fields: dict, path):
    """Write one object of the given kind as a single line of JSON."""
    _write_lines(kind, [fields], path)


def _parse(text: str, path, kind: str) -> dict:
    obj = parse_json(text, str(path))
    _check_header(obj, kind)
    return obj


def _read_json(path, kind: str) -> dict:
    return _parse(read_text(path), path, kind)


def _read_lines(path, kind: str) -> list[dict]:
    """Parse and header-check every non-blank line of a JSON-lines file."""
    return [_parse(line, path, kind) for line in read_text(path).splitlines() if line.strip()]


def save_basis(basis: EigenBasis, path):
    save_json(
        "eigen_basis",
        {
            "grid": _grid_to_obj(basis.grid),
            "m": basis.m,
            "u": _encode_array(basis.u),
            "singular_values": _encode_array(basis.singular_values),
        },
        path,
    )


def load_basis(path) -> EigenBasis:
    obj = _read_json(path, "eigen_basis")
    grid = _grid_from_obj(_require(obj, "grid"))
    u = _decode_array(_require(obj, "u"), expected_ndim=2)
    sv = _decode_array(_require(obj, "singular_values"), expected_ndim=1)
    if u.shape[1] != _require(obj, "m"):
        raise SchemaError("basis m does not match u dims")
    return EigenBasis(u, sv, grid)


def save_candidates(candidates: CandidateSet, path):
    save_json(
        "candidate_set",
        {
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
    obj = _read_json(path, "candidate_set")
    grid = _grid_from_obj(_require(obj, "grid"))
    coeffs = _decode_array(_require(obj, "coefficients"), expected_ndim=2)
    xs = _decode_array(_require(obj, "lanes"), expected_ndim=2)
    tops = _list(_require(obj, "top_indices"), "top_indices")
    if xs.shape[0] != _require(obj, "k") or len(tops) != xs.shape[0]:
        raise SchemaError("candidate count disagreement")
    if xs.shape[1] != grid.n_samples:
        raise SchemaError("candidate lane length does not match grid")
    top_index = np.array([_int(top, "top_indices") for top in tops])
    return CandidateSet(xs, top_index, grid, coeffs, str(_require(obj, "basis_id")))


def save_image_scores(entries, path):
    """Write per-image score records as JSON lines.

    entries yields (image_id, CandidateScores, features, height_grid).
    """
    _write_lines(
        "image_scores",
        (
            {
                "image_id": image_id,
                "probabilities": _encode_array(scores.probabilities),
                "height_distributions": _encode_array(scores.height_distributions),
                "offsets": _encode_array(scores.offsets),
                "features": _encode_array(features),
                "height_grid": _encode_array(height_grid),
            }
            for image_id, scores, features, height_grid in entries
        ),
        path,
    )


def load_image_scores(path):
    """Read per-image score records; yields (image_id, scores, features, height_grid)."""
    out = []
    for obj in _read_lines(path, "image_scores"):
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
    _write_lines(
        "detections",
        (
            {
                "image_id": image_id,
                "lanes": [
                    {"xs": lane.xs, "top_index": lane.top_index} for lane in lanes
                ],
                "compatibility": float(compatibility),
            }
            for image_id, lanes, compatibility in entries
        ),
        path,
    )


def load_detections(path, grid: SamplingGrid):
    """Read detections; returns list of (image_id, lanes, compatibility)."""
    out = []
    for obj in _read_lines(path, "detections"):
        lanes = []
        for lane_obj in _list(_require(obj, "lanes"), "detection lanes"):
            xs = json_floats(_require(lane_obj, "xs"), "detection xs")
            if xs.size != grid.n_samples:
                raise SchemaError("detection lane length does not match grid")
            lanes.append(Lane(xs, _int(_require(lane_obj, "top_index"), "top_index"), grid))
        compatibility = obj.get("compatibility", 0.0)
        if type(compatibility) not in (int, float):
            raise SchemaError(f"compatibility must be a number, found {compatibility!r}")
        compatibility = float(json_floats([compatibility], "compatibility")[0])
        out.append((str(_require(obj, "image_id")), lanes, compatibility))
    return out
