"""JSON (de)serialization for bases, candidate sets, scores and reports.

Every file is a JSON object with a schema_version and a kind tag; numeric
arrays are stored row-major next to their explicit dims, as a flat list
under "data" or, in candidate sets (schema_version 2), as the base64 text of
their little-endian float64 bytes under "float64". Every line is
json.dumps's text, whose shortest round-trippable decimals keep float64
content bit for bit through a round trip, as the packed bytes do.
"""

from __future__ import annotations

import base64
import json
import math
import re

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


def _check_header(obj: dict, kind: str, versions=(SCHEMA_VERSION,)):
    version = _require(obj, "schema_version")
    if version not in versions:
        raise VersionError(f"schema_version {version} unsupported "
                           f"(want {' or '.join(map(str, versions))})")
    actual = _require(obj, "kind")
    if actual != kind:
        raise SchemaError(f"expected kind '{kind}', found '{actual}'")


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {"dims": list(arr.shape), "data": arr}  # _json writes the array as its flat list


def _pack_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {"dims": list(arr.shape), "float64": base64.b64encode(arr).decode("ascii")}


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, found {value!r}")
    return value


def _unpack(payload, dims: list) -> np.ndarray:
    """The flat float64 values of shape dims whose little-endian bytes payload holds as base64."""
    if not isinstance(payload, str):
        raise SchemaError(f"array float64 must be a base64 string, found {type(payload).__name__}")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise SchemaError("array float64 is not valid base64") from exc
    if len(raw) != 8 * math.prod(dims):
        raise SchemaError(f"array claims shape {dims} but float64 carries {len(raw)} bytes")
    data = np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False)
    if not np.isfinite(data).all():
        raise SchemaError("array float64 must hold finite numbers")
    return data


def _decode_array(obj, expected_ndim: int | None = None) -> np.ndarray:
    if not isinstance(obj, dict):
        raise SchemaError("array field must be an object with dims and data or float64")
    dims = _require(obj, "dims")
    if not isinstance(dims, list) or not all(type(d) is int and d >= 0 for d in dims):
        raise SchemaError(f"array dims must be non-negative integers, found {dims}")
    if ("data" in obj) == ("float64" in obj):
        raise SchemaError("array field must hold exactly one of data and float64")
    if "float64" in obj:
        data = _unpack(obj["float64"], dims)
    else:
        data = json_floats(obj["data"], "array data")
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

    A 0-d or 1-D array is one json.dumps of its list; a larger one is written
    row by row, and rows maps a row's bytes to its text, so a row that
    repeats is encoded once. Dict keys must be strings.
    """
    if isinstance(value, np.ndarray):
        if value.ndim <= 1:
            return json.dumps(value.ravel().tolist())
        if not value.size:
            return "[]"
        flat = np.ascontiguousarray(value.reshape(-1, value.shape[-1]))
        keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel().tolist()
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


def _write_lines(kind: str, records, path, version: int = SCHEMA_VERSION):
    """Write each record as one line of JSON: the versioned header of kind, then its fields.

    Repeated rows are shared within a line only, so memory stays one line's text.
    """
    with open_for_writing(path) as fh:
        for fields in records:
            line = {"schema_version": version, "kind": kind, **fields}
            fh.write(_json(line, {}) + "\n")


def save_json(kind: str, fields: dict, path):
    """Write one object of the given kind as a single line of JSON."""
    _write_lines(kind, [fields], path)


def _parse(text: str, path, kind: str, versions=(SCHEMA_VERSION,)) -> dict:
    obj = parse_json(text, str(path))
    _check_header(obj, kind, versions)
    return obj


def _read_json(path, kind: str) -> dict:
    return _parse(read_text(path), path, kind)


def _lines(path) -> list[str]:
    """The non-blank lines of a JSON-lines file.

    Lines end at "\n" only: U+2028, U+2029 and U+0085, which str.splitlines
    also breaks at, may stand raw inside a JSON string.
    """
    return [line for line in read_text(path).split("\n") if line.strip()]


def _read_lines(path, kind: str) -> list[dict]:
    """Parse and header-check every non-blank line of a JSON-lines file."""
    return [_parse(line, path, kind) for line in _lines(path)]


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
    """Write the set at schema_version 2: its coefficients and lanes packed as float64."""
    fields = {
        "grid": _grid_to_obj(candidates.grid),
        "basis_id": candidates.basis_id,
        "k": candidates.k,
        "coefficients": _pack_array(candidates.coefficients),
        "lanes": _pack_array(candidates.xs),
        "top_indices": candidates.top_index.tolist(),
    }
    _write_lines("candidate_set", [fields], path, version=2)


def load_candidates(path) -> CandidateSet:
    """Read a candidate set at schema_version 2, or 1, whose arrays are lists."""
    obj = _parse(read_text(path), path, "candidate_set", versions=(1, 2))
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


# A scores line exactly as save_image_scores writes it: the header, an image
# id of printable ASCII with no escape, and each array's dims (JSON integers
# of at most 18 digits, so each fits an intp; re.ASCII keeps \d from matching
# other scripts' digits, which int() reads and JSON refuses) and data list.
_SCORES_ARRAYS = (("probabilities", 1), ("height_distributions", 2), ("offsets", 2),
                  ("features", 2), ("height_grid", 1))
_SCORES_LINE = re.compile(
    r'\{"schema_version": 1, "kind": "image_scores", "image_id": "([ !#-\[\]-~]*)"'
    + "".join(f', "{key}": ' + r'\{"dims": \[' + ", ".join([r"(0|[1-9]\d{0,17})"] * ndim)
              + r'\], "data": (\[[^\]]*\])\}' for key, ndim in _SCORES_ARRAYS)
    + r"\}",
    re.ASCII,
)


def _list_values(text: str, size: int) -> np.ndarray:
    """The size numbers of a flat JSON list's text, as json_floats reads them.

    Every token is filled in place when it is exactly 0.0 or 1.0; the others
    are joined by commas and read by one json.loads and json_floats, so each
    value comes from the general path's parser. Raises ValueError (a
    SchemaError, a JSON error or a non-ASCII character among them) unless the
    text is size numbers separated by ", " exactly, or RecursionError for a
    list nested deeper than json.loads can follow.
    """
    raw = text.encode("ascii")
    buf = np.frombuffer(raw, np.uint8)
    # every 0.0 or 1.0 but the last ends in "0,"; with no "0,", json.loads reads the list
    ends_in_zero = buf[:-1] == ord("0")
    ends_in_zero &= buf[1:] == ord(",")
    if not ends_in_zero.any():
        values = json_floats(json.loads(text), "array data")
        if values.size != size:
            raise ValueError("count mismatch")
        return values
    # a comma ends every token, and three more bytes let a 4-byte read start at any token
    buf = np.frombuffer(raw[1:-1] + b",\0\0\0", np.uint8)
    comma = buf == ord(",")
    ends = np.flatnonzero(comma)
    if ends.size != size or np.count_nonzero(comma[:-4] & (buf[1:-3] == ord(" "))) != size - 1:
        raise ValueError("not size tokens separated by ', '")
    starts = np.concatenate(([0], ends[:-1] + 2))
    heads = np.ndarray(buf.size - 3, "<u4", buf, strides=(1,))[starts]  # 4 bytes from each start
    zero, one = np.frombuffer(b"0.0,1.0,", "<u4")
    # no token holds a comma, so one whose four bytes from its start are "0.0," is exactly 0.0
    values = (heads == one).astype(np.float64)
    rest = np.flatnonzero((heads != zero) & (heads != one))
    if rest.size:
        lengths = ends[rest] - starts[rest] + 1  # each token with the comma after it
        at = np.repeat(starts[rest] - np.cumsum(lengths) + lengths, lengths)
        at += np.arange(at.size)
        decoded = json_floats(json.loads(b"[" + buf[at[:-1]].tobytes() + b"]"), "array data")
        if decoded.size != rest.size:
            raise ValueError("count mismatch")
        values[rest] = decoded
    return values


def _match_scores(line: str) -> dict | None:
    """The image id and decoded arrays of a scores line in save_image_scores's layout, or None.

    None when the line does not match that layout or a data list is not
    provably what the general path would decode; the general path then
    reads the line, and names the error if there is one.
    """
    match = _SCORES_LINE.fullmatch(line)
    if match is None:
        return None
    groups = iter(match.groups())
    fields = {"image_id": next(groups)}
    try:
        for key, ndim in _SCORES_ARRAYS:
            dims = [int(next(groups)) for _ in range(ndim)]
            fields[key] = _list_values(next(groups), math.prod(dims)).reshape(dims)
    except (ValueError, RecursionError):  # parse_json's failures, so the general path names them
        return None
    return fields


def _scores_array(obj: dict, key: str, ndim: int) -> np.ndarray:
    value = _require(obj, key)  # an array _match_scores decoded, or a parsed line's JSON field
    return value if isinstance(value, np.ndarray) else _decode_array(value, expected_ndim=ndim)


def load_image_scores(path):
    """Read per-image score records; yields (image_id, scores, features, height_grid).

    A line in save_image_scores's own layout is decoded by _match_scores,
    any other through parse_json; both give the same arrays or errors.
    """
    out = []
    for line in _lines(path):
        obj = _match_scores(line) or _parse(line, path, "image_scores")
        scores = CandidateScores(
            _scores_array(obj, "probabilities", 1),
            _scores_array(obj, "height_distributions", 2),
            _scores_array(obj, "offsets", 2),
        )
        features = _scores_array(obj, "features", 2)
        if features.shape[0] != scores.k:
            raise SchemaError("feature rows do not match candidate count")
        heights = _scores_array(obj, "height_grid", 1)
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
