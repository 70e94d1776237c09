"""Annotation records and dataset loaders.

The canonical annotation format is JSON lines in the TuSimple layout (per
image: `lanes` as per-lane x arrays with -2 marking missing rows,
`h_samples` as the shared y array, `raw_file` as the id). A minimal CSV
layout (image_id, lane_id, x, y per row) exists for hand-made fixtures, and
per-image "x y x y ..." text files are supported as a loader variant.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ParseError,
    SchemaError,
    ValidationError,
    json_floats,
    open_for_writing,
    parse_json,
    read_text,
)
from .geometry import Lane, SamplingGrid, check_image_size, resample_polyline

logger = logging.getLogger(__name__)

TUSIMPLE_IMAGE_SIZE = (1280, 720)
CULANE_IMAGE_SIZE = (1640, 590)
MISSING_X = -2


@dataclass(eq=False)
class DatasetRecord:
    """One annotated image: raw lane polylines plus metadata."""

    image_id: str
    image_size: tuple[int, int]
    lanes: list[np.ndarray] = field(default_factory=list)
    category: str | None = None

    def __post_init__(self):
        w, h = self.image_size
        check_image_size(w, h)
        cleaned = []
        for poly in self.lanes:
            pts = np.asarray(poly, dtype=np.float64)
            if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
                raise ValidationError("each lane polyline needs >= 2 (x, y) points")
            if not np.all(np.isfinite(pts)):
                raise ValidationError("polyline coordinates must be finite")
            out_of_bounds = (
                (pts[:, 0] < 0)
                | (pts[:, 0] > w - 1)
                | (pts[:, 1] < 0)
                | (pts[:, 1] > h - 1)
            )
            if np.any(out_of_bounds):
                logger.warning(
                    "%s: clipped %d out-of-bounds points",
                    self.image_id,
                    int(out_of_bounds.sum()),
                )
                pts = pts.copy()
                pts[:, 0] = np.clip(pts[:, 0], 0, w - 1)
                pts[:, 1] = np.clip(pts[:, 1], 0, h - 1)
            cleaned.append(pts)
        self.lanes = cleaned

    def resampled(self, grid: SamplingGrid) -> list[Lane]:
        return [resample_polyline(poly, grid) for poly in self.lanes]


def _tusimple_record(obj: dict, line_number: int, image_size) -> DatasetRecord:
    for key in ("lanes", "h_samples", "raw_file"):
        if key not in obj:
            raise SchemaError(f"line {line_number}: missing key '{key}'")
    for key in ("lanes", "h_samples"):
        if not isinstance(obj[key], list):
            raise SchemaError(f"line {line_number}: '{key}' must be a JSON list")
    if not isinstance(obj["raw_file"], str):
        raise SchemaError(f"line {line_number}: 'raw_file' must be a string")
    h_samples = json_floats(obj["h_samples"], f"line {line_number}: 'h_samples'")
    polylines = []
    skipped = 0
    for xs in obj["lanes"]:
        xs = json_floats(xs, f"line {line_number}: each entry of 'lanes'")
        if xs.shape != h_samples.shape:
            raise SchemaError(
                f"line {line_number}: lane length {xs.size} != h_samples {h_samples.size}"
            )
        valid = xs != MISSING_X
        if valid.sum() < 2:
            skipped += 1
            continue
        polylines.append(np.column_stack([xs[valid], h_samples[valid]]))
    if skipped:
        logger.warning(
            "%s: skipped %d lanes with fewer than 2 annotated points",
            obj["raw_file"],
            skipped,
        )
    return DatasetRecord(
        image_id=obj["raw_file"],
        image_size=tuple(image_size),
        lanes=polylines,
        category=obj.get("category"),
    )


def load_tusimple_jsonl(path, image_size=TUSIMPLE_IMAGE_SIZE) -> list[DatasetRecord]:
    """Load a JSON-lines annotation file in the TuSimple layout.

    The format does not carry the image size, so it is supplied here
    (defaulting to the usual 1280x720).
    """
    records = []
    for line_number, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = parse_json(line, str(path))
        except SchemaError as exc:
            raise ParseError(str(exc), line_number) from exc
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", line_number)
        records.append(_tusimple_record(obj, line_number, image_size))
    return records


def write_tusimple_jsonl(records, path):
    """Write records back in the TuSimple JSON-lines layout.

    Every lane keeps its own rows; the per-image h_samples is the sorted
    union of rows used by that image's lanes, with -2 filled where a lane
    has no annotation.
    """
    with open_for_writing(path) as fh:
        for record in records:
            rows = sorted({float(y) for poly in record.lanes for y in poly[:, 1]})
            lanes_out = []
            for poly in record.lanes:
                by_row = {float(y): float(x) for x, y in poly}
                lanes_out.append([by_row.get(row, MISSING_X) for row in rows])
            obj = {
                "raw_file": record.image_id,
                "h_samples": rows,
                "lanes": lanes_out,
            }
            if record.category is not None:
                obj["category"] = record.category
            fh.write(json.dumps(obj) + "\n")


def load_csv(path, image_size) -> list[DatasetRecord]:
    """Load the minimal CSV layout: image_id, lane_id, x, y per row."""
    grouped: dict[str, dict[str, list]] = {}
    for line_number, row in enumerate(csv.reader(io.StringIO(read_text(path))), start=1):
        if not row or row[0].startswith("#"):
            continue
        if line_number == 1 and row[0].strip().lower() == "image_id":
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 columns, got {len(row)}", line_number)
        image_id, lane_id, x, y = (col.strip() for col in row)
        try:
            point = (float(x), float(y))
        except ValueError as exc:
            raise ParseError(f"bad coordinate: {exc}", line_number) from exc
        grouped.setdefault(image_id, {}).setdefault(lane_id, []).append(point)
    records = []
    for image_id, lanes in grouped.items():
        polylines = []
        for lane_id in sorted(lanes):
            pts = lanes[lane_id]
            if len(pts) < 2:
                logger.warning("%s/%s: fewer than 2 points, skipped", image_id, lane_id)
                continue
            polylines.append(np.asarray(pts, dtype=np.float64))
        records.append(DatasetRecord(image_id, tuple(image_size), polylines))
    return records


def write_csv(records, path):
    with open_for_writing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "lane_id", "x", "y"])
        for record in records:
            for lane_id, poly in enumerate(record.lanes):
                for x, y in poly:
                    writer.writerow([record.image_id, lane_id, repr(float(x)), repr(float(y))])


def load_culane_dir(path, image_size=CULANE_IMAGE_SIZE) -> list[DatasetRecord]:
    """Load a directory of per-image `<id>.lines.txt` files.

    Each line of a file is one lane as whitespace-separated "x y x y ...".
    """
    root = Path(path)
    if not root.is_dir():
        raise ParseError(f"not a directory: {root}")
    records = []
    for file in sorted(root.glob("*.lines.txt")):
        polylines = []
        for line_number, line in enumerate(read_text(file).splitlines(), start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) % 2 != 0:
                raise ParseError(
                    f"{file.name}: odd number of coordinates", line_number
                )
            try:
                values = [float(p) for p in parts]
            except ValueError as exc:
                raise ParseError(f"{file.name}: bad coordinate", line_number) from exc
            pts = np.asarray(values, dtype=np.float64).reshape(-1, 2)
            if pts.shape[0] < 2:
                logger.warning("%s: lane with < 2 points skipped", file.name)
                continue
            polylines.append(pts)
        image_id = file.name[: -len(".lines.txt")]
        records.append(DatasetRecord(image_id, tuple(image_size), polylines))
    return records


def load_dataset(path, fmt: str = "tusimple", image_size=None) -> list[DatasetRecord]:
    """Dispatch to the loader for the given format flag."""
    if fmt == "tusimple":
        return load_tusimple_jsonl(path, image_size or TUSIMPLE_IMAGE_SIZE)
    if fmt == "csv":
        if image_size is None:
            raise SchemaError("csv format requires an explicit image size")
        return load_csv(path, image_size)
    if fmt == "culane":
        return load_culane_dir(path, image_size or CULANE_IMAGE_SIZE)
    raise SchemaError(f"unknown dataset format '{fmt}'")
