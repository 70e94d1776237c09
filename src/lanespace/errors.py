"""Exception hierarchy shared across the package.

ValidationError subclasses signal bad inputs (CLI exit code 2); everything
else under LanespaceError is a runtime failure (exit code 1). read_text and
open_for_writing are the one place where a failed file read or write is
mapped onto the hierarchy, and json_floats the one decoder of JSON number
lists.
"""

from contextlib import contextmanager
from pathlib import Path

import numpy as np


class LanespaceError(Exception):
    """Base class for all package errors."""


class ValidationError(LanespaceError, ValueError):
    """Invalid input data or arguments; also a ValueError."""


class InvalidAnnotation(ValidationError):
    """Polyline annotation too short or degenerate to resample."""


class GridMismatch(ValidationError):
    """Operation mixed lanes or bases from different sampling grids."""


class DimensionMismatch(ValidationError):
    """Coefficient vector length does not match the basis rank."""


class RankDeficient(ValidationError):
    """Requested rank exceeds the numerical rank of the lane matrix."""

    def __init__(self, requested: int, achievable: int):
        super().__init__(
            f"requested rank {requested} exceeds numerical rank {achievable}"
        )
        self.requested = requested
        self.achievable = achievable


class TooManyClusters(ValidationError):
    """k exceeds the number of distinct points available for clustering."""


class TooManyNodes(ValidationError):
    """Graph too large for exact clique enumeration."""


class EmptyInput(ValidationError):
    """Operation received an empty collection where one or more items are required."""


class ParseError(ValidationError):
    """Malformed dataset file."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class SchemaError(ValidationError):
    """File content does not match the expected schema."""


class VersionError(ValidationError):
    """Serialized file carries an unsupported schema version."""


class IoError(LanespaceError):
    """Filesystem read/write failure."""


def read_text(path) -> str:
    """The file's UTF-8 text; IoError if it cannot be read, SchemaError if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text") from exc


@contextmanager
def open_for_writing(path, newline=None):
    """The file opened for UTF-8 text writing; IoError if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def json_floats(values, what: str) -> np.ndarray:
    """A flat JSON list of numbers as float64; SchemaError naming what otherwise.

    Only JSON integers and floats count as numbers (not booleans), and every
    value must be finite within float64.
    """
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise SchemaError(f"{what} must be a flat list of numbers")
    try:
        arr = np.asarray(values, dtype=np.float64)
    except OverflowError as exc:  # a JSON integer beyond float64
        raise SchemaError(f"{what} holds a number out of range") from exc
    if not np.isfinite(arr).all():
        raise SchemaError(f"{what} must hold finite numbers")
    return arr
