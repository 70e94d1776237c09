"""Exception hierarchy shared across the package.

ValidationError subclasses signal bad inputs (CLI exit code 2); everything
else under LanespaceError is a runtime failure (exit code 1). read_text is
the one place where a failed file read is mapped onto the hierarchy.
"""

from pathlib import Path


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
