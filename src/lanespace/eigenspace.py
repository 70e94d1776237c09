"""Low-rank lane basis: SVD of the lane matrix plus projection utilities.

The lane matrix stacks all training lanes as columns and is factored with a
plain (uncentered) SVD. Centering is deliberately NOT applied: the goal is
the best low-rank approximation of the raw coordinates, not a best-fitting
affine subspace, and the residual identity tested throughout the suite only
holds without mean removal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch, RankDeficient, ValidationError
from .geometry import SamplingGrid, check_positive_int, stack_lanes

# Relative singular-value cutoff defining the numerical rank.
RANK_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class LaneMatrix:
    """All training lanes stacked as the columns of an (N, L) matrix."""

    columns: np.ndarray
    grid: SamplingGrid

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=np.float64)
        if cols.ndim != 2 or cols.shape[0] != self.grid.n_samples or cols.shape[1] < 1:
            raise ValidationError("columns must be (n_samples, L) with L >= 1")
        if not np.all(np.isfinite(cols)):
            raise ValidationError("lane matrix entries must be finite")
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @property
    def n_lanes(self) -> int:
        return int(self.columns.shape[1])

    @classmethod
    def from_lanes(cls, lanes) -> "LaneMatrix":
        lanes = list(lanes)
        if not lanes:
            raise ValidationError("need at least one lane")
        grid = lanes[0].grid
        xs, _ = stack_lanes(lanes, grid)
        return cls(np.ascontiguousarray(xs.T), grid)


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """First m left singular vectors of a lane matrix, plus its spectrum.

    u columns are orthonormal; singular_values holds the full positive
    spectrum of the source matrix (length = numerical rank), which is what
    the residual-energy identity needs.
    """

    u: np.ndarray
    singular_values: np.ndarray
    grid: SamplingGrid

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        sv = np.asarray(self.singular_values, dtype=np.float64)
        if u.ndim != 2 or u.shape[0] != self.grid.n_samples or u.shape[1] < 1:
            raise ValidationError("u must be (n_samples, m) with m >= 1")
        if sv.ndim != 1 or sv.size < u.shape[1]:
            raise ValidationError("need at least m singular values")
        if np.any(sv <= 0) or np.any(np.diff(sv) > 0):
            raise ValidationError("singular values must be positive and non-increasing")
        gram = u.T @ u
        if not np.allclose(gram, np.eye(u.shape[1]), atol=1e-9):
            raise ValidationError("basis columns must be orthonormal")
        u.setflags(write=False)
        sv.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "singular_values", sv)

    @property
    def m(self) -> int:
        return int(self.u.shape[1])

    @property
    def rank(self) -> int:
        return int(self.singular_values.size)

    @property
    def content_id(self) -> str:
        """Stable hash binding candidate sets to the basis they came from."""
        digest = hashlib.sha256()
        digest.update(self.u.tobytes())
        digest.update(self.singular_values.tobytes())
        digest.update(self.grid.y_coords.tobytes())
        digest.update(f"{self.grid.image_width}x{self.grid.image_height}".encode())
        return digest.hexdigest()[:16]


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry non-negative (ties: lowest index)."""
    u = u.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            u[:, j] = -col
    return u


def build_basis(matrix: LaneMatrix, m: int) -> EigenBasis:
    """Dense SVD of the lane matrix, truncated to the m leading directions.

    Raises RankDeficient when m exceeds the numerical rank (singular values
    below RANK_CUTOFF relative to the largest are treated as zero).
    """
    check_positive_int(m, "m")
    u, s, _ = np.linalg.svd(matrix.columns, full_matrices=False)
    if s[0] <= 0:
        raise RankDeficient(m, 0)
    rank = int(np.count_nonzero(s / s[0] >= RANK_CUTOFF))
    if m > rank:
        raise RankDeficient(m, rank)
    return EigenBasis(_fix_signs(u[:, :m]), s[:rank], matrix.grid)


def project(basis: EigenBasis, xs) -> np.ndarray:
    """Coefficients (K, m), in pixels, of the lane stack xs (K, N): one gemv u^T @ row per lane.

    One gemm would round differently; straight anchors and oracle offsets keep these bits.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != basis.grid.n_samples:
        raise DimensionMismatch(f"lane stack {xs.shape} is not (K, {basis.grid.n_samples})")
    return np.array([basis.u.T @ row for row in xs]).reshape(len(xs), basis.m)


def project_columns(basis: EigenBasis, matrix: LaneMatrix) -> np.ndarray:
    """Coefficients (L, m) of every column of a lane matrix, in one gemm.

    Separate from project: clustering keeps this product's bits, and criterion 3 imports it.
    """
    if matrix.grid != basis.grid:
        raise GridMismatch("matrix and basis use different grids")
    return (basis.u.T @ matrix.columns).T


def reconstruct(basis: EigenBasis, coefficients) -> np.ndarray:
    """Lane stack xs (K, N) of the coefficients (K, m): one gemv u @ row per row, as in project."""
    c = np.asarray(coefficients, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != basis.m:
        raise DimensionMismatch(f"coefficient stack {c.shape} does not match basis rank {basis.m}")
    return np.array([basis.u @ row for row in c]).reshape(len(c), basis.grid.n_samples)


def low_rank_residual(columns: np.ndarray, u: np.ndarray) -> np.ndarray:
    """columns minus their projection onto the orthonormal columns of u."""
    return columns - u @ (u.T @ columns)
