import numpy as np
import pytest

from lanespace import (
    ClusteringConfig,
    Lane,
    LaneMatrix,
    SamplingGrid,
    SyntheticSpec,
    build_basis,
    cluster_lanes,
    generate_synthetic,
)


@pytest.fixture(scope="session")
def grid():
    return SamplingGrid.uniform(1280, 720, 50)


@pytest.fixture(scope="session")
def small_grid():
    # cheap grid for brute-force oracles
    return SamplingGrid(200, 100, np.linspace(99.0, 20.0, 8))


@pytest.fixture(scope="session")
def train_records():
    return generate_synthetic(SyntheticSpec(count=120, seed=11))


@pytest.fixture(scope="session")
def train_lanes(grid, train_records):
    return [lane for record in train_records for lane in record.resampled(grid)]


@pytest.fixture(scope="session")
def basis(train_lanes):
    return build_basis(LaneMatrix.from_lanes(train_lanes), 6)


@pytest.fixture(scope="session")
def candidates(basis, train_lanes):
    return cluster_lanes(basis, train_lanes, ClusteringConfig(k=40, seed=5))


def vertical_lane(grid, x, top_index=None):
    xs = np.full(grid.n_samples, float(x))
    return Lane(xs, grid.n_samples if top_index is None else top_index, grid)


@pytest.fixture
def make_vertical(grid):
    def _make(x, top_index=None):
        return vertical_lane(grid, x, top_index)

    return _make
