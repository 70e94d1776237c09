import functools
import json
import operator

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
from lanespace.geometry import ENVELOPE_BLOCK_ROWS, SpanStack


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


def candidate_lanes(candidates):
    """The rows of a CandidateSet as Lane objects."""
    return [Lane(xs, top, candidates.grid) for xs, top in zip(candidates.xs, candidates.top_index)]


def row_spans(xs, top_index, grid, width):
    """A lane stack's (start, end) windows, each (K, image_height), read from SpanStack.of.

    The rows above the grid's first_block, which the stack does not store, are zero.
    """
    spans = SpanStack.of(xs, top_index, grid, width).spans
    rows = spans.reshape(2, spans.shape[1], -1)
    dropped = grid.first_block * ENVELOPE_BLOCK_ROWS
    return np.pad(rows, ((0, 0), (0, 0), (dropped, 0)))[:, :, : grid.image_height]


# Stand-ins for literals json.dumps cannot write, spliced into the text by spliced_dumps.
LONG_INT = "<5000 digits>"  # beyond Python's 4,300-digit limit for int()
DEEP_LIST = "<5000 deep>"  # deeper than the JSON decoder's recursion limit
SPLICES = {LONG_INT: "9" * 5000, DEEP_LIST: "[" * 5000 + "]" * 5000}
# values that replace one value of an artifact line in the mutation tests
MUTATIONS = ["a", {"a": 1}, [1], 0.5, 7, True, None, float("nan"), -1, 10**400, LONG_INT, DEEP_LIST]


def spliced_dumps(obj) -> str:
    """json.dumps(obj)'s text with each stand-in replaced by its literal."""
    text = json.dumps(obj)
    for stand_in, literal in SPLICES.items():
        text = text.replace(json.dumps(stand_in), literal)
    return text


def value_paths(node, path=()):
    """Every path into a JSON value, descending into the first two items of each list."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node[:2])
    else:
        children = ()
    for key, child in children:
        yield from value_paths(child, (*path, key))


def mutated(obj, path, value):
    """obj with the value at path replaced by value (in place), or value itself at the root."""
    if not path:
        return value
    functools.reduce(operator.getitem, path[:-1], obj)[path[-1]] = value
    return obj
