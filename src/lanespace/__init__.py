"""Low-rank lane descriptors, candidate generation and detection selection.

The package covers the geometry-side of an anchor-based lane detector:
resampled lane vectors on a shared height grid, an orthonormal lane basis
obtained from the SVD of the training-lane matrix, candidate generation by
k-means in coefficient space, the NMS / relation / max-weight-clique
selection chain, and the standard stripe-IoU and pointwise evaluation
protocols. Learned components stay outside; their outputs enter through the
scores file contract.
"""

from .candidates import (
    CandidateSet,
    ClusteringConfig,
    cluster_lanes,
    lloyd_kmeans,
    mean_best_iou,
    straight_anchor_grid,
)
from .datasets import (
    DatasetRecord,
    load_csv,
    load_culane_dir,
    load_dataset,
    load_tusimple_jsonl,
    write_csv,
    write_tusimple_jsonl,
)
from .eigenspace import (
    CoefficientVector,
    EigenBasis,
    LaneMatrix,
    approximation_error,
    build_basis,
    project,
    project_columns,
    reconstruct,
    trailing_energy,
)
from .errors import (
    DimensionMismatch,
    EmptyInput,
    GridMismatch,
    InvalidAnnotation,
    IoError,
    LanespaceError,
    ParseError,
    RankDeficient,
    SchemaError,
    TooManyClusters,
    TooManyNodes,
    ValidationError,
    VersionError,
)
from .geometry import (
    DEFAULT_STRIPE_WIDTH,
    Lane,
    SamplingGrid,
    resample_polyline,
    stripe_iou,
    stripe_ious,
)
from .metrics import (
    ImageMatch,
    MatchReport,
    PointAccuracyReport,
    f_measure,
    match_lanes,
    tusimple_score,
)
from .oracle import OracleConfig, oracle_scores
from .pipeline import (
    CandidateScores,
    CliqueResult,
    DetectionConfig,
    detect_image,
    finalize,
    mwcs,
    nms_select,
    relation_from_features,
    uniform_height_grid,
)
from .render import LaneLayer, render_svg
from .synth import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "CandidateScores",
    "CandidateSet",
    "CliqueResult",
    "ClusteringConfig",
    "CoefficientVector",
    "DEFAULT_STRIPE_WIDTH",
    "DatasetRecord",
    "DetectionConfig",
    "DimensionMismatch",
    "EigenBasis",
    "EmptyInput",
    "GridMismatch",
    "ImageMatch",
    "InvalidAnnotation",
    "IoError",
    "Lane",
    "LaneLayer",
    "LaneMatrix",
    "LanespaceError",
    "MatchReport",
    "OracleConfig",
    "ParseError",
    "PointAccuracyReport",
    "RankDeficient",
    "SamplingGrid",
    "SchemaError",
    "SyntheticSpec",
    "TooManyClusters",
    "TooManyNodes",
    "ValidationError",
    "VersionError",
    "approximation_error",
    "build_basis",
    "cluster_lanes",
    "detect_image",
    "f_measure",
    "finalize",
    "generate_synthetic",
    "lloyd_kmeans",
    "load_csv",
    "load_culane_dir",
    "load_dataset",
    "load_tusimple_jsonl",
    "match_lanes",
    "mean_best_iou",
    "mwcs",
    "nms_select",
    "oracle_scores",
    "project",
    "project_columns",
    "reconstruct",
    "relation_from_features",
    "render_svg",
    "resample_polyline",
    "straight_anchor_grid",
    "stripe_iou",
    "stripe_ious",
    "trailing_energy",
    "tusimple_score",
    "uniform_height_grid",
    "write_csv",
    "write_tusimple_jsonl",
]
