"""Deterministic cut-and-paste augmentation for 3D point clouds.

Pairs of clouds are aligned point-to-point by an optimal (or
certificate-bounded approximate) assignment under Euclidean cost; a mix
keeps part of one cloud, fills the rest from its partner via that
alignment, and blends the class labels by the realized keep fraction.
"""

from .assignment import (
    ConvergenceError,
    cost_matrix,
    emd,
    optimal_assignment,
    solve_auction,
    solve_exact,
)
from .core import (
    Assignment,
    AugmentPolicy,
    LabelDistribution,
    MixedSample,
    PartLabels,
    PointCloud,
    ReplacementMask,
    SaliencyWeights,
    one_hot,
    validate_cloud,
)
from .ingest import (
    ParseError,
    TriangleMesh,
    equalize_indices,
    farthest_point_sample,
    normalize_unit_sphere,
    parse_off,
    parse_ply,
    parse_xyz,
    sample_surface,
    write_ply,
    write_xyz,
)
from .mixer import (
    apply_mix,
    apply_mix_segmentation,
    choose_center_saliency,
    mask_knn,
    mask_random,
    mix_pair,
    pointcutmix,
    sample_lambda,
)
from .rng import make_stream, mix64

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "AugmentPolicy",
    "ConvergenceError",
    "LabelDistribution",
    "MixedSample",
    "ParseError",
    "PartLabels",
    "PointCloud",
    "ReplacementMask",
    "SaliencyWeights",
    "TriangleMesh",
    "apply_mix",
    "apply_mix_segmentation",
    "choose_center_saliency",
    "cost_matrix",
    "emd",
    "equalize_indices",
    "farthest_point_sample",
    "make_stream",
    "mask_knn",
    "mask_random",
    "mix64",
    "mix_pair",
    "normalize_unit_sphere",
    "one_hot",
    "optimal_assignment",
    "parse_off",
    "parse_ply",
    "parse_xyz",
    "pointcutmix",
    "sample_lambda",
    "sample_surface",
    "solve_auction",
    "solve_exact",
    "validate_cloud",
    "write_ply",
    "write_xyz",
]
