"""Core value types shared by every stage of the augmentation pipeline.

All types are immutable after construction and safe to share across
threads or processes. Point coordinates are stored as 32-bit floats
(the precision shipped by common shape datasets); rounding-sensitive work
is done in 64-bit, and squared_distances() fixes the bits of every FPS
pick, kNN order, assignment cost and unit-sphere radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Replacement strategies: random subset, kNN patch, saliency-guided patch.
MODES = ("r", "k", "s")


def _frozen_array(values, dtype, ndim, name):
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PointCloud:
    """Ordered set of 3D points. Index identity is significant: position i
    names point i throughout the pipeline."""

    points: np.ndarray  # (N, 3) float32

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float32)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def squared_distances(point, columns, out, term):
    """Squared Euclidean distances from point to each column of columns, the
    contiguous (3, n) float64 transpose of a cloud or a tuple of its rows,
    written to out as ((dx*dx + dy*dy) + dz*dz), each operation rounded once
    in float64 as in scipy's cdist. point is three scalars, for out of shape
    (n,), or three (k, 1) columns, for (k, n); term is scratch shaped as out."""
    np.subtract(columns[0], point[0], out=out)
    np.multiply(out, out, out=out)
    for axis in (1, 2):
        np.subtract(columns[axis], point[axis], out=term)
        np.multiply(term, term, out=term)
        np.add(out, term, out=out)
    return out


def validate_cloud(cloud: PointCloud) -> None:
    """Check cloud invariants, raising ValueError naming the first violation."""
    if len(cloud) < 1:
        raise ValueError("point cloud is empty (needs at least one point)")
    finite = np.isfinite(cloud.points)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite coordinate at point {i}, axis {j}")


@dataclass(frozen=True)
class LabelDistribution:
    """Dense per-class weight vector summing to one."""

    weights: np.ndarray  # (C,) float64

    def __post_init__(self):
        w = _frozen_array(self.weights, np.float64, 1, "weights")
        if w.size < 1:
            raise ValueError("label distribution needs at least one class")
        if (w < 0).any():
            raise ValueError("label weights must be non-negative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"label weights sum to {total!r}, expected 1")
        object.__setattr__(self, "weights", w)

    @property
    def num_classes(self) -> int:
        return self.weights.size


def one_hot(class_index: int, num_classes: int) -> LabelDistribution:
    """Distribution with all mass on one class."""
    if not 0 <= class_index < num_classes:
        raise ValueError(
            f"class index {class_index} out of range for {num_classes} classes"
        )
    w = np.zeros(num_classes)
    w[class_index] = 1.0
    return LabelDistribution(w)


@dataclass(frozen=True)
class PartLabels:
    """Per-point integer part ids, aligned index-wise with a cloud."""

    labels: np.ndarray  # (N,) int32

    def __post_init__(self):
        object.__setattr__(
            self, "labels", _frozen_array(self.labels, np.int32, 1, "labels")
        )

    def __len__(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class SaliencyWeights:
    """Per-point importance scores, aligned index-wise with a cloud.

    Scores are ingested from upstream tooling, never computed here; any
    finite values are accepted.
    """

    values: np.ndarray  # (N,) float32

    def __post_init__(self):
        v = _frozen_array(self.values, np.float32, 1, "values")
        if not np.isfinite(v).all():
            raise ValueError("saliency weights must be finite")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Assignment:
    """A bijection on point indices with its total displacement cost.

    mapping[i] is the index in the second cloud assigned to point i of the
    first cloud. The mapping is always a permutation of 0..N-1.
    """

    mapping: np.ndarray  # (N,) int64 permutation
    total_cost: float
    is_exact: bool

    def __post_init__(self):
        m = _frozen_array(self.mapping, np.int64, 1, "mapping")
        n = m.size
        if n < 1:
            raise ValueError("assignment must cover at least one point")
        counts = np.bincount(m, minlength=n) if m.min() >= 0 else None
        if counts is None or counts.size != n or (counts != 1).any():
            raise ValueError("mapping is not a permutation of 0..N-1")
        if not (np.isfinite(self.total_cost) and self.total_cost >= 0):
            raise ValueError(f"total_cost must be finite and >= 0, got {self.total_cost}")
        object.__setattr__(self, "mapping", m)
        object.__setattr__(self, "total_cost", float(self.total_cost))

    def __len__(self) -> int:
        return self.mapping.size

    def inverted(self) -> "Assignment":
        """The inverse bijection (second cloud onto the first), same cost."""
        inv = np.empty_like(self.mapping)
        inv[self.mapping] = np.arange(len(self), dtype=np.int64)
        return Assignment(inv, self.total_cost, self.is_exact)


@dataclass(frozen=True)
class ReplacementMask:
    """Per-index keep/replace bits: 1 keeps the first cloud's point, 0 takes
    the assigned point from the second cloud."""

    keep: np.ndarray  # (N,) bool

    def __post_init__(self):
        object.__setattr__(
            self, "keep", _frozen_array(self.keep, np.bool_, 1, "keep")
        )

    def __len__(self) -> int:
        return self.keep.size

    @property
    def n_kept(self) -> int:
        return int(np.count_nonzero(self.keep))

    @classmethod
    def from_kept_indices(cls, indices, n_total: int) -> "ReplacementMask":
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= n_total):
            raise ValueError("kept index out of range")
        if len(np.unique(idx)) != len(idx):
            raise ValueError("kept indices contain duplicates")
        keep = np.zeros(n_total, dtype=bool)
        keep[idx] = True
        return cls(keep)

    @classmethod
    def all_kept(cls, n_total: int) -> "ReplacementMask":
        return cls(np.ones(n_total, dtype=bool))


@dataclass(frozen=True)
class MixParams:
    """Parameters that produced one mix: the sampled ratio, the kept count,
    the replacement mode, and the Beta shape it was drawn with.

    mode and beta are None for masks built directly rather than sampled.
    """

    lam: float
    n_kept: int
    mode: Optional[str] = None
    beta: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"mix ratio must lie in [0, 1], got {self.lam}")
        if self.n_kept < 0:
            raise ValueError("n_kept must be >= 0")
        if self.mode is not None and self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.beta is not None and not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


@dataclass(frozen=True)
class AugmentPolicy:
    """Everything governing stochastic choices of the batch driver."""

    beta: float = 1.0
    mix_prob: float = 1.0  # probability that a sample is mixed at all
    mode: str = "k"
    seed: int = 0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not 0.0 <= self.mix_prob <= 1.0:
            raise ValueError(f"mix_prob must lie in [0, 1], got {self.mix_prob}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class MixedSample:
    """An augmented cloud with its blended label and full provenance.

    The recorded mask, assignment and center allow every structural claim
    about the sample to be re-verified after the fact.
    """

    cloud: PointCloud
    label: LabelDistribution
    mask: ReplacementMask
    params: MixParams
    part_labels: Optional[PartLabels] = None
    assignment: Optional[Assignment] = None  # None when the gate stayed closed
    center_index: Optional[int] = None  # set for neighborhood modes
    source_ids: tuple = ()
    gated: bool = False

    def __post_init__(self):
        n = len(self.cloud)
        if len(self.mask) != n:
            raise ValueError("mask length does not match cloud size")
        if self.part_labels is not None and len(self.part_labels) != n:
            raise ValueError("part labels length does not match cloud size")
        if self.assignment is not None and len(self.assignment) != n:
            raise ValueError("assignment length does not match cloud size")

    @property
    def lam_effective(self) -> float:
        """Realized keep ratio; the label weight carried by the first source."""
        return self.mask.n_kept / len(self.cloud)

    @classmethod
    def passthrough(
        cls,
        cloud: PointCloud,
        label: LabelDistribution,
        part_labels: Optional[PartLabels] = None,
        source_ids: tuple = (),
        *,
        mode: Optional[str] = None,
        beta: Optional[float] = None,
    ) -> "MixedSample":
        """An unmixed sample (closed gate): everything kept, label untouched.
        mode and beta record the policy whose gate stayed closed, if any."""
        n = len(cloud)
        return cls(
            cloud=cloud,
            label=label,
            mask=ReplacementMask.all_kept(n),
            params=MixParams(lam=1.0, n_kept=n, mode=mode, beta=beta),
            part_labels=part_labels,
            gated=True,
            source_ids=tuple(source_ids),
        )
