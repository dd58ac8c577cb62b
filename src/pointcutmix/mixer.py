"""Cut-and-paste mixing of point cloud pairs.

A mix keeps n of x1's points (chosen by one of three strategies) and fills
the remaining slots from x2, re-ordered by the optimal assignment so each
replacement lands at the slot of its nearest available counterpart. The
class label is blended by the realized keep fraction n/N.

Strategies: "r" keeps a uniformly random subset, "k" keeps a random center
point plus its nearest neighbors, "s" does the same but picks the center
with probability increasing in a caller-supplied per-point saliency weight.

All randomness flows through an explicitly passed generator; a fixed seed
and call sequence reproduce every sample bit for bit. One generator must
not be shared across concurrent calls.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from .assignment import optimal_assignment
from .core import (
    Assignment,
    AugmentPolicy,
    LabelDistribution,
    MixedSample,
    MixParams,
    PartLabels,
    PointCloud,
    ReplacementMask,
    SaliencyWeights,
)
from .neighbors import build_index
from .rng import RngStream

# Offset added to min-shifted saliency weights so the flat case stays a
# valid (uniform) distribution.
SALIENCY_FLOOR = 1e-12


def sample_lambda(beta: float, rng: RngStream) -> float:
    """One draw from Beta(beta, beta) via the two-Gamma construction."""
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    while True:
        g1 = rng.gamma(beta)
        g2 = rng.gamma(beta)
        if g1 + g2 > 0.0:
            return g1 / (g1 + g2)


def mask_random(n_total: int, n: int, rng: RngStream) -> ReplacementMask:
    """Mask keeping a uniformly random n-subset of the indices."""
    if not 0 <= n <= n_total:
        raise ValueError(f"n must be in [0, {n_total}], got {n}")
    kept = rng.permutation(n_total)[:n]
    return ReplacementMask.from_kept_indices(kept, n_total)


def mask_knn(cloud: PointCloud, n: int, center_index: int) -> ReplacementMask:
    """Mask keeping the center point and its n-1 nearest neighbors."""
    if not 1 <= n <= len(cloud):
        raise ValueError(f"n must be in [1, {len(cloud)}], got {n}")
    kept = build_index(cloud).knn(center_index, n)
    return ReplacementMask.from_kept_indices(kept, len(cloud))


def choose_center_saliency(weights: SaliencyWeights, rng: RngStream) -> int:
    """Index drawn with probability proportional to weight - min(weights),
    plus a tiny floor; equal weights degrade to a uniform choice."""
    w = weights.values.astype(np.float64)
    shifted = w - w.min() + SALIENCY_FLOOR
    return int(rng.choice(len(w), p=shifted / shifted.sum()))


def _check_pair(x1: PointCloud, y1: LabelDistribution, x2: PointCloud, y2: LabelDistribution):
    if len(x1) == 0:
        raise ValueError("cannot mix empty clouds")
    if len(x1) != len(x2):
        raise ValueError(f"cloud sizes differ: {len(x1)} vs {len(x2)}")
    if y1.num_classes != y2.num_classes:
        raise ValueError(f"class counts differ: {y1.num_classes} vs {y2.num_classes}")


def _blend_label(y1: LabelDistribution, y2: LabelDistribution, lam_eff: float) -> LabelDistribution:
    return LabelDistribution(lam_eff * y1.weights + (1.0 - lam_eff) * y2.weights)


def apply_mix(
    x1: PointCloud,
    y1: LabelDistribution,
    x2: PointCloud,
    y2: LabelDistribution,
    assignment: Assignment,
    mask: ReplacementMask,
    *,
    params: Optional[MixParams] = None,
    center_index: Optional[int] = None,
    source_ids: Sequence[str] = (),
) -> MixedSample:
    """Combine the pair: point i is x1's where the mask keeps it, else x2's
    point assigned to slot i. The label weight on y1 is exactly n_kept/N."""
    _check_pair(x1, y1, x2, y2)
    n_total = len(x1)
    if len(mask.keep) != n_total or len(assignment) != n_total:
        raise ValueError("mask and assignment must match the cloud size")
    points = np.where(mask.keep[:, None], x1.points, x2.points[assignment.mapping])
    lam_eff = mask.n_kept / n_total
    if params is None:
        params = MixParams(lam=lam_eff, n_kept=mask.n_kept, mode=None, beta=None)
    return MixedSample(
        cloud=PointCloud(points),
        label=_blend_label(y1, y2, lam_eff),
        mask=mask,
        params=params,
        assignment=assignment,
        center_index=center_index,
        source_ids=tuple(source_ids),
    )


def apply_mix_segmentation(
    x1: PointCloud,
    parts1: PartLabels,
    y1: LabelDistribution,
    x2: PointCloud,
    parts2: PartLabels,
    y2: LabelDistribution,
    assignment: Assignment,
    mask: ReplacementMask,
    *,
    params: Optional[MixParams] = None,
    center_index: Optional[int] = None,
    source_ids: Sequence[str] = (),
) -> MixedSample:
    """As apply_mix, with per-point part labels travelling with their points."""
    if len(parts1.labels) != len(x1) or len(parts2.labels) != len(x2):
        raise ValueError("part labels must match their cloud size")
    base = apply_mix(
        x1, y1, x2, y2, assignment, mask,
        params=params, center_index=center_index, source_ids=source_ids,
    )
    labels = np.where(mask.keep, parts1.labels, parts2.labels[assignment.mapping])
    return dataclasses.replace(base, part_labels=PartLabels(labels))


def _build_mask(
    x1: PointCloud,
    n: int,
    mode: str,
    rng: RngStream,
    saliency: Optional[SaliencyWeights],
) -> tuple[ReplacementMask, Optional[int]]:
    n_total = len(x1)
    if mode == "r":
        return mask_random(n_total, n, rng), None
    if n == 0:
        return ReplacementMask(np.zeros(n_total, dtype=bool)), None
    if mode == "k":
        center = int(rng.integers(n_total))
    else:  # mode "s"
        center = choose_center_saliency(saliency, rng)
    return mask_knn(x1, n, center), center


def mix_pair(
    x1: PointCloud,
    y1: LabelDistribution,
    x2: PointCloud,
    y2: LabelDistribution,
    lam: float,
    mode: str,
    rng: RngStream,
    *,
    beta: Optional[float] = None,
    saliency: Optional[SaliencyWeights] = None,
    parts1: Optional[PartLabels] = None,
    parts2: Optional[PartLabels] = None,
    source_ids: Sequence[str] = (),
) -> MixedSample:
    """Mix two clouds at a given ratio: n = floor(lam * N) points of x1
    survive, the rest come from x2 under the optimal assignment. Handles
    the classification and (when part labels are given) segmentation cases.
    """
    _check_pair(x1, y1, x2, y2)
    if mode == "s" and saliency is None:
        raise ValueError("mode 's' requires saliency weights for the first cloud")
    if saliency is not None and len(saliency.values) != len(x1):
        raise ValueError("saliency weights must match the first cloud's size")
    if (parts1 is None) != (parts2 is None):
        raise ValueError("part labels must be given for both clouds or neither")

    n = int(math.floor(lam * len(x1)))
    assignment = optimal_assignment(x1, x2)
    mask, center = _build_mask(x1, n, mode, rng, saliency)
    params = MixParams(lam=lam, n_kept=mask.n_kept, mode=mode, beta=beta)
    if parts1 is not None:
        return apply_mix_segmentation(
            x1, parts1, y1, x2, parts2, y2, assignment, mask,
            params=params, center_index=center, source_ids=source_ids,
        )
    return apply_mix(
        x1, y1, x2, y2, assignment, mask,
        params=params, center_index=center, source_ids=source_ids,
    )


def pointcutmix(
    x1: PointCloud,
    y1: LabelDistribution,
    x2: PointCloud,
    y2: LabelDistribution,
    policy: AugmentPolicy,
    rng: RngStream,
    *,
    saliency: Optional[SaliencyWeights] = None,
    parts1: Optional[PartLabels] = None,
    parts2: Optional[PartLabels] = None,
    source_ids: Sequence[str] = (),
) -> MixedSample:
    """Full augmentation step: a Bernoulli(mix_prob) gate decides whether to
    mix at all; open gates draw lam ~ Beta(beta, beta) and defer to mix_pair.

    The gate consumes exactly one draw, so a closed gate leaves the stream
    one draw ahead regardless of mode — reruns with a different mix_prob
    stay aligned.
    """
    _check_pair(x1, y1, x2, y2)
    if rng.random() >= policy.mix_prob:
        return MixedSample.passthrough(
            x1, y1, parts1, source_ids, mode=policy.mode, beta=policy.beta
        )
    lam = sample_lambda(policy.beta, rng)
    return mix_pair(
        x1, y1, x2, y2, lam, policy.mode, rng,
        beta=policy.beta, saliency=saliency, parts1=parts1, parts2=parts2,
        source_ids=source_ids,
    )
