import numpy as np
import pytest

from pointcutmix.core import (
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


def test_point_cloud_shape_and_dtype():
    pts = np.zeros((5, 3), dtype=np.float64)
    cloud = PointCloud(pts)
    assert cloud.points.dtype == np.float32
    assert cloud.points.shape == (5, 3)
    assert len(cloud) == 5


def test_point_cloud_rejects_bad_shape():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((5, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        PointCloud(np.zeros(15, dtype=np.float32))


def test_point_cloud_is_immutable():
    cloud = PointCloud(np.ones((4, 3), dtype=np.float32))
    with pytest.raises((ValueError, RuntimeError)):
        cloud.points[0, 0] = 2.0


def test_validate_cloud_accepts_finite():
    validate_cloud(PointCloud(np.ones((3, 3), dtype=np.float32)))


def test_validate_cloud_rejects_empty():
    with pytest.raises(ValueError):
        validate_cloud(PointCloud(np.zeros((0, 3), dtype=np.float32)))


def test_validate_cloud_names_first_offender():
    pts = np.zeros((4, 3), dtype=np.float32)
    pts[2, 1] = np.nan
    pts[3, 0] = np.inf
    with pytest.raises(ValueError, match=r"point 2.*axis 1"):
        validate_cloud(PointCloud(pts))


def test_label_distribution_validation():
    LabelDistribution(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        LabelDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        LabelDistribution(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        LabelDistribution(np.array([]))


def test_label_distribution_tolerates_float_slop():
    w = np.full(3, 1.0 / 3.0)
    dist = LabelDistribution(w)
    assert dist.num_classes == 3


def test_one_hot():
    dist = one_hot(2, 5)
    assert dist.weights[2] == 1.0
    assert dist.weights.sum() == 1.0
    with pytest.raises(ValueError):
        one_hot(5, 5)
    with pytest.raises(ValueError):
        one_hot(-1, 5)


def test_assignment_requires_permutation():
    Assignment(np.array([1, 0, 2], dtype=np.int64), 1.5, True)
    with pytest.raises(ValueError):
        Assignment(np.array([0, 0, 2], dtype=np.int64), 1.0, True)
    with pytest.raises(ValueError):
        Assignment(np.array([0, 1, 3], dtype=np.int64), 1.0, True)
    with pytest.raises(ValueError):
        Assignment(np.array([0, 1, 2], dtype=np.int64), -0.5, True)


def test_assignment_inverted():
    a = Assignment(np.array([2, 0, 1], dtype=np.int64), 3.0, False)
    inv = a.inverted()
    assert list(inv.mapping) == [1, 2, 0]
    assert inv.total_cost == a.total_cost
    assert inv.is_exact == a.is_exact
    assert list(inv.mapping[a.mapping]) == [0, 1, 2]


def test_replacement_mask():
    mask = ReplacementMask(np.array([True, False, True, True]))
    assert mask.n_kept == 3
    m2 = ReplacementMask.from_kept_indices(np.array([0, 2, 3]), 4)
    assert np.array_equal(m2.keep, mask.keep)
    assert ReplacementMask.all_kept(3).n_kept == 3
    with pytest.raises(ValueError):
        ReplacementMask.from_kept_indices(np.array([0, 0]), 4)
    with pytest.raises(ValueError):
        ReplacementMask.from_kept_indices(np.array([4]), 4)


def test_augment_policy_validation():
    AugmentPolicy()
    AugmentPolicy(beta=2.0, mix_prob=0.5, mode="s", seed=7)
    with pytest.raises(ValueError):
        AugmentPolicy(beta=0.0)
    with pytest.raises(ValueError):
        AugmentPolicy(mix_prob=1.5)
    with pytest.raises(ValueError):
        AugmentPolicy(mode="x")
    with pytest.raises(ValueError):
        AugmentPolicy(seed=-1)


def test_mixed_sample_consistency():
    cloud = PointCloud(np.zeros((4, 3), dtype=np.float32))
    label = LabelDistribution(np.array([1.0]))
    mask = ReplacementMask(np.array([True, True, False, False]))
    sample = MixedSample(cloud=cloud, label=label, mask=mask, lam=0.5)
    assert sample.lam_effective == 0.5
    for lam in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match="mix ratio"):
            MixedSample(cloud=cloud, label=label, mask=mask, lam=lam)

    bad_mask = ReplacementMask(np.array([True, True, False]))
    with pytest.raises(ValueError):
        MixedSample(cloud=cloud, label=label, mask=bad_mask, lam=0.5)

    labels = PartLabels(np.zeros(3, dtype=np.int32))
    with pytest.raises(ValueError):
        MixedSample(cloud=cloud, label=label, mask=mask, lam=0.5, part_labels=labels)


def test_saliency_weights_finite():
    SaliencyWeights(np.ones(3, dtype=np.float32))
    with pytest.raises(ValueError):
        SaliencyWeights(np.array([1.0, np.nan], dtype=np.float32))
