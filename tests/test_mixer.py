import math

import numpy as np
import pytest

from pointcutmix.core import (
    Assignment,
    AugmentPolicy,
    LabelDistribution,
    MixParams,
    PartLabels,
    PointCloud,
    ReplacementMask,
    SaliencyWeights,
    one_hot,
)
from pointcutmix.mixer import (
    apply_mix,
    apply_mix_segmentation,
    choose_center_saliency,
    mask_knn,
    mask_random,
    mix_pair,
    pointcutmix,
    sample_lambda,
)
from pointcutmix.rng import make_stream

from conftest import random_cloud
from oracles import linear_scan_knn, mixed_label, mixed_points


def identity_assignment(n: int) -> Assignment:
    return Assignment(np.arange(n, dtype=np.int64), 0.0, True)


# --- sample_lambda -----------------------------------------------------------


def test_sample_lambda_rejects_bad_beta():
    with pytest.raises(ValueError):
        sample_lambda(0.0, make_stream(0))
    with pytest.raises(ValueError):
        sample_lambda(-1.0, make_stream(0))


def test_sample_lambda_in_unit_interval():
    rng = make_stream(3)
    for beta in (0.5, 1.0, 2.0):
        for _ in range(100):
            lam = sample_lambda(beta, rng)
            assert 0.0 <= lam <= 1.0


def test_sample_lambda_uniform_moments():
    rng = make_stream(17)
    draws = np.array([sample_lambda(1.0, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs(draws.var() - 1.0 / 12.0) < 0.005


def test_sample_lambda_ks_against_uniform():
    rng = make_stream(29)
    n = 10_000
    draws = np.sort([sample_lambda(1.0, rng) for _ in range(n)])
    grid = np.arange(1, n + 1) / n
    ks = max(np.abs(grid - draws).max(), np.abs(draws - (grid - 1.0 / n)).max())
    critical_1pct = 1.6276 / math.sqrt(n)
    assert ks < critical_1pct


def test_sample_lambda_deterministic():
    a = [sample_lambda(2.0, make_stream(9)) for _ in range(1)]
    b = [sample_lambda(2.0, make_stream(9)) for _ in range(1)]
    assert a == b
    seq1 = make_stream(10)
    seq2 = make_stream(10)
    assert [sample_lambda(0.7, seq1) for _ in range(20)] == [
        sample_lambda(0.7, seq2) for _ in range(20)
    ]


# --- mask builders -----------------------------------------------------------


def test_mask_random_extremes():
    rng = make_stream(0)
    assert mask_random(4, 4, rng).keep.all()
    assert not mask_random(4, 0, rng).keep.any()


def test_mask_random_count_and_range():
    rng = make_stream(1)
    for n in (1, 7, 50, 99):
        mask = mask_random(100, n, rng)
        assert mask.n_kept == n
    with pytest.raises(ValueError):
        mask_random(10, 11, rng)
    with pytest.raises(ValueError):
        mask_random(10, -1, rng)


def test_mask_random_per_index_frequency():
    rng = make_stream(77)
    counts = np.zeros(100)
    trials = 100_000
    for _ in range(trials):
        counts += mask_random(100, 30, rng).keep
    freq = counts / trials
    assert np.all(np.abs(freq - 0.30) < 0.01)


def test_mask_knn_extremes(rng):
    cloud = random_cloud(rng, 12)
    assert mask_knn(cloud, 12, 5).keep.all()
    one = mask_knn(cloud, 1, 5)
    assert one.n_kept == 1 and one.keep[5]


def test_mask_knn_matches_oracle():
    rng = np.random.default_rng(93)
    cloud = random_cloud(rng, 64)
    mask = mask_knn(cloud, 20, 11)
    expected = set(linear_scan_knn(cloud.points, 11, 20).tolist())
    assert set(np.flatnonzero(mask.keep).tolist()) == expected


def test_mask_knn_rejects_bad_args(rng):
    cloud = random_cloud(rng, 8)
    with pytest.raises(ValueError):
        mask_knn(cloud, 0, 0)
    with pytest.raises(ValueError):
        mask_knn(cloud, 9, 0)
    with pytest.raises(IndexError):
        mask_knn(cloud, 3, 8)


# --- saliency center choice --------------------------------------------------


def test_choose_center_uniform_when_flat():
    rng = make_stream(123)
    weights = SaliencyWeights(np.full(5, 3.5, dtype=np.float32))
    trials = 100_000
    counts = np.bincount([choose_center_saliency(weights, rng) for _ in range(trials)], minlength=5)
    freq = counts / trials
    sigma = math.sqrt(0.2 * 0.8 / trials)
    assert np.all(np.abs(freq - 0.2) < 3 * sigma)


def test_choose_center_all_mass_on_max():
    rng = make_stream(5)
    weights = SaliencyWeights(np.array([0.0, 0.0, 1.0], dtype=np.float32))
    trials = 100_000
    hits = sum(choose_center_saliency(weights, rng) == 2 for _ in range(trials))
    assert hits / trials > 1.0 - 1e-3


def test_choose_center_min_shift_frequencies():
    rng = make_stream(6)
    weights = SaliencyWeights(np.array([1.0, 2.0, 3.0], dtype=np.float32))
    trials = 100_000
    counts = np.bincount([choose_center_saliency(weights, rng) for _ in range(trials)], minlength=3)
    freq = counts / trials
    assert abs(freq[0] - 0.0) < 0.01
    assert abs(freq[1] - 1.0 / 3.0) < 0.01
    assert abs(freq[2] - 2.0 / 3.0) < 0.01


# --- apply_mix ---------------------------------------------------------------


def test_apply_mix_all_ones_returns_first_cloud(rng):
    x1, x2 = random_cloud(rng, 8), random_cloud(rng, 8)
    y1, y2 = one_hot(0, 3), one_hot(1, 3)
    out = apply_mix(x1, y1, x2, y2, identity_assignment(8), ReplacementMask.all_kept(8))
    assert np.array_equal(out.cloud.points.view(np.uint32), x1.points.view(np.uint32))
    assert np.array_equal(out.label.weights, y1.weights)
    assert out.lam_effective == 1.0


def test_apply_mix_all_zeros_returns_second_cloud(rng):
    x1, x2 = random_cloud(rng, 8), random_cloud(rng, 8)
    y1, y2 = one_hot(0, 3), one_hot(1, 3)
    mask = ReplacementMask(np.zeros(8, dtype=bool))
    out = apply_mix(x1, y1, x2, y2, identity_assignment(8), mask)
    assert np.array_equal(out.cloud.points.view(np.uint32), x2.points.view(np.uint32))
    assert np.array_equal(out.label.weights, y2.weights)
    assert out.lam_effective == 0.0


def test_apply_mix_half_and_half(rng):
    x1, x2 = random_cloud(rng, 4), random_cloud(rng, 4)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    mask = ReplacementMask(np.array([True, True, False, False]))
    out = apply_mix(x1, y1, x2, y2, identity_assignment(4), mask)
    expected = np.vstack([x1.points[:2], x2.points[2:]])
    assert np.array_equal(out.cloud.points, expected)
    assert np.array_equal(out.label.weights, [0.5, 0.5])


def test_apply_mix_matches_reference_combine(rng):
    x1, x2 = random_cloud(rng, 10), random_cloud(rng, 10)
    y1, y2 = one_hot(2, 4), one_hot(0, 4)
    mapping = np.random.default_rng(2).permutation(10).astype(np.int64)
    assignment = Assignment(mapping, 1.0, True)
    mask = ReplacementMask(np.random.default_rng(3).random(10) < 0.5)
    out = apply_mix(x1, y1, x2, y2, assignment, mask)
    expected_pts = mixed_points(x1.points, x2.points, mapping, mask.keep)
    assert np.array_equal(out.cloud.points.view(np.uint32), expected_pts.view(np.uint32))
    lam_eff = mask.n_kept / 10
    np.testing.assert_array_equal(out.label.weights, mixed_label(y1.weights, y2.weights, lam_eff))


def test_apply_mix_label_weight_is_exact_ratio(rng):
    x1, x2 = random_cloud(rng, 12), random_cloud(rng, 12)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    for n in range(13):
        mask = ReplacementMask.from_kept_indices(np.arange(n), 12)
        out = apply_mix(x1, y1, x2, y2, identity_assignment(12), mask)
        assert out.label.weights[0] == n / 12  # bitwise-exact float ratio


def test_apply_mix_size_mismatch_errors(rng):
    x1, x2 = random_cloud(rng, 4), random_cloud(rng, 5)
    y = one_hot(0, 2)
    with pytest.raises(ValueError):
        apply_mix(x1, y, x2, y, identity_assignment(4), ReplacementMask.all_kept(4))
    x2 = random_cloud(rng, 4)
    with pytest.raises(ValueError):
        apply_mix(x1, y, x2, one_hot(0, 3), identity_assignment(4), ReplacementMask.all_kept(4))
    with pytest.raises(ValueError):
        apply_mix(x1, y, x2, y, identity_assignment(5), ReplacementMask.all_kept(4))
    with pytest.raises(ValueError):
        apply_mix(x1, y, x2, y, identity_assignment(4), ReplacementMask.all_kept(5))


# --- apply_mix_segmentation --------------------------------------------------


def test_segmentation_mask_extremes(rng):
    x1, x2 = random_cloud(rng, 6), random_cloud(rng, 6)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    p1 = PartLabels(np.arange(6, dtype=np.int32))
    p2 = PartLabels(np.arange(6, 12, dtype=np.int32))
    out = apply_mix_segmentation(
        x1, p1, y1, x2, p2, y2, identity_assignment(6), ReplacementMask.all_kept(6)
    )
    assert np.array_equal(out.part_labels.labels, p1.labels)
    out = apply_mix_segmentation(
        x1, p1, y1, x2, p2, y2, identity_assignment(6), ReplacementMask(np.zeros(6, dtype=bool))
    )
    assert np.array_equal(out.part_labels.labels, p2.labels)


def test_segmentation_labels_trace_to_sources(rng):
    n = 16
    x1, x2 = random_cloud(rng, n), random_cloud(rng, n)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    # Unique tags let each output label identify its source point exactly.
    p1 = PartLabels(np.arange(n, dtype=np.int32))
    p2 = PartLabels(np.arange(n, 2 * n, dtype=np.int32))
    mapping = np.random.default_rng(4).permutation(n).astype(np.int64)
    assignment = Assignment(mapping, 1.0, True)
    mask = ReplacementMask(np.random.default_rng(5).random(n) < 0.5)
    out = apply_mix_segmentation(x1, p1, y1, x2, p2, y2, assignment, mask)
    for i in range(n):
        tag = int(out.part_labels.labels[i])
        if mask.keep[i]:
            assert tag == i
            assert np.array_equal(out.cloud.points[i], x1.points[i])
        else:
            assert tag == n + mapping[i]
            assert np.array_equal(out.cloud.points[i], x2.points[mapping[i]])


def test_segmentation_rejects_misaligned_parts(rng):
    x1, x2 = random_cloud(rng, 4), random_cloud(rng, 4)
    y = one_hot(0, 2)
    with pytest.raises(ValueError):
        apply_mix_segmentation(
            x1, PartLabels(np.zeros(3, dtype=np.int32)), y,
            x2, PartLabels(np.zeros(4, dtype=np.int32)), y,
            identity_assignment(4), ReplacementMask.all_kept(4),
        )


# --- mix_pair ----------------------------------------------------------------


def test_mix_pair_lambda_one_returns_first_cloud(rng):
    x1, x2 = random_cloud(rng, 20), random_cloud(rng, 20)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    out = mix_pair(x1, y1, x2, y2, 1.0, "r", make_stream(1))
    assert np.array_equal(out.cloud.points.view(np.uint32), x1.points.view(np.uint32))
    assert np.array_equal(out.label.weights, y1.weights)


def test_mix_pair_kept_count_is_floor_of_lambda(rng):
    x1, x2 = random_cloud(rng, 10), random_cloud(rng, 10)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    for lam in (0.0, 0.05, 0.1, 0.15, 1.0 / 3.0, 0.5, 0.99, 1.0):
        out = mix_pair(x1, y1, x2, y2, lam, "r", make_stream(2))
        assert out.mask.n_kept == math.floor(lam * 10)
        assert out.params.lam == lam


def test_mix_pair_mode_k_zero_kept(rng):
    x1, x2 = random_cloud(rng, 10), random_cloud(rng, 10)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    out = mix_pair(x1, y1, x2, y2, 0.05, "k", make_stream(3))
    assert out.mask.n_kept == 0
    assert out.center_index is None


def test_mix_pair_mode_s_requires_saliency(rng):
    x1, x2 = random_cloud(rng, 6), random_cloud(rng, 6)
    y = one_hot(0, 2)
    with pytest.raises(ValueError):
        mix_pair(x1, y, x2, y, 0.5, "s", make_stream(0))
    with pytest.raises(ValueError):
        mix_pair(
            x1, y, x2, y, 0.5, "s", make_stream(0),
            saliency=SaliencyWeights(np.ones(5, dtype=np.float32)),
        )


def test_mix_pair_mode_s_uses_dominant_weight(rng):
    x1, x2 = random_cloud(rng, 30), random_cloud(rng, 30)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    w = np.zeros(30, dtype=np.float32)
    w[13] = 100.0
    out = mix_pair(
        x1, y1, x2, y2, 0.4, "s", make_stream(7),
        saliency=SaliencyWeights(w),
    )
    assert out.center_index == 13
    assert out.mask.keep[13]


def test_mix_pair_symmetric_roles_mode_r(rng):
    # Swapping the clouds, inverting the assignment, and carrying the
    # complemented mask through the assignment reproduces the same points.
    x1, x2 = random_cloud(rng, 24), random_cloud(rng, 24)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    out = mix_pair(x1, y1, x2, y2, 0.4, "r", make_stream(8))
    mapping = out.assignment.mapping
    keep2 = np.zeros(24, dtype=bool)
    keep2[mapping[~out.mask.keep]] = True
    swapped = apply_mix(
        x2, y2, x1, y1, out.assignment.inverted(), ReplacementMask(keep2)
    )
    rows = lambda pts: sorted(map(tuple, pts.tolist()))
    assert rows(swapped.cloud.points) == rows(out.cloud.points)


def test_mix_pair_segmentation_route(rng):
    x1, x2 = random_cloud(rng, 12), random_cloud(rng, 12)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    p1 = PartLabels(np.zeros(12, dtype=np.int32))
    p2 = PartLabels(np.ones(12, dtype=np.int32))
    out = mix_pair(x1, y1, x2, y2, 0.5, "k", make_stream(4), parts1=p1, parts2=p2)
    assert out.part_labels is not None
    assert np.array_equal(out.part_labels.labels == 0, out.mask.keep)
    with pytest.raises(ValueError):
        mix_pair(x1, y1, x2, y2, 0.5, "k", make_stream(4), parts1=p1)


# --- pointcutmix -------------------------------------------------------------


def policy(**kw) -> AugmentPolicy:
    return AugmentPolicy(**kw)


def test_pointcutmix_gate_never_opens_at_zero_prob(rng):
    x1, x2 = random_cloud(rng, 16), random_cloud(rng, 16)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    for seed in range(10):
        out = pointcutmix(x1, y1, x2, y2, policy(mix_prob=0.0), make_stream(seed))
        assert out.gated
        assert np.array_equal(out.cloud.points.view(np.uint32), x1.points.view(np.uint32))
        assert np.array_equal(out.label.weights, y1.weights)
        assert out.lam_effective == 1.0
        assert out.assignment is None


def test_pointcutmix_gated_sample_records_policy(rng):
    x1, x2 = random_cloud(rng, 16), random_cloud(rng, 16)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    pol = policy(mix_prob=0.0, mode="r", beta=0.4)
    out = pointcutmix(x1, y1, x2, y2, pol, make_stream(3), source_ids=["a", "b"])
    assert out.gated
    assert out.params == MixParams(lam=1.0, n_kept=16, mode="r", beta=0.4)
    assert out.mask.keep.all() and out.center_index is None
    assert out.part_labels is None and out.source_ids == ("a", "b")


def test_pointcutmix_gate_consumes_exactly_one_draw(rng):
    x1, x2 = random_cloud(rng, 8), random_cloud(rng, 8)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    used = make_stream(42)
    pointcutmix(x1, y1, x2, y2, policy(mix_prob=0.0), used)
    fresh = make_stream(42)
    fresh.random()
    assert used.random() == fresh.random()


def test_pointcutmix_mode_k_structural(rng):
    n = 300  # above the exact-solver threshold, so this runs the auction
    x1, x2 = random_cloud(rng, n), random_cloud(rng, n)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    out = pointcutmix(x1, y1, x2, y2, policy(mode="k", seed=1), make_stream(11))
    assert not out.gated
    n_kept = out.mask.n_kept
    assert n_kept == math.floor(out.params.lam * n)
    if 0 < n_kept:
        expected = set(linear_scan_knn(x1.points, out.center_index, n_kept).tolist())
        assert set(np.flatnonzero(out.mask.keep).tolist()) == expected
    mapping = out.assignment.mapping
    for i in np.flatnonzero(~out.mask.keep):
        assert np.array_equal(out.cloud.points[i], x2.points[mapping[i]])
    for i in np.flatnonzero(out.mask.keep):
        assert np.array_equal(out.cloud.points[i], x1.points[i])
    np.testing.assert_array_equal(
        out.label.weights, [n_kept / n, 1.0 - n_kept / n]
    )


def test_pointcutmix_composition_bitwise(rng):
    x1, x2 = random_cloud(rng, 64), random_cloud(rng, 64)
    y1, y2 = one_hot(1, 3), one_hot(2, 3)
    for seed in range(5):
        out = pointcutmix(x1, y1, x2, y2, policy(mode="r"), make_stream(seed))
        if out.gated:
            continue
        src1 = x1.points.view(np.uint32)
        src2 = x2.points[out.assignment.mapping].view(np.uint32)
        got = out.cloud.points.view(np.uint32)
        for i in range(64):
            expected = src1[i] if out.mask.keep[i] else src2[i]
            assert np.array_equal(got[i], expected)


def test_pointcutmix_label_support_and_mass(rng):
    x1, x2 = random_cloud(rng, 32), random_cloud(rng, 32)
    y1, y2 = one_hot(4, 10), one_hot(7, 10)
    out = pointcutmix(x1, y1, x2, y2, policy(mode="r"), make_stream(21))
    w = out.label.weights
    assert abs(w.sum() - 1.0) <= 1e-9
    assert set(np.flatnonzero(w).tolist()) <= {4, 7}
    assert w[4] == out.mask.n_kept / 32


def test_pointcutmix_gate_fraction():
    rng = np.random.default_rng(88)
    x1, x2 = random_cloud(rng, 4), random_cloud(rng, 4)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    pol = policy(mix_prob=0.5, mode="r")
    stream = make_stream(1001)
    trials = 10_000
    gated = sum(
        pointcutmix(x1, y1, x2, y2, pol, stream).gated for _ in range(trials)
    )
    assert abs(gated / trials - 0.5) < 0.02


def test_pointcutmix_deterministic(rng):
    x1, x2 = random_cloud(rng, 48), random_cloud(rng, 48)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    pol = policy(mode="s", mix_prob=0.7)
    sal = SaliencyWeights(np.abs(x1.points[:, 0]))
    a = pointcutmix(x1, y1, x2, y2, pol, make_stream(31), saliency=sal)
    b = pointcutmix(x1, y1, x2, y2, pol, make_stream(31), saliency=sal)
    assert np.array_equal(a.cloud.points.view(np.uint32), b.cloud.points.view(np.uint32))
    assert np.array_equal(a.label.weights, b.label.weights)
    assert np.array_equal(a.mask.keep, b.mask.keep)
    assert a.params == b.params
    assert a.center_index == b.center_index


def test_pointcutmix_segmentation_gated_keeps_parts(rng):
    x1, x2 = random_cloud(rng, 8), random_cloud(rng, 8)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    p1 = PartLabels(np.arange(8, dtype=np.int32))
    p2 = PartLabels(np.arange(8, dtype=np.int32))
    out = pointcutmix(
        x1, y1, x2, y2, policy(mix_prob=0.0), make_stream(0), parts1=p1, parts2=p2
    )
    assert out.gated
    assert np.array_equal(out.part_labels.labels, p1.labels)
