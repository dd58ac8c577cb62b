import numpy as np
import pytest

from pointcutmix.core import PointCloud
from pointcutmix.neighbors import build_index

from conftest import random_cloud
from oracles import linear_scan_knn


def test_collinear_tie_broken_by_index():
    pts = np.zeros((5, 3), dtype=np.float32)
    pts[:, 0] = [0.0, 1.0, 2.0, 3.0, 4.0]
    index = build_index(PointCloud(pts))
    # Points 1 and 3 are both at distance 1 from the center; index order wins.
    assert list(index.knn(2, 3)) == [2, 1, 3]


def test_center_is_always_first(rng):
    cloud = random_cloud(rng, 50)
    index = build_index(cloud)
    for center in (0, 17, 49):
        result = index.knn(center, 10)
        assert result[0] == center


def test_k_equals_n_returns_all_indices(rng):
    cloud = random_cloud(rng, 33)
    index = build_index(cloud)
    result = index.knn(5, 33)
    assert sorted(result) == list(range(33))
    assert result[0] == 5


def test_k_one_returns_center_only(rng):
    index = build_index(random_cloud(rng, 8))
    assert list(index.knn(3, 1)) == [3]


def test_single_point_cloud():
    index = build_index(PointCloud(np.ones((1, 3), dtype=np.float32)))
    assert list(index.knn(0, 1)) == [0]


def test_duplicate_points_all_retrievable():
    pts = np.zeros((6, 3), dtype=np.float32)
    pts[3:] = 5.0  # two groups of three coincident points
    index = build_index(PointCloud(pts))
    assert list(index.knn(1, 3)) == [1, 0, 2]
    assert list(index.knn(4, 3)) == [4, 3, 5]
    assert list(index.knn(0, 6)) == [0, 1, 2, 3, 4, 5]


def test_k_out_of_range(rng):
    index = build_index(random_cloud(rng, 10))
    with pytest.raises(ValueError):
        index.knn(0, 0)
    with pytest.raises(ValueError):
        index.knn(0, 11)
    with pytest.raises(IndexError):
        index.knn(10, 3)


def test_matches_linear_scan_on_128_points():
    rng = np.random.default_rng(31)
    cloud = random_cloud(rng, 128)
    index = build_index(cloud)
    center = int(rng.integers(128))
    expected = linear_scan_knn(cloud.points, center, 17)
    assert np.array_equal(index.knn(center, 17), expected)


def test_oracle_equivalence_sweep():
    rng = np.random.default_rng(8675309)
    trials = 0
    while trials < 1000:
        n = int(rng.integers(1, 257))
        cloud = random_cloud(rng, n)
        index = build_index(cloud)
        for _ in range(min(5, n)):
            center = int(rng.integers(n))
            k = int(rng.integers(1, n + 1))
            expected = linear_scan_knn(cloud.points, center, k)
            got = index.knn(center, k)
            assert np.array_equal(got, expected), (n, center, k)
            assert len(np.unique(got)) == k
            trials += 1


def test_oracle_equivalence_with_quantized_ties():
    # Coordinates on a coarse grid force many exact distance ties.
    rng = np.random.default_rng(4242)
    for _ in range(50):
        n = int(rng.integers(2, 100))
        pts = rng.integers(0, 4, size=(n, 3)).astype(np.float32)
        cloud = PointCloud(pts)
        index = build_index(cloud)
        center = int(rng.integers(n))
        k = int(rng.integers(1, n + 1))
        assert np.array_equal(index.knn(center, k), linear_scan_knn(pts, center, k))


def test_1024_point_probes():
    rng = np.random.default_rng(55)
    cloud = random_cloud(rng, 1024)
    index = build_index(cloud)
    for _ in range(100):
        center = int(rng.integers(1024))
        k = int(rng.integers(1, 1025))
        assert np.array_equal(index.knn(center, k), linear_scan_knn(cloud.points, center, k))


def test_index_len(rng):
    assert len(build_index(random_cloud(rng, 77))) == 77
