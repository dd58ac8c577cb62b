import tracemalloc

import numpy as np
import pytest

from pointcutmix.assignment import (
    DEFAULT_CONFIG,
    ConvergenceError,
    SolverConfig,
    cost,
    cost_matrix,
    emd,
    optimal_assignment,
    solve_auction,
    solve_exact,
)
from pointcutmix.core import PointCloud

from conftest import random_cloud
from oracles import brute_force_assignment, pairwise_distances

# Frozen output of oracles.brute_force_assignment on the two 6-point clouds
# drawn below from default_rng(20260815); see that module for the method.
FROZEN6_MAPPING = [4, 1, 2, 3, 0, 5]
FROZEN6_TOTAL = 7.5484577556692782
FROZEN6_EMD = 1.2580762926115463


def frozen6():
    rng = np.random.default_rng(20260815)
    a = PointCloud(rng.standard_normal((6, 3)).astype(np.float32))
    b = PointCloud(rng.standard_normal((6, 3)).astype(np.float32))
    return a, b


def test_cost_basic_properties(rng):
    a = random_cloud(rng, 5)
    b = random_cloud(rng, 5)
    assert cost(a, 0, a, 0) == 0.0
    assert cost(a, 1, b, 2) == pytest.approx(cost(b, 2, a, 1))
    assert cost(a, 1, b, 2) >= 0.0


def test_cost_index_errors(rng):
    a = random_cloud(rng, 3)
    with pytest.raises(IndexError):
        cost(a, 3, a, 0)
    with pytest.raises(IndexError):
        cost(a, 0, a, -1)


def test_cost_matrix_matches_reference(rng):
    a = random_cloud(rng, 7)
    b = random_cloud(rng, 7)
    c = cost_matrix(a, b)
    assert c.dtype == np.float64
    np.testing.assert_allclose(c, pairwise_distances(a.points, b.points), rtol=1e-14)
    assert c[2, 5] == pytest.approx(cost(a, 2, b, 5), rel=1e-14)


def test_cost_matrix_rejects_size_mismatch(rng):
    with pytest.raises(ValueError):
        cost_matrix(random_cloud(rng, 3), random_cloud(rng, 4))


def test_solve_exact_matches_brute_force_on_frozen_instance():
    a, b = frozen6()
    result = solve_exact(a, b)
    assert result.is_exact
    assert list(result.mapping) == FROZEN6_MAPPING
    assert result.total_cost == pytest.approx(FROZEN6_TOTAL, rel=1e-12)


def test_solve_exact_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 7):
        for _ in range(5):
            a = random_cloud(rng, n)
            b = random_cloud(rng, n)
            mapping, total = brute_force_assignment(a.points, b.points)
            result = solve_exact(a, b)
            assert result.total_cost == pytest.approx(total, rel=1e-12)
            assert list(result.mapping) == list(mapping)


def test_solve_exact_identity_on_identical_clouds(rng):
    a = random_cloud(rng, 20)
    result = solve_exact(a, a)
    assert result.total_cost == pytest.approx(0.0, abs=1e-12)


def test_auction_within_certificate_of_exact():
    rng = np.random.default_rng(99)
    for n in (8, 50, 200):
        a = random_cloud(rng, n)
        b = random_cloud(rng, n)
        exact = solve_exact(a, b)
        approx = solve_auction(a, b)
        assert not approx.is_exact
        assert approx.total_cost >= exact.total_cost - 1e-9
        assert approx.total_cost <= exact.total_cost + n * DEFAULT_CONFIG.epsilon_final


def test_auction_certificate_at_scale():
    rng = np.random.default_rng(5)
    a = random_cloud(rng, 512)
    b = random_cloud(rng, 512)
    exact = solve_exact(a, b)
    approx = solve_auction(a, b)
    assert approx.total_cost <= exact.total_cost + 512 * DEFAULT_CONFIG.epsilon_final


def test_auction_is_deterministic(rng):
    a = random_cloud(rng, 64)
    b = random_cloud(rng, 64)
    r1 = solve_auction(a, b)
    r2 = solve_auction(a, b)
    assert np.array_equal(r1.mapping, r2.mapping)
    assert r1.total_cost == r2.total_cost


def test_auction_identical_clouds_near_zero(rng):
    a = random_cloud(rng, 128)
    result = solve_auction(a, a)
    assert result.total_cost <= 128 * DEFAULT_CONFIG.epsilon_final


def test_auction_all_points_coincident():
    a = PointCloud(np.ones((16, 3), dtype=np.float32))
    result = solve_auction(a, a)
    assert result.total_cost == 0.0


def test_auction_handles_duplicate_points():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((10, 3)).astype(np.float32)
    dup = base.copy()
    dup[5] = dup[0]
    a, b = PointCloud(dup), PointCloud(base)
    exact = solve_exact(a, b)
    approx = solve_auction(a, b)
    assert approx.total_cost <= exact.total_cost + 10 * DEFAULT_CONFIG.epsilon_final


def test_auction_single_point():
    a = PointCloud(np.array([[0.0, 0.0, 0.0]], dtype=np.float32))
    b = PointCloud(np.array([[3.0, 4.0, 0.0]], dtype=np.float32))
    result = solve_auction(a, b)
    assert list(result.mapping) == [0]
    assert result.total_cost == pytest.approx(5.0)


def test_auction_matrix_free_path_matches_dense(rng, monkeypatch):
    a = random_cloud(rng, 96)
    b = random_cloud(rng, 96)
    dense = solve_auction(a, b)
    monkeypatch.setattr("pointcutmix.assignment.DENSE_MATRIX_LIMIT", 10)
    chunked = solve_auction(a, b)
    assert np.array_equal(dense.mapping, chunked.mapping)
    assert chunked.total_cost == pytest.approx(dense.total_cost, rel=1e-12)


def test_auction_matrix_free_memory_is_bounded(rng, monkeypatch):
    n = 600
    a = random_cloud(rng, n)
    b = random_cloud(rng, n)
    dense = solve_auction(a, b)
    monkeypatch.setattr("pointcutmix.assignment.DENSE_MATRIX_LIMIT", 10)
    monkeypatch.setattr("pointcutmix.assignment._CHUNK_ELEMENTS", 16 * n)
    tracemalloc.start()
    try:
        chunked = solve_auction(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(dense.mapping, chunked.mapping)
    assert chunked.total_cost == dense.total_cost
    # Scratch grows with the 16-row blocks, not with the n x n matrix the
    # matrix-free path exists to avoid.
    assert peak < n * n * 8 / 8, f"peak {peak} bytes"


def test_auction_dense_memory_is_bounded(rng):
    n = 2048
    a = random_cloud(rng, n)
    b = random_cloud(rng, n)
    tracemalloc.start()
    try:
        solve_auction(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One n x n benefit matrix plus scratch: the bid cache, row blocks and
    # refills together stay well below a second matrix.
    assert peak < 1.5 * n * n * 8, f"peak {peak} bytes"


def test_auction_bid_budget_exhaustion(rng):
    a = random_cloud(rng, 32)
    b = random_cloud(rng, 32)
    tight = SolverConfig(max_auction_rounds=5)
    with pytest.raises(ConvergenceError):
        solve_auction(a, b, tight)


def test_optimal_assignment_dispatch(rng):
    at_threshold = solve_exact  # documents intent: boundary goes exact
    a = random_cloud(rng, 256)
    b = random_cloud(rng, 256)
    assert optimal_assignment(a, b).is_exact
    a = random_cloud(rng, 257)
    b = random_cloud(rng, 257)
    assert not optimal_assignment(a, b).is_exact


def test_optimal_assignment_respects_custom_threshold(rng):
    a = random_cloud(rng, 32)
    b = random_cloud(rng, 32)
    config = SolverConfig(exact_threshold=16)
    assert not optimal_assignment(a, b, config).is_exact


def test_emd_frozen_value():
    a, b = frozen6()
    assert emd(a, b) == pytest.approx(FROZEN6_EMD, rel=1e-12)


def test_emd_symmetry_and_identity(rng):
    a = random_cloud(rng, 24)
    b = random_cloud(rng, 24)
    assert emd(a, b) == pytest.approx(emd(b, a), rel=1e-9)
    assert emd(a, a) == pytest.approx(0.0, abs=1e-12)


def test_emd_translation_sensitivity():
    pts = np.zeros((4, 3), dtype=np.float32)
    shifted = pts + np.array([0.0, 0.0, 2.5], dtype=np.float32)
    assert emd(PointCloud(pts), PointCloud(shifted)) == pytest.approx(2.5)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(exact_threshold=0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon_final=0.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon_scaling_factor=1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_auction_rounds=0)
