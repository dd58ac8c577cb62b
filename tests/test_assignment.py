import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from pointcutmix import assignment, ingest
from pointcutmix.assignment import (
    EPSILON_FINAL,
    ConvergenceError,
    cost_matrix,
    emd,
    optimal_assignment,
    solve_auction,
    solve_exact,
)
from pointcutmix.core import PointCloud
from pointcutmix.ingest import parse_ply

from conftest import FIXTURES, random_cloud
from oracles import brute_force_assignment, cost, pairwise_distances

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
            assert result.total_cost == total  # bit for bit
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
        assert approx.total_cost <= exact.total_cost + n * EPSILON_FINAL


def test_auction_certificate_at_scale():
    rng = np.random.default_rng(5)
    a = random_cloud(rng, 512)
    b = random_cloud(rng, 512)
    exact = solve_exact(a, b)
    approx = solve_auction(a, b)
    assert approx.total_cost <= exact.total_cost + 512 * EPSILON_FINAL


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
    assert result.total_cost <= 128 * EPSILON_FINAL


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
    assert approx.total_cost <= exact.total_cost + 10 * EPSILON_FINAL


def test_auction_single_point():
    a = PointCloud(np.array([[0.0, 0.0, 0.0]], dtype=np.float32))
    b = PointCloud(np.array([[3.0, 4.0, 0.0]], dtype=np.float32))
    result = solve_auction(a, b)
    assert list(result.mapping) == [0]
    assert result.total_cost == pytest.approx(5.0)
    # Same bits as sqrt(dot(d, d)). cdist's summation order differs in the
    # last place on about 1 % of float32 pairs, so 1000 pairs tell them apart.
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a, b = random_cloud(rng, 1), random_cloud(rng, 1)
        assert solve_auction(a, b).total_cost == cost(a, 0, b, 0)


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


def test_auction_bid_budget_exhaustion(rng, monkeypatch):
    a = random_cloud(rng, 32)
    b = random_cloud(rng, 32)
    monkeypatch.setattr(assignment, "MAX_BIDS", 5)
    with pytest.raises(ConvergenceError):
        solve_auction(a, b)


def test_optimal_assignment_dispatch(rng):
    at_threshold = solve_exact  # documents intent: boundary goes exact
    a = random_cloud(rng, 256)
    b = random_cloud(rng, 256)
    assert optimal_assignment(a, b).is_exact
    a = random_cloud(rng, 257)
    b = random_cloud(rng, 257)
    assert not optimal_assignment(a, b).is_exact


def test_optimal_assignment_respects_custom_threshold(rng, monkeypatch):
    a = random_cloud(rng, 32)
    b = random_cloud(rng, 32)
    monkeypatch.setattr(assignment, "EXACT_THRESHOLD", 16)
    assert not optimal_assignment(a, b).is_exact


WARM_SIZES = (257, 300, 1024)


def warm_inputs(kind: str, n: int):
    """A pair of n-point clouds: Gaussian, the box-built shape fixtures, a
    lattice with many equal distances, or every point repeated 8 times."""
    rng = np.random.default_rng(n)
    if kind == "random":
        a, b = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
    elif kind == "shapes":
        a, b = (
            parse_ply(Path(FIXTURES, f"{name}.ply").read_text())[0].points[:n]
            for name in ("chair", "airplane")
        )
    elif kind == "lattice":
        a, b = (rng.integers(0, 5, size=(n, 3)) * 0.25 for _ in range(2))
    else:
        a, b = (np.repeat(rng.standard_normal((n // 8 + 1, 3)), 8, axis=0)[:n] for _ in range(2))
    return PointCloud(a.astype(np.float32)), PointCloud(b.astype(np.float32))


@pytest.mark.parametrize("n", WARM_SIZES)
def test_warm_auction_is_deterministic(n):
    a, b = warm_inputs("random", n)
    first = optimal_assignment(a, b)
    second = assignment._warm_auction(a, b)[0]
    assert not first.is_exact
    assert first.mapping.tolist() == second.mapping.tolist()
    assert np.float64(first.total_cost).tobytes() == np.float64(second.total_cost).tobytes()


@pytest.mark.parametrize("n", WARM_SIZES)
@pytest.mark.parametrize("kind", ["random", "shapes", "lattice", "duplicates"])
def test_warm_auction_certificate_and_bids(kind, n):
    """Started from lifted prices, the auction keeps the cold certificate,
    and spends at most 1.5x the cold auction's bids, coarse solve included."""
    a, b = warm_inputs(kind, n)
    c = cost_matrix(a, b)
    rows, cols = linear_sum_assignment(c)
    exact = c[rows, cols].sum()
    warm, _, warm_bids = assignment._warm_auction(a, b)
    coords = (a.points.astype(np.float64), b.points.astype(np.float64))
    _, _, cold_bids = assignment._auction(*coords, np.zeros(n), 4.0, EPSILON_FINAL, 0)
    assert warm.total_cost >= exact - 1e-9
    assert warm.total_cost - exact <= n * EPSILON_FINAL
    assert warm_bids <= 1.5 * cold_bids, (warm_bids, cold_bids)


def test_warm_auction_matrix_free_matches_dense(rng, monkeypatch):
    n = 600
    a = random_cloud(rng, n)
    b = random_cloud(rng, n)
    dense = optimal_assignment(a, b)
    monkeypatch.setattr(assignment, "DENSE_MATRIX_LIMIT", 10)
    monkeypatch.setattr(assignment, "_CHUNK_ELEMENTS", 16 * n)
    tracemalloc.start()
    try:
        chunked = optimal_assignment(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(dense.mapping, chunked.mapping)
    assert chunked.total_cost == dense.total_cost
    # The price lift reads distances to the coarse items in row blocks too:
    # one n x n/4 matrix would already exceed this.
    assert peak < n * n * 8 / 8, f"peak {peak} bytes"


def test_warm_auction_coarse_pair_at_zero_cost_starts_from_zero(monkeypatch):
    starts = []
    real_auction = assignment._auction

    def record(a, b, prices, eps_divisor, eps_final, bids_used):
        starts.append(prices.copy())
        return real_auction(a, b, prices, eps_divisor, eps_final, bids_used)

    monkeypatch.setattr(assignment, "_auction", record)
    a = PointCloud(np.ones((300, 3), dtype=np.float32))
    result = optimal_assignment(a, a)
    assert result.total_cost == 0.0
    assert [len(prices) for prices in starts] == [75, 300]
    assert not starts[1].any()


def test_warm_start_is_not_traced_as_source_sampling(rng, monkeypatch):
    """The coarse sampling calls the function bound at import, so a wrapper
    installed on the ingest module (as the benchmark's trace does) sees
    only source preparation."""
    monkeypatch.setattr(ingest, "farthest_point_sample", None)
    assert not optimal_assignment(random_cloud(rng, 300), random_cloud(rng, 300)).is_exact


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
