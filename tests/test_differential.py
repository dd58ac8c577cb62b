"""Differential tests: the solver and FPS against frozen reference copies.

The references in oracles.py are the released implementations. Any rewrite
of solve_auction or farthest_point_sample must reproduce them bit for bit
(mappings, total_cost, picked indices, convergence failures), so output
files stay byte-identical. Inputs stress tie rules: duplicate points and
lattice coordinates, where many distances are exactly equal.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointcutmix import assignment
from pointcutmix.assignment import ConvergenceError, SolverConfig, solve_auction
from pointcutmix.core import PointCloud
from pointcutmix.ingest import farthest_point_sample, parse_ply

from conftest import FIXTURES
from oracles import reference_auction, reference_fps

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=20)


def draw_points(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "lattice":
        side = int(rng.integers(1, 6))
        pts = rng.integers(0, side, size=(n, 3)) * 0.25
    elif kind == "duplicates":
        base = rng.standard_normal((max(1, n // 3), 3))
        pts = base[rng.integers(0, len(base), size=n)]
    else:
        pts = rng.standard_normal((n, 3))
    return pts.astype(np.float32)


@st.composite
def cloud_pairs(draw, max_n=300):
    n = draw(st.integers(2, max_n))
    kind = draw(st.sampled_from(["gaussian", "lattice", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = draw_points(rng, n, kind)
    shuffled = draw(st.booleans()) and kind != "gaussian"  # b is a reordering of a
    b = a[rng.permutation(n)] if shuffled else draw_points(rng, n, kind)
    return PointCloud(a), PointCloud(b)


def outcome(solve, *args, **kwargs):
    """(mapping, total_cost) of a solve, or the ConvergenceError message."""
    try:
        result = solve(*args, **kwargs)
    except ConvergenceError as exc:
        return ("ConvergenceError", str(exc))
    return (result.mapping.tolist(), np.float64(result.total_cost).tobytes())


@PROPERTY
@given(cloud_pairs())
def test_auction_dense_matches_reference(pair):
    a, b = pair
    assert outcome(solve_auction, a, b) == outcome(reference_auction, a, b)


@PROPERTY
@given(cloud_pairs(max_n=120))
def test_auction_matrix_free_matches_reference(pair):
    a, b = pair
    n = len(a)
    chunk = n * (1 + n % 7)  # 1 to 7 rows per block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assignment, "DENSE_MATRIX_LIMIT", 1)
        mp.setattr(assignment, "_CHUNK_ELEMENTS", chunk)
        got = outcome(solve_auction, a, b)
    assert got == outcome(reference_auction, a, b, dense_limit=1, chunk_elements=chunk)


@PROPERTY
@given(cloud_pairs(max_n=80), st.integers(1, 2000), st.booleans())
def test_auction_bid_budget_matches_reference(pair, budget, dense):
    a, b = pair
    config = SolverConfig(max_auction_rounds=budget)
    limit = assignment.DENSE_MATRIX_LIMIT if dense else 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assignment, "DENSE_MATRIX_LIMIT", limit)
        got = outcome(solve_auction, a, b, config)
    assert got == outcome(reference_auction, a, b, config, dense_limit=limit)


def test_auction_matches_reference_on_fixtures_at_1024():
    with open(os.path.join(FIXTURES, "chair.ply")) as fh:
        chair, _, _ = parse_ply(fh.read())
    with open(os.path.join(FIXTURES, "airplane.ply")) as fh:
        plane, _, _ = parse_ply(fh.read())
    assert len(chair) == len(plane) == 1024
    assert outcome(solve_auction, chair, plane) == outcome(reference_auction, chair, plane)


@PROPERTY
@given(
    st.integers(1, 600),
    st.sampled_from(["gaussian", "lattice", "duplicates"]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_fps_matches_reference(n, kind, seed, data):
    pts = draw_points(np.random.default_rng(seed), n, kind)
    m = data.draw(st.integers(1, min(n, 500)))
    start = data.draw(st.integers(0, n - 1))
    got = farthest_point_sample(PointCloud(pts), m, start)
    assert got.dtype == np.int64
    assert got.tolist() == reference_fps(pts, m, start).tolist()
