"""Independent reference implementations used to check the real ones.

Everything here favors obviousness over speed: exhaustive enumeration,
linear scans, direct transcriptions of the defining formulas. Tests compare
library output against these on small inputs, and several frozen constants
in the test files were produced by running them once.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.spatial.distance import cdist

from pointcutmix.assignment import ConvergenceError, SolverConfig, cost
from pointcutmix.core import Assignment


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i, column j holds ||a_i - b_j||, accumulated in float64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def brute_force_assignment(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Exhaustive minimum over all N! bijections; ties to the
    lexicographically smallest mapping. Only sane for N <= 8."""
    n = len(a)
    c = pairwise_distances(a, b)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    totals = c[np.arange(n), perms].sum(axis=1)
    best = perms[int(np.argmin(totals))]
    return best, float(totals.min())


def brute_force_emd(a: np.ndarray, b: np.ndarray) -> float:
    _, total = brute_force_assignment(a, b)
    return total / len(a)


def linear_scan_knn(points: np.ndarray, center: int, k: int) -> np.ndarray:
    """k nearest neighbors of points[center], center first, then the rest
    ordered by (squared distance, index). Distances use the same row-wise
    float64 expression as the tree's leaf scan so results match bitwise."""
    pts = np.asarray(points, dtype=np.float64)
    diff = pts - pts[center]
    d2 = (diff * diff).sum(axis=1)
    others = np.array([i for i in range(len(pts)) if i != center], dtype=np.int64)
    order = others[np.lexsort((others, d2[others]))]
    return np.concatenate(([center], order[: k - 1])).astype(np.int64)


def reference_fps(points: np.ndarray, n: int, start: int) -> np.ndarray:
    """Farthest point sampling, one candidate at a time. Tie rule: first
    index attaining the max. Picked points are masked with -1 so duplicate
    coordinates can never be picked twice."""
    pts = np.asarray(points, dtype=np.float64)
    picked = [start]
    d2min = ((pts - pts[start]) ** 2).sum(axis=1)
    d2min[start] = -1.0
    for _ in range(n - 1):
        nxt = int(np.argmax(d2min))
        picked.append(nxt)
        d2 = ((pts - pts[nxt]) ** 2).sum(axis=1)
        d2min = np.minimum(d2min, d2)
        d2min[nxt] = -1.0
    return np.asarray(picked, dtype=np.int64)


def reference_auction(
    x1, x2, config=SolverConfig(), *, dense_limit=4096, chunk_elements=1 << 22
) -> Assignment:
    """Frozen copy of the epsilon-scaling auction as first released: one
    Jacobi round at a time, every round vectorized over its bidders, ties
    resolved by lexsort. The library's solver must return the same mapping
    and the same total_cost bits, and fail with the same ConvergenceError.
    dense_limit and chunk_elements stand in for the library's
    DENSE_MATRIX_LIMIT and _CHUNK_ELEMENTS (their released values)."""
    n = len(x1)
    if len(x2) != n:
        raise ValueError(f"cloud sizes differ: {len(x1)} vs {len(x2)}")
    if n == 1:
        return Assignment(np.zeros(1, dtype=np.int64), cost(x1, 0, x2, 0), False)

    a = x1.points.astype(np.float64)
    b = x2.points.astype(np.float64)
    dense = n <= dense_limit
    c = cdist(a, b) if dense else None

    if dense:
        max_cost = float(c.max())

        def benefit_rows(rows):
            return -c[rows]

    else:
        rows_per_chunk = max(1, chunk_elements // n)
        max_cost = 0.0
        for lo in range(0, n, rows_per_chunk):
            max_cost = max(max_cost, float(cdist(a[lo : lo + rows_per_chunk], b).max()))

        def benefit_rows(rows):
            if len(rows) <= rows_per_chunk:
                return -cdist(a[rows], b)
            out = np.empty((len(rows), n))
            for lo in range(0, len(rows), rows_per_chunk):
                out[lo : lo + rows_per_chunk] = -cdist(a[rows[lo : lo + rows_per_chunk]], b)
            return out

    if max_cost <= 0.0:
        mapping = np.arange(n, dtype=np.int64)
        return Assignment(mapping, 0.0, False)

    prices = np.zeros(n)
    eps = max(max_cost / 4.0, config.epsilon_final)
    bids_used = 0

    while True:
        item_of = np.full(n, -1, dtype=np.int64)
        owner = np.full(n, -1, dtype=np.int64)
        unassigned = n
        while unassigned > 0:
            bidders = np.flatnonzero(item_of < 0)
            u = bidders.size
            bids_used += u
            if bids_used > config.max_auction_rounds:
                raise ConvergenceError(
                    f"auction exceeded {config.max_auction_rounds} bids at epsilon {eps:g}"
                )
            values = benefit_rows(bidders) - prices
            rows = np.arange(u)
            best_item = np.argmax(values, axis=1)
            best_value = values[rows, best_item]
            values[rows, best_item] = -np.inf
            second_value = values.max(axis=1)
            increment = best_value - second_value + eps

            order = np.lexsort((bidders, -increment, best_item))
            ordered_items = best_item[order]
            is_first = np.ones(u, dtype=bool)
            is_first[1:] = ordered_items[1:] != ordered_items[:-1]
            winner_rows = order[is_first]

            items = best_item[winner_rows]
            winners = bidders[winner_rows]
            prices[items] += increment[winner_rows]
            displaced = owner[items]
            item_of[displaced[displaced >= 0]] = -1
            owner[items] = winners
            item_of[winners] = items
            unassigned = int(np.count_nonzero(item_of < 0))

        if eps <= config.epsilon_final:
            break
        eps = max(eps / config.epsilon_scaling_factor, config.epsilon_final)

    if dense:
        total = float(c[np.arange(n), item_of].sum())
    else:
        total = float(np.linalg.norm(a - b[item_of], axis=1).sum())
    return Assignment(item_of, total, False)


def mixed_points(x1: np.ndarray, x2: np.ndarray, mapping: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Direct transcription of the combine rule: kept rows from x1,
    replaced rows from x2 re-ordered by the assignment."""
    out = x2[mapping].copy()
    out[keep] = x1[keep]
    return out


def mixed_label(y1: np.ndarray, y2: np.ndarray, lam: float) -> np.ndarray:
    return lam * np.asarray(y1, dtype=np.float64) + (1.0 - lam) * np.asarray(y2, dtype=np.float64)
