"""Optimal point assignment and Earth Mover's Distance between equal-size clouds.

The ground cost is the unsquared Euclidean distance. Small instances are
solved exactly by a shortest-augmenting-path assignment solver; larger
ones by an epsilon-scaling auction whose final prices certify that the
returned cost exceeds the optimum by at most N * EPSILON_FINAL.

The auction keeps, per bidder, an exact cache of its top items (Bertsekas'
"third-best" bookkeeping, generalized to m items): their columns, their
benefits, and the threshold T, the (m+1)-th net value when the row was
read. Prices only rise, by at least epsilon per bid, and fl(b - p) is
monotone in p, so no uncached net value ever exceeds T. A bid whose cached
best is above T and cached second at least T therefore picks the same item
with the same increment, bit for bit, as a scan of the full row; any other
bid scans the full row and refills the cache. The cache holds n * m
entries, at most an eighth of _CHUNK_ELEMENTS.

Rounds with many bidders bid as one vectorized block; rounds with few (late
in each phase, where most rounds have two to eight bidders) bid one bidder
at a time in Python scalars, and a miss there refills the single row from a
view of it. Both take every bid of a round at the round's starting prices
and resolve contested items by the same rule, so the path a round takes
changes neither mappings nor cost bits.

Above the exact threshold, optimal_assignment() starts the auction warm
(Merigot 2011, "A multiscale approach to optimal transport"). Both clouds
are farthest-point sampled from index 0, which draws nothing from any random
stream, to a quarter of their points; that coarse pair is solved by a cold
auction at ten times the final epsilon; each item of the second cloud takes
the price of its nearest coarse item, shifted so the lowest is 0; and the
full auction opens from those prices at epsilon max_cost / 64 rather than
max_cost / 4. The certificate does not depend on the start: each phase ends
with a complete assignment in epsilon-complementary slackness with its
prices, whatever prices it began from, so the final phase still certifies
cost <= optimum + N * EPSILON_FINAL (Bertsekas 1988, "The auction
algorithm: a distributed relaxation method"). Near-optimal start prices
only make the wide, large-epsilon phases unnecessary. solve_auction() is
the cold auction alone.

All arithmetic runs in 64-bit regardless of the 32-bit point storage.
Distances come from a numpy kernel with the bits of scipy's cdist, so only
the exact solver needs scipy, and it imports it on first use.
Solvers are pure functions: concurrent solves on distinct inputs are safe.
"""

from __future__ import annotations

import numpy as np

from .core import Assignment, PointCloud, squared_distances
from .ingest import farthest_point_sample

# Largest N routed to the exact solver.
EXACT_THRESHOLD = 256

# Per-point price precision of the auction: its final epsilon.
EPSILON_FINAL = 1e-4

# The auction's budget in individual bids.
MAX_BIDS = 10_000_000

# Each epsilon phase of the auction divides epsilon by this factor.
_EPSILON_SCALING = 4.0

# Above this size the auction solver recomputes cost rows on demand
# instead of materializing the full N x N matrix.
DENSE_MATRIX_LIMIT = 4096

# Bounds the solver's scratch memory (all of it on the matrix-free path):
# row blocks of distances hold at most this many elements, a wide round's
# cache gather an eighth of it and a block of refilled rows a sixty-fourth.
_CHUNK_ELEMENTS = 1 << 22

# Distances are computed in row blocks of about this many elements, small
# enough that a block stays in cache from its first operation to its last.
_BLOCK_ELEMENTS = 1 << 15

# Widest bid cache kept per bidder of the auction.
_CACHE_WIDTH = 128

# Auction rounds with at most this many bidders bid one bidder at a time.
_SMALL_ROUND = 8

# The warm start: the coarse pair has 1/_COARSE_FACTOR of the points and is
# solved to _COARSE_EPSILON_RATIO times the final epsilon; the fine auction
# then opens at epsilon max_cost / _WARM_EPSILON_DIVISOR.
_COARSE_FACTOR = 4
_COARSE_EPSILON_RATIO = 10.0
_WARM_EPSILON_DIVISOR = 64.0


def _distance_blocks(a: np.ndarray, b: np.ndarray, out: np.ndarray):
    """Fill out with the Euclidean distances between the rows of a and of b
    (float64), one cache-sized row block at a time, yielding each block as
    soon as it is final: the square roots of squared_distances(), which are
    scipy's cdist bit for bit."""
    columns = np.ascontiguousarray(b.T)
    rows = max(1, _BLOCK_ELEMENTS // max(1, len(b)))
    scratch = np.empty((min(rows, len(a)), len(b)))
    for lo in range(0, len(a), rows):
        block, here = out[lo : lo + rows], a[lo : lo + rows]
        squared_distances(here.T[:, :, None], columns, block, scratch[: len(block)])
        np.sqrt(block, out=block)
        yield block


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The full matrix of _distance_blocks()."""
    out = np.empty((len(a), len(b)))
    for _ in _distance_blocks(a, b, out):
        pass
    return out


def _cache_width(n: int) -> int:
    """Items cached per bidder: at most n - 1, and n * width at most an
    eighth of _CHUNK_ELEMENTS."""
    return max(1, min(_CACHE_WIDTH, n - 1, _CHUNK_ELEMENTS // (8 * n)))


class ConvergenceError(RuntimeError):
    """Auction exceeded its bid budget of MAX_BIDS; the input is
    pathological for the final epsilon."""


def _require_same_size(x1: PointCloud, x2: PointCloud) -> int:
    if len(x1) != len(x2):
        raise ValueError(f"cloud sizes differ: {len(x1)} vs {len(x2)}")
    return len(x1)


def cost_matrix(x1: PointCloud, x2: PointCloud) -> np.ndarray:
    """Dense float64 matrix of pairwise Euclidean distances."""
    _require_same_size(x1, x2)
    return _distances(x1.points.astype(np.float64), x2.points.astype(np.float64))


def solve_exact(x1: PointCloud, x2: PointCloud) -> Assignment:
    """Minimum-cost bijection, solved exactly.

    O(N^3); intended for N up to EXACT_THRESHOLD, though nothing but
    patience caps it.
    """
    from scipy.optimize import linear_sum_assignment

    _, mapping = linear_sum_assignment(cost_matrix(x1, x2))
    total = np.linalg.norm(x1.points.astype(np.float64) - x2.points[mapping], axis=1).sum()
    return Assignment(mapping, float(total), True)


def solve_auction(x1: PointCloud, x2: PointCloud) -> Assignment:
    """Approximate minimum-cost bijection via an epsilon-scaling auction.

    Terminates with a complete assignment satisfying epsilon-complementary
    slackness at the final epsilon, so the returned total cost is within
    N * EPSILON_FINAL of the exact optimum. Deterministic for fixed inputs.

    Bids read each bidder's top-m cache (see the module docstring), which
    persists across epsilon phases; only bids it cannot decide read the
    full row. Because the cached columns are kept in ascending order, ties
    still go to the first index, so mappings and total_cost bits are those
    of a full scan of every row.

    Rounds of at most _SMALL_ROUND bidders, the single-bidder chain among
    them, bid one bidder at a time. This is exact: every bid of the round is
    taken at its starting prices before any price moves, each bid is the
    same float64 arithmetic as its vectorized form (a +0 or -0 second value
    gives the same increment), and walking the bidders in ascending order,
    replacing a kept bid only on a strictly greater increment, gives each
    contested item to the highest bid with ties to the smaller bidder index,
    as the lexsort of the wide rounds does.
    """
    n = _require_same_size(x1, x2)
    a = x1.points.astype(np.float64)
    b = x2.points.astype(np.float64)
    if n == 1:
        return Assignment(np.zeros(1, dtype=np.int64), float(np.linalg.norm(a[0] - b[0])), False)
    return _auction(a, b, np.zeros(n), 4.0, EPSILON_FINAL, 0)[0]


def _auction(a, b, prices, eps_divisor, eps_final, bids_used):
    """The auction of solve_auction() on at least two float64 coordinate
    rows, started from prices (updated in place) at epsilon max_cost /
    eps_divisor and ended at eps_final, with bids_used bids already spent
    from the budget. Returns the assignment, its final prices and the bids
    used in all."""
    n = len(a)
    if n <= DENSE_MATRIX_LIMIT:
        # Benefits are negated costs. Negation is exact, so every bid below
        # has the bits it would have if computed from -c row by row. Each
        # block is read and negated while it is still in cache.
        negc = np.empty((n, n))
        max_cost = 0.0
        for block in _distance_blocks(a, b, negc):
            max_cost = max(max_cost, float(block.max()))
            np.negative(block, out=block)

        def benefit_rows(rows):
            """Benefits of the bidders in rows: a fresh array for an index
            array, a view for a slice."""
            return negc[rows]

    else:
        rows_per_chunk = max(1, _CHUNK_ELEMENTS // n)
        max_cost = max(
            float(_distances(a[lo : lo + rows_per_chunk], b).max())
            for lo in range(0, n, rows_per_chunk)
        )

        def benefit_rows(rows):
            values = _distances(a[rows], b)
            return np.negative(values, out=values)

    if max_cost <= 0.0:
        # Every pairwise distance is zero: any bijection is optimal.
        mapping = np.arange(n, dtype=np.int64)
        return Assignment(mapping, 0.0, False), prices, bids_used

    # The bid cache (module docstring). An empty row's threshold is
    # infinite, so its first bid misses and fills it.
    m = _cache_width(n)
    cache_cols = np.zeros((n, m), dtype=np.int64)
    cache_benefits = np.zeros((n, m))
    threshold = np.full(n, np.inf)
    refill_rows = max(1, _CHUNK_ELEMENTS // 64 // n)
    ramp = np.arange(n)

    def bid(rows):
        """Best item and bid increment for each bidder in rows (an index
        array): from the cache where it decides the bid, else from the full
        row, in sub-blocks that bound the refill's scratch memory."""
        cols = cache_cols.take(rows, axis=0)
        values = cache_benefits.take(rows, axis=0)
        values -= prices.take(cols)
        r = ramp[: len(rows)]
        best = values.argmax(axis=1)
        best_item = cols[r, best]
        best_value = values[r, best]
        values[r, best] = -np.inf
        second_value = values[r, values.argmax(axis=1)]
        limit = threshold[rows]
        hit = (best_value > limit) & (second_value >= limit)
        if not hit.all():
            missed = (~hit).nonzero()[0]
            for lo in range(0, missed.size, refill_rows):
                at = missed[lo : lo + refill_rows]
                best_item[at], best_value[at], second_value[at] = bid_full_rows(rows[at])
        return best_item, best_value - second_value + eps

    def bid_full_rows(rows):
        """Best item, best and second net value of full rows; refills their
        caches on the way."""
        benefits = benefit_rows(rows)
        values = benefits - prices
        r = ramp[: len(rows)]
        top = np.argpartition(values, n - m - 1, axis=1)
        threshold[rows] = values[r, top[:, n - m - 1]]
        cols = np.sort(top[:, n - m :], axis=1)
        cache_cols[rows] = cols
        cache_benefits[rows] = benefits[r[:, None], cols]
        best_item = values.argmax(axis=1)
        best_value = values[r, best_item]
        values[r, best_item] = -np.inf
        return best_item, best_value, values[r, values.argmax(axis=1)]

    def bid_one(bidder):
        """bid() for one bidder, in scalar form. A miss refills the row as
        bid_full_rows() does, from a view of it (one distance row
        when matrix-free) rather than a gathered block."""
        cols = cache_cols[bidder]
        values = cache_benefits[bidder] - prices.take(cols)
        k = values.argmax()
        best_value = values[k]
        values[k] = -np.inf
        second_value = values[values.argmax()]
        limit = threshold[bidder]
        if best_value > limit and second_value >= limit:
            return int(cols[k]), best_value - second_value + eps
        benefits = benefit_rows(slice(bidder, bidder + 1))[0]
        values = benefits - prices
        top = values.argpartition(n - m - 1)
        threshold[bidder] = values[top[n - m - 1]]
        cols = top[n - m :]
        cols.sort()
        cache_cols[bidder] = cols
        cache_benefits[bidder] = benefits.take(cols)
        j = values.argmax()
        best_value = values[j]
        values[j] = -np.inf
        return int(j), best_value - values[values.argmax()] + eps

    def over_budget():
        return ConvergenceError(f"auction exceeded {MAX_BIDS} bids at epsilon {eps:g}")

    eps = max(max_cost / eps_divisor, eps_final)

    while True:
        item_of = np.full(n, -1, dtype=np.int64)  # bidder -> item
        owner = np.full(n, -1, dtype=np.int64)  # item -> bidder
        bidders = np.arange(n)
        while bidders.size > _SMALL_ROUND:
            u = bidders.size
            bids_used += u
            if bids_used > MAX_BIDS:
                raise over_budget()
            best_item, increment = bid(bidders)

            # Per contested item keep the highest bid, ties to the smaller
            # bidder index, so rounds are fully deterministic.
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
            bidders = np.flatnonzero(item_of < 0)

        # No round has more bidders than the one before it (each winner
        # displaces at most one owner), so the rest of the phase is small
        # rounds, with the lexsort rule above in scalar form (see docstring).
        bidders = bidders.tolist()
        while bidders:
            bids_used += len(bidders)
            if bids_used > MAX_BIDS:
                raise over_budget()
            kept = {}  # item -> (increment, bidder)
            for bidder in bidders:
                j, increment = bid_one(bidder)
                if j not in kept or increment > kept[j][0]:
                    kept[j] = (increment, bidder)
            displaced = []
            for j, (increment, bidder) in kept.items():
                prices[j] += increment
                previous = int(owner[j])
                if previous >= 0:
                    item_of[previous] = -1
                    displaced.append(previous)
                owner[j] = bidder
                item_of[bidder] = j
            bidders = sorted([bidder for bidder in bidders if item_of[bidder] < 0] + displaced)

        if eps <= eps_final:
            break
        eps = max(eps / _EPSILON_SCALING, eps_final)

    total = float(np.linalg.norm(a - b[item_of], axis=1).sum())
    return Assignment(item_of, total, False), prices, bids_used


def _warm_auction(x1: PointCloud, x2: PointCloud):
    """The auction started from prices lifted from a coarse solve (see the
    module docstring); returns what _auction() does, coarse bids counted."""
    n = _require_same_size(x1, x2)
    a = x1.points.astype(np.float64)
    b = x2.points.astype(np.float64)
    m = max(2, n // _COARSE_FACTOR)
    coarse_a = a[farthest_point_sample(x1, m, 0)]
    coarse_b = b[farthest_point_sample(x2, m, 0)]
    coarse_eps = EPSILON_FINAL * _COARSE_EPSILON_RATIO
    _, coarse_prices, bids = _auction(coarse_a, coarse_b, np.zeros(m), 4.0, coarse_eps, 0)
    # Nearest coarse item, in row blocks that bound the scratch memory.
    rows = max(1, _CHUNK_ELEMENTS // m)
    nearest = np.concatenate(
        [_distances(b[lo : lo + rows], coarse_b).argmin(axis=1) for lo in range(0, n, rows)]
    )
    prices = coarse_prices[nearest]
    prices -= prices.min()
    return _auction(a, b, prices, _WARM_EPSILON_DIVISOR, EPSILON_FINAL, bids)


def optimal_assignment(x1: PointCloud, x2: PointCloud) -> Assignment:
    """Entry point used by the mixer: exact up to (and including)
    EXACT_THRESHOLD points, the warm-started auction above it."""
    n = _require_same_size(x1, x2)
    if n <= EXACT_THRESHOLD:
        return solve_exact(x1, x2)
    return _warm_auction(x1, x2)[0]


def emd(x1: PointCloud, x2: PointCloud) -> float:
    """Earth Mover's Distance: mean displacement under the optimal assignment."""
    assignment = optimal_assignment(x1, x2)
    return assignment.total_cost / len(assignment)
