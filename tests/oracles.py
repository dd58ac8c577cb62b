"""Independent reference implementations used to check the real ones.

Everything here favors obviousness over speed: exhaustive enumeration,
linear scans, direct transcriptions of the defining formulas. Tests compare
library output against these on small inputs, and several frozen constants
in the test files were produced by running them once.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from pointcutmix.assignment import ConvergenceError, SolverConfig
from pointcutmix.core import Assignment, PartLabels, PointCloud, SaliencyWeights
from pointcutmix.ingest import ParseError


def cost(x1: PointCloud, i: int, x2: PointCloud, j: int) -> float:
    """||x1_i - x2_j|| as sqrt(dot(d, d)) in float64: the library's single-
    point auction cost, bit for bit."""
    d = x1.points[i].astype(np.float64) - x2.points[j].astype(np.float64)
    return float(np.sqrt(np.dot(d, d)))


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
    float64 expression as SpatialIndex.knn so results match bitwise."""
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


def reference_parse_ply(text) -> tuple[PointCloud, Optional[PartLabels], Optional[SaliencyWeights]]:
    """Frozen copy of parse_ply as first released: one Python float() per
    field, one row at a time. The library's parser must return the same
    arrays bit for bit, or raise the same exception with the same message,
    on every input outside the ones it deliberately rejects (non-integer or
    out-of-range labels, bad element counts, vertex list properties).

    Parse an ASCII PLY vertex cloud. Properties x, y, z are required;
    integer "label" and float "saliency" properties are picked up when
    present, other properties are ignored. Binary PLY is rejected."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError("line 1: not a PLY file (missing 'ply' magic)")

    n_vertices = None
    properties: list[str] = []
    in_vertex_element = False
    body_start = None
    for idx in range(1, len(lines)):
        line = lines[idx].strip()
        num = idx + 1
        if not line or line.startswith("comment"):
            continue
        if line == "end_header":
            body_start = idx + 1
            break
        fields = line.split()
        keyword = fields[0]
        if keyword == "format":
            if len(fields) < 2 or fields[1] != "ascii":
                kind = fields[1] if len(fields) > 1 else "?"
                raise ParseError(f"line {num}: unsupported PLY format {kind!r} (ASCII only)")
        elif keyword == "element":
            if len(fields) < 3:
                raise ParseError(f"line {num}: malformed element declaration")
            name, count = fields[1], int(fields[2])
            if name == "vertex":
                n_vertices = count
                in_vertex_element = True
            else:
                if count > 0:
                    raise ParseError(f"line {num}: unsupported element {name!r} with {count} entries")
                in_vertex_element = False
        elif keyword == "property":
            if in_vertex_element:
                if len(fields) < 3:
                    raise ParseError(f"line {num}: malformed property declaration")
                properties.append(fields[-1])
        elif keyword == "obj_info":
            continue
        else:
            raise ParseError(f"line {num}: unrecognized header keyword {keyword!r}")
    if body_start is None:
        raise ParseError(f"line {len(lines)}: PLY header never reaches end_header")
    if n_vertices is None:
        raise ParseError("PLY header declares no vertex element")
    for required in ("x", "y", "z"):
        if required not in properties:
            raise ParseError(f"PLY vertex element lacks required property {required!r}")

    columns = {name: i for i, name in enumerate(properties)}
    rows = np.empty((n_vertices, len(properties)), dtype=np.float64)
    filled = 0
    for idx in range(body_start, len(lines)):
        line = lines[idx].strip()
        if not line:
            continue
        if filled == n_vertices:
            raise ParseError(f"line {idx + 1}: more data rows than declared vertices")
        fields = line.split()
        if len(fields) < len(properties):
            raise ParseError(
                f"line {idx + 1}: expected {len(properties)} fields, found {len(fields)}"
            )
        try:
            rows[filled] = [float(f) for f in fields[: len(properties)]]
        except ValueError:
            raise ParseError(f"line {idx + 1}: non-numeric field") from None
        filled += 1
    if filled != n_vertices:
        raise ParseError(
            f"line {len(lines)}: expected {n_vertices} vertex rows, found {filled}"
        )

    cloud = PointCloud(
        rows[:, [columns["x"], columns["y"], columns["z"]]].astype(np.float32)
    )
    labels = None
    if "label" in columns:
        labels = PartLabels(rows[:, columns["label"]].astype(np.int32))
    saliency = None
    if "saliency" in columns:
        saliency = SaliencyWeights(rows[:, columns["saliency"]].astype(np.float32))
    return cloud, labels, saliency


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def reference_write_ply(
    cloud: PointCloud,
    parts: Optional[PartLabels] = None,
    saliency: Optional[SaliencyWeights] = None,
) -> str:
    """Frozen copy of write_ply as first released: one format() call per
    value. The library's writer must produce the same bytes.

    Serialize to ASCII PLY text (9 significant digits, lossless for the
    32-bit storage). Property order: x, y, z, then label, then saliency."""
    n = len(cloud)
    if parts is not None and len(parts.labels) != n:
        raise ValueError("part labels must match the cloud size")
    if saliency is not None and len(saliency.values) != n:
        raise ValueError("saliency weights must match the cloud size")
    header = ["ply", "format ascii 1.0", f"element vertex {n}"]
    header += ["property float x", "property float y", "property float z"]
    if parts is not None:
        header.append("property int label")
    if saliency is not None:
        header.append("property float saliency")
    header.append("end_header")

    out = header
    for i in range(n):
        fields = [_fmt(v) for v in cloud.points[i]]
        if parts is not None:
            fields.append(str(int(parts.labels[i])))
        if saliency is not None:
            fields.append(_fmt(saliency.values[i]))
        out.append(" ".join(fields))
    return "\n".join(out) + "\n"


def reference_write_xyz(cloud: PointCloud) -> str:
    """Frozen copy of write_xyz as first released."""
    return "\n".join(" ".join(_fmt(v) for v in p) for p in cloud.points) + "\n"
