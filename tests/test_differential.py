"""Differential tests: the solver, FPS and PLY I/O against frozen reference
copies.

The references in oracles.py are the released implementations. Any rewrite
of solve_auction or farthest_point_sample must reproduce them bit for bit
(mappings, total_cost, picked indices, convergence failures), so output
files stay byte-identical. Inputs stress tie rules: duplicate points and
lattice coordinates, where many distances are exactly equal.

The PLY writers must emit the reference bytes, and parse_ply must return the
reference arrays bit for bit or raise the reference exception with the same
message, on written files and on mutations of them: blank lines, CR and CRLF
line ends, tabs, extra fields, exotic separators, odd numeric tokens,
non-finite values, truncated bodies and surplus rows.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pointcutmix import assignment
from pointcutmix.assignment import ConvergenceError, SolverConfig, solve_auction
from pointcutmix.core import PartLabels, PointCloud, SaliencyWeights
from pointcutmix.ingest import farthest_point_sample, parse_ply, write_ply, write_xyz

from conftest import FIXTURES
from oracles import (
    reference_auction,
    reference_fps,
    reference_parse_ply,
    reference_write_ply,
    reference_write_xyz,
)

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


F32_MAX = float(np.finfo(np.float32).max)
SPECIAL_FLOATS = [0.0, -0.0, 1e-45, -1e-45, 1e-40, 1.1754942e-38, 1e-8, -1e-8, 3.4e38,
                  F32_MAX, -F32_MAX, 0.1, -1.5, 123456.79]


def float32s(finite: bool):
    return st.sampled_from(SPECIAL_FLOATS) | st.floats(
        width=32, allow_nan=not finite, allow_infinity=not finite
    )


@st.composite
def ply_inputs(draw, max_n=40):
    """A cloud (special values, subnormals, +-float32 max, and non-finite
    coordinates) with optional int32 labels and optional saliency."""
    n = draw(st.integers(0, max_n))
    points = draw(hnp.arrays(np.float32, (n, 3), elements=float32s(finite=False)))
    parts = draw(st.none() | hnp.arrays(np.int32, n).map(PartLabels))
    saliency = draw(st.none() | hnp.arrays(np.float32, n, elements=float32s(finite=True))
                    .map(SaliencyWeights))
    return PointCloud(points), parts, saliency


@PROPERTY
@given(ply_inputs())
def test_write_ply_matches_reference(inputs):
    assert write_ply(*inputs) == reference_write_ply(*inputs)


@PROPERTY
@given(ply_inputs())
def test_write_xyz_matches_reference(inputs):
    cloud = inputs[0]
    assert write_xyz(cloud) == reference_write_xyz(cloud)


# Mutation vocabulary. Tokens that may land in the label column are integral
# or non-numeric: non-integer and out-of-range labels are rejected on purpose
# (test_ingest.py), so they lie outside what must match the reference.
ODD_TOKENS = ["1_0", "1__0", "_1", "1_", "\u0661", "\u0663.\u0665", "0x1", "1.5.2", "+", "e5",
              "abc", "#", "1,5", "--1", "\x00", "\u22121"]
LABEL_SAFE_TOKENS = ["1_0", "1__0", "_1", "\u0661", "\u0662\u0663", "1e3", "-0", "abc", "#"]
NON_FINITE = ["nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "1e500", "-1e500", "1e39"]
EXTRA_FIELDS = ["0", "7", "-3", "1e3", "x", "#", "\u0661"]
SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
              "\u2028", "\u3000"]
BLANKS = ["", " ", "\t", " \t ", "\u3000"]
MUTATIONS = ["blank_lines", "crlf", "tabs", "extra_fields", "ragged_fields", "separators",
             "odd_tokens", "non_finite", "truncated", "surplus_rows"]


@st.composite
def ply_texts(draw, mutations):
    """Reference-written PLY text with the named mutations applied to its
    body, as str or UTF-8 bytes."""
    cloud, parts, saliency = draw(ply_inputs(max_n=25))
    lines = reference_write_ply(cloud, parts, saliency).split("\n")[:-1]
    body_at = lines.index("end_header") + 1
    header, rows = lines[:body_at], [line.split(" ") for line in lines[body_at:]]
    width = len(rows[0]) if rows else 3
    label_col = 3 if parts is not None else None

    def some_rows(min_size=0):
        if not rows:
            return []
        return draw(st.lists(st.integers(0, len(rows) - 1), min_size=min_size, max_size=3))

    if "odd_tokens" in mutations:
        for i in some_rows(1):
            col = draw(st.integers(0, width - 1))
            rows[i][col] = draw(st.sampled_from(LABEL_SAFE_TOKENS if col == label_col else ODD_TOKENS))
    if "non_finite" in mutations:
        for i in some_rows(1):
            col = draw(st.sampled_from([c for c in range(width) if c != label_col]))
            rows[i][col] = draw(st.sampled_from(NON_FINITE))
    if "extra_fields" in mutations:
        extra = draw(st.lists(st.sampled_from(EXTRA_FIELDS), min_size=1, max_size=3))
        rows = [row + extra for row in rows]
    if "ragged_fields" in mutations:
        for i in some_rows(1):
            rows[i] = rows[i] + draw(st.lists(st.sampled_from(EXTRA_FIELDS), min_size=1, max_size=5))
    if "separators" in mutations:
        # Joins two neighbouring fields with a character that str.split()
        # treats as whitespace and, for some, str.splitlines() as a line end.
        for i in some_rows(1):
            if len(rows[i]) > 1:
                j = draw(st.integers(0, len(rows[i]) - 2))
                rows[i][j : j + 2] = [rows[i][j] + draw(st.sampled_from(SEPARATORS)) + rows[i][j + 1]]
    if "surplus_rows" in mutations and rows:
        rows += [list(rows[i]) for i in some_rows(1)]
    if "blank_lines" in mutations:
        for _ in range(draw(st.integers(1, 3))):
            rows.insert(draw(st.integers(0, len(rows))), [draw(st.sampled_from(BLANKS))])
    sep, eol = " ", "\n"
    if "tabs" in mutations:
        sep = draw(st.sampled_from(["\t", " \t", "  ", "\t\t"]))
        for i in some_rows():
            rows[i] = [draw(st.sampled_from(["", " "]))] + rows[i] + [draw(st.sampled_from(["", "\t"]))]
    if "crlf" in mutations:
        eol = draw(st.sampled_from(["\r\n", "\r"]))
    text = eol.join(header + [sep.join(row) for row in rows]) + eol
    if "truncated" in mutations:
        body_offset = len(eol.join(header)) + len(eol)
        text = text[: draw(st.integers(body_offset, max(body_offset, len(text) - 1)))]
    return text.encode("utf-8") if draw(st.booleans()) else text


def parse_outcome(parse, text):
    """Dtype, shape and bytes of each parsed array (None when absent), or
    the exception type and message."""
    try:
        cloud, parts, saliency = parse(text)
    except ValueError as exc:
        return (type(exc).__name__, str(exc))
    arrays = (cloud.points, None if parts is None else parts.labels,
              None if saliency is None else saliency.values)
    return tuple(None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("mutations", [[]] + [[m] for m in MUTATIONS] + [MUTATIONS],
                         ids=["none"] + MUTATIONS + ["all"])
@PROPERTY
@given(data=st.data())
def test_parse_ply_matches_reference(mutations, data):
    text = data.draw(ply_texts(mutations))
    assert parse_outcome(parse_ply, text) == parse_outcome(reference_parse_ply, text)
