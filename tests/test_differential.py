"""Differential tests: the solver, FPS and PLY I/O against frozen reference
copies.

The references in oracles.py are the released implementations. Any rewrite
of solve_auction or farthest_point_sample must reproduce them bit for bit
(mappings, total_cost, picked indices, convergence failures), so output
files stay byte-identical. Inputs stress tie rules: duplicate points and
lattice coordinates, where many distances are exactly equal. The auction's
bid cache is also run at widths of 2 to 5 items, where nearly every bid
misses, refills or ties at the cache threshold, and the scalar bid path of
small rounds on the single-bidder chain alone and on every round.

The solver's numpy distance kernel must return scipy's cdist bit for bit on
float32-valued inputs, extremes and duplicates included, for any row block
size.

The PLY writers must emit the reference bytes, and parse_ply must return the
reference arrays bit for bit or raise the reference exception with the same
message, on written files and on mutations of them: blank lines, CR and CRLF
line ends, tabs, extra fields, exotic separators, odd numeric tokens,
non-finite values, truncated bodies and surplus rows.

parse_xyz and parse_off must return the reference arrays bit for bit, or
raise a ParseError naming the same line, or the same exception type, on
written XYZ files and generated OFF meshes under the same mutations, plus
# comment lines and trailing comments, the fused "OFFn m k" header, quads
and mixed bodies, unsupported arities, short face rows, odd integer tokens,
out-of-range indices, values past float32, off-by-a-few counts and lines
after the faces.

One outcome differs from the PLY and XYZ references on purpose: where a
reference returns a coordinate that is not finite as float32, or rejects a
non-finite saliency without a line, the parsers raise a ParseError naming
the line of the first such body row.
"""

import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from pointcutmix import assignment
from pointcutmix.assignment import ConvergenceError, solve_auction
from pointcutmix.core import PartLabels, PointCloud, SaliencyWeights
from pointcutmix.ingest import (
    ParseError,
    farthest_point_sample,
    parse_off,
    parse_ply,
    parse_xyz,
    write_ply,
    write_xyz,
)

from conftest import FIXTURES
from oracles import (
    reference_auction,
    reference_fps,
    reference_parse_off,
    reference_parse_ply,
    reference_parse_xyz,
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


@st.composite
def distance_inputs(draw):
    """Two float32-valued point sets of 1 to 12 rows (+-0, subnormals and
    +-float32 max among the values), as float64; b is either independent or
    made of rows of a (duplicates, zero distances)."""
    values = float32s(finite=True)
    a = draw(hnp.arrays(np.float32, (draw(st.integers(1, 12)), 3), elements=values))
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        b = a[draw(st.lists(st.integers(0, len(a) - 1), min_size=n, max_size=n))]
    else:
        b = draw(hnp.arrays(np.float32, (n, 3), elements=values))
    return a.astype(np.float64), b.astype(np.float64)


@settings(PROPERTY, max_examples=300)
@given(distance_inputs(), st.integers(1, 40))
def test_distance_kernel_matches_cdist(pair, block_elements):
    a, b = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assignment, "_BLOCK_ELEMENTS", block_elements)
        got = assignment._distances(a, b)
    assert got.shape == (len(a), len(b))
    assert got.tobytes() == cdist(a, b).tobytes()


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
    limit = assignment.DENSE_MATRIX_LIMIT if dense else 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assignment, "DENSE_MATRIX_LIMIT", limit)
        mp.setattr(assignment, "MAX_BIDS", budget)
        got = outcome(solve_auction, a, b)
    assert got == outcome(reference_auction, a, b, max_bids=budget, dense_limit=limit)


def test_auction_matches_reference_on_fixtures_at_1024():
    with open(os.path.join(FIXTURES, "chair.ply")) as fh:
        chair, _, _ = parse_ply(fh.read())
    with open(os.path.join(FIXTURES, "airplane.ply")) as fh:
        plane, _, _ = parse_ply(fh.read())
    assert len(chair) == len(plane) == 1024
    assert outcome(solve_auction, chair, plane) == outcome(reference_auction, chair, plane)


# The bid cache at widths of 2 to 5 items: nearly every bid then misses,
# refills or meets a tie at the cache threshold.
def narrow_cache(mp, width):
    mp.setattr(assignment, "_cache_width", lambda n: min(width, n - 1))


@PROPERTY
@given(cloud_pairs(), st.integers(2, 5))
def test_auction_narrow_cache_dense_matches_reference(pair, width):
    a, b = pair
    with pytest.MonkeyPatch.context() as mp:
        narrow_cache(mp, width)
        got = outcome(solve_auction, a, b)
    assert got == outcome(reference_auction, a, b)


@PROPERTY
@given(cloud_pairs(max_n=120), st.integers(2, 5))
def test_auction_narrow_cache_matrix_free_matches_reference(pair, width):
    a, b = pair
    n = len(a)
    chunk = n * (1 + n % 7)  # 1 to 7 rows per block
    with pytest.MonkeyPatch.context() as mp:
        narrow_cache(mp, width)
        mp.setattr(assignment, "DENSE_MATRIX_LIMIT", 1)
        mp.setattr(assignment, "_CHUNK_ELEMENTS", chunk)
        got = outcome(solve_auction, a, b)
    assert got == outcome(reference_auction, a, b, dense_limit=1, chunk_elements=chunk)


@PROPERTY
@given(cloud_pairs(max_n=80), st.integers(1, 2000), st.booleans(), st.integers(2, 5))
def test_auction_narrow_cache_bid_budget_matches_reference(pair, budget, dense, width):
    a, b = pair
    limit = assignment.DENSE_MATRIX_LIMIT if dense else 1
    with pytest.MonkeyPatch.context() as mp:
        narrow_cache(mp, width)
        mp.setattr(assignment, "DENSE_MATRIX_LIMIT", limit)
        mp.setattr(assignment, "MAX_BIDS", budget)
        got = outcome(solve_auction, a, b)
    assert got == outcome(reference_auction, a, b, max_bids=budget, dense_limit=limit)


@pytest.fixture(scope="module")
def fixtures_1024():
    """chair/airplane at N = 1024 and the reference outcome of their solve."""
    with open(os.path.join(FIXTURES, "chair.ply")) as fh:
        chair, _, _ = parse_ply(fh.read())
    with open(os.path.join(FIXTURES, "airplane.ply")) as fh:
        plane, _, _ = parse_ply(fh.read())
    return chair, plane, outcome(reference_auction, chair, plane)


@pytest.mark.parametrize("width", [2, 3, None])
def test_auction_cache_widths_match_reference_on_fixtures_at_1024(fixtures_1024, width, monkeypatch):
    chair, plane, expected = fixtures_1024
    if width is not None:
        narrow_cache(monkeypatch, width)
    else:
        assert assignment._cache_width(len(chair)) == assignment._CACHE_WIDTH
    assert outcome(solve_auction, chair, plane) == expected


# The scalar bid path. A small-round limit of 1 leaves it only the
# single-bidder chain; a limit of at least n gives it every round, the full
# first round of each phase included.
def small_rounds(mp, every_round, width):
    mp.setattr(assignment, "_SMALL_ROUND", 1 << 30 if every_round else 1)
    if width is not None:
        narrow_cache(mp, width)


widths = st.one_of(st.none(), st.integers(2, 5))


@PROPERTY
@given(cloud_pairs(), st.booleans(), widths)
def test_auction_small_rounds_dense_match_reference(pair, every_round, width):
    a, b = pair
    with pytest.MonkeyPatch.context() as mp:
        small_rounds(mp, every_round, width)
        got = outcome(solve_auction, a, b)
    assert got == outcome(reference_auction, a, b)


@PROPERTY
@given(cloud_pairs(max_n=120), st.booleans(), widths)
def test_auction_small_rounds_matrix_free_match_reference(pair, every_round, width):
    a, b = pair
    n = len(a)
    chunk = n * (1 + n % 7)  # 1 to 7 rows per block
    with pytest.MonkeyPatch.context() as mp:
        small_rounds(mp, every_round, width)
        mp.setattr(assignment, "DENSE_MATRIX_LIMIT", 1)
        mp.setattr(assignment, "_CHUNK_ELEMENTS", chunk)
        got = outcome(solve_auction, a, b)
    assert got == outcome(reference_auction, a, b, dense_limit=1, chunk_elements=chunk)


@PROPERTY
@given(cloud_pairs(max_n=80), st.integers(1, 2000), st.booleans(), st.booleans(), widths)
def test_auction_small_rounds_bid_budget_matches_reference(pair, budget, dense, every_round, width):
    a, b = pair
    limit = assignment.DENSE_MATRIX_LIMIT if dense else 1
    with pytest.MonkeyPatch.context() as mp:
        small_rounds(mp, every_round, width)
        mp.setattr(assignment, "DENSE_MATRIX_LIMIT", limit)
        mp.setattr(assignment, "MAX_BIDS", budget)
        got = outcome(solve_auction, a, b)
    assert got == outcome(reference_auction, a, b, max_bids=budget, dense_limit=limit)


@pytest.mark.parametrize("kind", ["lattice", "duplicates"])
@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_auction_small_round_refills_break_ties_like_reference(kind, width, monkeypatch):
    # Many columns tie at the top of a refilled row, more than the cache
    # holds: the bid must still take the first of them from the full row.
    rng = np.random.default_rng(width)
    a, b = PointCloud(draw_points(rng, 60, kind)), PointCloud(draw_points(rng, 60, kind))
    small_rounds(monkeypatch, True, width)
    monkeypatch.setattr(assignment, "MAX_BIDS", 100_000)
    expected = outcome(reference_auction, a, b, max_bids=100_000)
    assert expected[0] != "ConvergenceError"
    assert outcome(solve_auction, a, b) == expected


@pytest.mark.parametrize(
    "every_round, width, dense",
    [(False, None, True), (True, None, True), (False, 2, True), (True, 3, True), (True, None, False)],
)
def test_auction_small_rounds_match_reference_on_fixtures_at_1024(
    fixtures_1024, every_round, width, dense, monkeypatch
):
    chair, plane, expected = fixtures_1024
    small_rounds(monkeypatch, every_round, width)
    if not dense:
        monkeypatch.setattr(assignment, "DENSE_MATRIX_LIMIT", 1)
    assert outcome(solve_auction, chair, plane) == expected


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
# The separators str.splitlines() takes for line ends ("\x0b", "\x0c",
# "\x1c"-"\x1e", "\x85", "\u2028", "\u2029") are left out: parse_ply ends
# lines only at "\n", "\r\n" and "\r" on purpose (test_ingest.py).
SEPARATORS = ["\x1f", "\xa0", "\u3000"]
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
        # treats as whitespace.
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


F32_LIMIT = 2.0**128 - 2.0**103  # the smallest float64 that rounds to float32 inf


def first_non_finite32(text, columns, comments=False):
    """The ParseError message for the first body value that is not finite as
    float32, in row order, among columns (name -> field index), or None.
    Body rows are the non-blank lines after end_header if the text has one,
    else every line that is neither blank nor, with comments, a # line."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    lines = re.split("\r\n|\r|\n", text)
    start = lines.index("end_header") + 1 if "end_header" in lines else 0
    for num, line in enumerate(lines[start:], start + 1):
        fields = line.split()
        if not fields or comments and fields[0][0] == "#":
            continue
        for name, j in columns.items():
            value = float(fields[j])
            if not abs(value) < F32_LIMIT:
                return f"line {num}: {name} {value!r} is not finite as float32"
    return None


def ply_columns(text):
    """Field index of x, y, z and saliency in a reference-written PLY body."""
    header = (text.decode("utf-8", errors="replace") if isinstance(text, bytes) else text).split("end_header")[0]
    properties = [line.split()[-1] for line in re.split("\r\n|\r|\n", header) if line.startswith("property")]
    return {name: properties.index(name) for name in ("x", "y", "z", "saliency") if name in properties}


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("mutations", [[]] + [[m] for m in MUTATIONS] + [MUTATIONS],
                         ids=["none"] + MUTATIONS + ["all"])
@PROPERTY
@given(data=st.data())
def test_parse_ply_matches_reference(mutations, data):
    text = data.draw(ply_texts(mutations))
    expected = parse_outcome(reference_parse_ply, text)
    if expected[0] != "ParseError":  # arrays, or the saliency ValueError
        message = first_non_finite32(text, ply_columns(text))
        expected = expected if message is None else ("ParseError", message)
    assert parse_outcome(parse_ply, text) == expected


def first_error_line_or_arrays(parse, text):
    """Dtype, shape and bytes of each returned array; for a ParseError, the
    line it names; for any other exception, its type."""
    try:
        result = parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc).split(":", 1)[0])
    except Exception as exc:
        return (type(exc).__name__,)
    arrays = (result.points,) if isinstance(result, PointCloud) else (result.vertices, result.faces)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


COMMENTS = ["#", "# made by a tool", "#1 2 3", "  # 3 0 1 2"]
# Both sides of the float32 overflow edge: the first two round to inf, the
# last two to float32 max.
FLOAT32_EDGE = [repr(F32_LIMIT), repr(-F32_LIMIT), repr(np.nextafter(F32_LIMIT, 0.0)), "3.40282357e38"]


def mutate_rows(draw, rows, mutations, width, tokens, some_rows):
    """Applies the row mutations shared by XYZ and OFF bodies in place:
    odd tokens, non-finite values and the float32 overflow edge, extra and
    ragged fields, exotic separators and trailing comments."""
    if "odd_tokens" in mutations:
        for i in some_rows(1):
            rows[i][draw(st.integers(0, width - 1))] = draw(st.sampled_from(tokens))
    if "non_finite" in mutations:
        for i in some_rows(1):
            rows[i][draw(st.integers(0, width - 1))] = draw(st.sampled_from(NON_FINITE + FLOAT32_EDGE))
    if "extra_fields" in mutations:
        extra = draw(st.lists(st.sampled_from(EXTRA_FIELDS), min_size=1, max_size=3))
        rows[:] = [row + extra for row in rows]
    if "ragged_fields" in mutations:
        for i in some_rows(1):
            rows[i] += draw(st.lists(st.sampled_from(EXTRA_FIELDS), min_size=1, max_size=5))
    if "separators" in mutations:
        for i in some_rows(1):
            if len(rows[i]) > 1:
                j = draw(st.integers(0, len(rows[i]) - 2))
                rows[i][j : j + 2] = [rows[i][j] + draw(st.sampled_from(SEPARATORS)) + rows[i][j + 1]]
    if "comments" in mutations:
        for i in some_rows(1):
            rows[i] += [draw(st.sampled_from(COMMENTS))]


def join_lines(draw, lines, mutations, keep=0):
    """The lines as text after the line mutations shared by XYZ and OFF:
    blank and # comment lines inserted anywhere, tabs, CR or CRLF line
    ends, and truncation after the first keep lines; as str or UTF-8 bytes."""
    lines = [list(line) for line in lines]
    for name, pool in (("blank_lines", BLANKS), ("comments", COMMENTS)):
        if name in mutations:
            for _ in range(draw(st.integers(1, 3))):
                lines.insert(draw(st.integers(0, len(lines))), [draw(st.sampled_from(pool))])
    sep, eol = " ", "\n"
    if "tabs" in mutations:
        sep = draw(st.sampled_from(["\t", " \t", "  ", "\t\t"]))
        for i in draw(st.lists(st.integers(0, max(0, len(lines) - 1)), max_size=3)) if lines else []:
            lines[i] = [draw(st.sampled_from(["", " "]))] + lines[i] + [draw(st.sampled_from(["", "\t"]))]
    if "crlf" in mutations:
        eol = draw(st.sampled_from(["\r\n", "\r"]))
    text = eol.join(sep.join(line) for line in lines) + eol
    if "truncated" in mutations:
        offset = len(eol.join(sep.join(line) for line in lines[:keep]))
        text = text[: draw(st.integers(offset, max(offset, len(text) - 1)))]
    return text.encode("utf-8") if draw(st.booleans()) else text


def row_picker(draw, rows):
    def some_rows(min_size=0):
        if not rows:
            return []
        return draw(st.lists(st.integers(0, len(rows) - 1), min_size=min_size, max_size=3))

    return some_rows


XYZ_MUTATIONS = ["blank_lines", "comments", "crlf", "tabs", "extra_fields", "ragged_fields",
                 "separators", "odd_tokens", "non_finite", "truncated", "surplus_rows"]


@st.composite
def xyz_texts(draw, mutations):
    """write_xyz text of a cloud with the named mutations applied."""
    points = draw(hnp.arrays(np.float32, (draw(st.integers(0, 25)), 3), elements=float32s(finite=False)))
    rows = [line.split(" ") for line in write_xyz(PointCloud(points)).split("\n")[:-1]]
    if not len(points):
        rows = []  # write_xyz of no points is one empty line
    some_rows = row_picker(draw, rows)
    mutate_rows(draw, rows, mutations, 3, ODD_TOKENS, some_rows)
    if "surplus_rows" in mutations:
        rows += [list(rows[i]) for i in some_rows(1)]
    return join_lines(draw, rows, mutations)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("mutations", [[]] + [[m] for m in XYZ_MUTATIONS] + [XYZ_MUTATIONS],
                         ids=["none"] + XYZ_MUTATIONS + ["all"])
@PROPERTY
@given(data=st.data())
def test_parse_xyz_matches_reference(mutations, data):
    text = data.draw(xyz_texts(mutations))
    expected = first_error_line_or_arrays(reference_parse_xyz, text)
    if expected[0] != "ParseError":
        message = first_non_finite32(text, {"x": 0, "y": 1, "z": 2}, comments=True)
        expected = expected if message is None else ("ParseError", message.split(":", 1)[0])
    assert first_error_line_or_arrays(parse_xyz, text) == expected


# Face-row vocabulary: integer spellings int() accepts and np.loadtxt does
# not (or the reverse), and indices outside the vertices or past int64.
FACE_TOKENS = ["1.0", "1_0", "+1", "-0", "007", "\u0661", str(2**63), str(-(2**63) - 1), "1e0", "x"]
TRAILING = ["garbage", "3 0 1", "nan nan nan", "4 0 1 2 3", "#", "OFF"]
OFF_MUTATIONS = ["blank_lines", "comments", "crlf", "tabs", "extra_fields", "ragged_fields",
                 "separators", "odd_tokens", "non_finite", "truncated", "surplus_rows",
                 "fused_header", "counts", "quads", "arity", "short_faces", "face_tokens",
                 "bad_indices", "trailing"]


@st.composite
def off_texts(draw, mutations):
    """OFF text written as perfbench/gen.py writes meshes (9-digit vertex
    rows, then "3 a b c" rows), with the named mutations applied. Declared
    counts stay within a few rows of the body."""
    vertices = draw(hnp.arrays(np.float32, (draw(st.integers(0, 12)), 3), elements=float32s(finite=True)))
    n_v = len(vertices)
    index = st.integers(0, max(0, n_v - 1))
    faces = [[3] + draw(st.lists(index, min_size=3, max_size=3)) for _ in range(draw(st.integers(0, 12)) if n_v else 0)]
    v_rows = [[format(float(x), ".9g") for x in row] for row in vertices]
    f_rows = [[str(i) for i in face] for face in faces]
    some_v, some_f = row_picker(draw, v_rows), row_picker(draw, f_rows)

    if "quads" in mutations:  # some rows or every row
        for i in range(len(f_rows)) if draw(st.booleans()) else some_f(1):
            f_rows[i] = ["4"] + f_rows[i][1:] + [str(draw(index))]
    if "arity" in mutations:
        for i in some_f(1):
            arity = draw(st.sampled_from([0, 1, 2, 5, -1, 3, 4]))
            f_rows[i] = [str(arity)] + [str(draw(index)) for _ in range(draw(st.integers(0, 6)))]
    if "short_faces" in mutations:
        for i in some_f(1):
            f_rows[i] = f_rows[i][: draw(st.integers(1, max(1, len(f_rows[i]) - 1)))]
    if "face_tokens" in mutations:
        for i in some_f(1):
            f_rows[i][draw(st.integers(0, len(f_rows[i]) - 1))] = draw(st.sampled_from(FACE_TOKENS))
    if "bad_indices" in mutations:
        for i in some_f(1):
            bad = draw(st.sampled_from([-1, n_v, n_v + 5, -n_v - 1]))
            k = draw(st.integers(1, max(1, len(f_rows[i]) - 1)))
            f_rows[i][k : k + 1] = [str(bad)]
    mutate_rows(draw, v_rows, mutations, 3, ODD_TOKENS, some_v)
    for name in ("extra_fields", "ragged_fields", "separators", "comments"):
        if name in mutations:
            mutate_rows(draw, f_rows, [name], 4, FACE_TOKENS, some_f)
    if "surplus_rows" in mutations:
        v_rows += [list(v_rows[i]) for i in some_v(1)]
        f_rows += [list(f_rows[i]) for i in some_f(1)]

    counts = [len(vertices), len(faces), 0]
    if "counts" in mutations:
        counts = [max(-1, c + draw(st.integers(-2, 2))) for c in counts[:2]] + [0]
        counts = counts[: draw(st.sampled_from([2, 3, 3, 3]))]
    counts = " ".join(map(str, counts))
    header = [["OFF"], [counts]]
    if "fused_header" in mutations:
        header = [[draw(st.sampled_from(["OFF", "OFF "])) + counts]]
    trailing = []
    if "trailing" in mutations:
        trailing = [[t] for t in draw(st.lists(st.sampled_from(TRAILING), min_size=1, max_size=3))]
    return join_lines(draw, header + v_rows + f_rows + trailing, mutations, keep=len(header) - 1)


@pytest.mark.parametrize("mutations", [[]] + [[m] for m in OFF_MUTATIONS] + [OFF_MUTATIONS],
                         ids=["none"] + OFF_MUTATIONS + ["all"])
@PROPERTY
@given(data=st.data())
def test_parse_off_matches_reference(mutations, data):
    text = data.draw(off_texts(mutations))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert first_error_line_or_arrays(parse_off, text) == first_error_line_or_arrays(reference_parse_off, text)
