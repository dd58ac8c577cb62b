import itertools
import re
import warnings

import numpy as np
import pytest

from pointcutmix import ingest
from pointcutmix.core import PartLabels, PointCloud, SaliencyWeights
from pointcutmix.ingest import (
    ParseError,
    TriangleMesh,
    equalize_indices,
    farthest_point_sample,
    normalize_unit_sphere,
    parse_off,
    parse_ply,
    parse_xyz,
    sample_surface,
    write_ply,
    write_xyz,
)
from pointcutmix.neighbors import build_index
from pointcutmix.rng import make_stream

from conftest import random_cloud
from oracles import linear_scan_knn, reference_fps

MINIMAL_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"


# --- OFF ----------------------------------------------------------------------


def test_parse_off_minimal():
    mesh = parse_off(MINIMAL_OFF)
    assert mesh.vertices.shape == (3, 3)
    assert mesh.faces.shape == (1, 3)
    assert list(mesh.faces[0]) == [0, 1, 2]


def test_parse_off_fused_header():
    mesh = parse_off("OFF3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert mesh.vertices.shape == (3, 3)


def test_parse_off_accepts_bytes():
    assert parse_off(MINIMAL_OFF.encode()).vertices.shape == (3, 3)


def test_parse_off_quad_fan():
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    mesh = parse_off(text)
    assert mesh.faces.shape == (2, 3)
    assert list(mesh.faces[0]) == [0, 1, 2]
    assert list(mesh.faces[1]) == [0, 2, 3]


def test_parse_off_missing_vertex_line_names_line():
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n"
    with pytest.raises(ParseError, match="line 5"):
        parse_off(text)


def test_parse_off_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        parse_off("PLY\n3 1 0\n")


def test_parse_off_non_finite_vertex():
    text = "OFF\n3 1 0\n0 0 0\nnan 0 0\n0 1 0\n3 0 1 2\n"
    with pytest.raises(ParseError, match="line 4"):
        parse_off(text)


def test_parse_off_rejects_big_faces():
    text = "OFF\n5 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n2 2 0\n5 0 1 2 3 4\n"
    with pytest.raises(ParseError, match="arity"):
        parse_off(text)


def test_parse_off_face_index_out_of_range():
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n"
    with pytest.raises(ParseError, match="^line 6: "):
        parse_off(text)


@pytest.mark.parametrize("index", ["-1", "4", str(2**63), str(-(2**63) - 1)])
@pytest.mark.parametrize("face", ["3 0 {} 2", "4 0 1 2 {}"], ids=["triangle", "quad"])
def test_parse_off_face_index_outside_the_vertices_names_line(face, index):
    """Checked as read: an index past int64 never reaches an int64 array,
    where it would raise OverflowError and abort a batch."""
    text = "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n" + face.format(index) + "\n"
    with pytest.raises(ParseError, match="^line 8: face references a vertex index out of range$"):
        parse_off(text)


def test_parse_off_huge_vertex_count_is_a_parse_error():
    """A declared count far beyond the body is reported, not allocated: an
    array of 10**12 rows would raise MemoryError, which aborts a batch."""
    with pytest.raises(ParseError, match="^line 3: "):
        parse_off("OFF\n1000000000000 0 0\n")


def test_parse_off_vertex_past_float32_names_line():
    text = "OFF\n3 1 0\n0 0 0\n1e39 0 0\n0 1 0\n3 0 1 2\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="^line 4: "):
            parse_off(text)


@pytest.mark.parametrize(
    "body, line",
    [("0 0 0\n1e39 0 0\n0 1 0\n", 4), ("0 0 0\n# next\n1e39 0 0\n0 1 0\n", 5)],
    ids=["loadtxt-block", "block-with-comment"],
)
def test_parse_off_names_value_not_finite_as_float32(body, line):
    """OFF says what PLY and XYZ say of such a value, by either reader."""
    with pytest.raises(ParseError, match=rf"^line {line}: x 1e\+39 is not finite as float32$"):
        parse_off("OFF\n3 1 0\n" + body + "3 0 1 2\n")


def test_parse_off_skips_comments_and_blanks():
    text = "# comment\nOFF\n\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n# faces\n3 0 1 2\n"
    assert parse_off(text).faces.shape == (1, 3)


def test_triangle_mesh_validation():
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 2)), np.zeros((1, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))


# --- PLY ----------------------------------------------------------------------


def test_ply_round_trip_points_only():
    rng = np.random.default_rng(60)
    cloud = random_cloud(rng, 100)
    parsed, labels, saliency = parse_ply(write_ply(cloud))
    assert np.array_equal(parsed.points.view(np.uint32), cloud.points.view(np.uint32))
    assert labels is None and saliency is None


def test_ply_round_trip_with_label_and_saliency():
    rng = np.random.default_rng(61)
    cloud = random_cloud(rng, 40)
    parts = PartLabels(rng.integers(0, 6, size=40).astype(np.int32))
    weights = SaliencyWeights(rng.standard_normal(40).astype(np.float32))
    text = write_ply(cloud, parts, weights)
    parsed, labels, saliency = parse_ply(text)
    assert np.array_equal(parsed.points.view(np.uint32), cloud.points.view(np.uint32))
    assert np.array_equal(labels.labels, parts.labels)
    assert np.array_equal(saliency.values.view(np.uint32), weights.values.view(np.uint32))


def test_ply_writer_header_order():
    cloud = PointCloud(np.zeros((1, 3), dtype=np.float32))
    text = write_ply(cloud, PartLabels(np.zeros(1, dtype=np.int32)),
                     SaliencyWeights(np.zeros(1, dtype=np.float32)))
    lines = text.splitlines()
    props = [l for l in lines if l.startswith("property")]
    assert props == [
        "property float x",
        "property float y",
        "property float z",
        "property int label",
        "property float saliency",
    ]
    assert lines[0] == "ply"
    assert "format ascii 1.0" in lines


def test_ply_rejects_binary():
    text = "ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n"
    with pytest.raises(ParseError, match="binary"):
        parse_ply(text)


def test_ply_requires_xyz():
    text = (
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nend_header\n0 0\n"
    )
    with pytest.raises(ParseError, match="'z'"):
        parse_ply(text)


def test_ply_missing_magic():
    with pytest.raises(ParseError, match="line 1"):
        parse_ply("not a ply\n")


def test_ply_row_count_mismatch():
    text = (
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n"
    )
    with pytest.raises(ParseError, match="expected 2 vertex rows"):
        parse_ply(text)


def test_ply_extra_property_columns_ignored():
    text = (
        "ply\nformat ascii 1.0\ncomment extras\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float confidence\nend_header\n1 2 3 0.5\n"
    )
    cloud, labels, saliency = parse_ply(text)
    assert np.allclose(cloud.points, [[1, 2, 3]])
    assert labels is None and saliency is None


def test_ply_respects_declared_property_order():
    text = (
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property int label\nproperty float z\nproperty float y\nproperty float x\n"
        "end_header\n7 3 2 1\n"
    )
    cloud, labels, _ = parse_ply(text)
    assert np.allclose(cloud.points, [[1, 2, 3]])
    assert labels.labels[0] == 7


def test_ply_short_row_names_line():
    text = (
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n1 2\n"
    )
    with pytest.raises(ParseError, match="line 8"):
        parse_ply(text)


LABELED_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex {n}\n"
    "property float x\nproperty float y\nproperty float z\nproperty int label\nend_header\n"
)


@pytest.fixture(params=["fast", "scan"])
def body_reads(request, monkeypatch):
    """Runs a test once with the vectorized body reader and once with it
    declining every body, so that the line scan reads it. Returns a list
    that records, per call of the fast reader, whether it read the body."""
    reads = []
    if request.param == "scan":
        monkeypatch.setattr(ingest, "_read_rows_fast", lambda *args: None)
    else:
        real = ingest._read_rows_fast

        def spy(*args):
            rows = real(*args)
            reads.append(rows is not None)
            return rows

        monkeypatch.setattr(ingest, "_read_rows_fast", spy)
    return reads


def test_ply_fast_reader_reads_written_files(body_reads):
    rng = np.random.default_rng(62)
    cloud = random_cloud(rng, 50)
    parts = PartLabels(rng.integers(-5, 5, size=50).astype(np.int32))
    parsed, labels, _ = parse_ply(write_ply(cloud, parts))
    assert np.array_equal(parsed.points.view(np.uint32), cloud.points.view(np.uint32))
    assert np.array_equal(labels.labels, parts.labels)
    assert body_reads in ([], [True])


@pytest.mark.parametrize("body", ["1_0 2 3\n", "\u0661 2 3\n", "1\x1f2 3\n", "1 2\x0c3\n", "1\u30002 3\n"])
def test_ply_defers_doubtful_bodies_to_the_scan(body):
    """float() and str.split() accept these; np.loadtxt does not, or splits
    them differently. The scan decides, with no warning."""
    header = LABELED_HEADER.replace("property int label\n", "").format(n=1)
    text = header + body
    try:
        expected = ("ok", ingest._scan_rows(ingest._split_lines(text), 7, 1, 3)[0].tolist())
    except ParseError as exc:
        expected = ("error", str(exc))
    assert ingest._read_rows_fast(ingest._split_lines(text)[7:], 1, 3) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = ("ok", parse_ply(text)[0].points.astype(np.float64).tolist())
        except ParseError as exc:
            got = ("error", str(exc))
    assert got == expected


# Characters on which str.splitlines() ends a line but a file does not.
SPLITLINES_ONLY_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", SPLITLINES_ONLY_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_ply_lines_end_only_at_newlines(body_reads, char):
    """Such a character inside a comment stays in the comment, between two
    fields separates them, and moves no line number."""
    header = LABELED_HEADER.replace("element", f"comment made by{char}tool\nelement")
    cloud, labels, _ = parse_ply(header.format(n=2) + f"0 1{char}2 3\n4 5 6 7\n")
    assert cloud.points.tolist() == [[0, 1, 2], [4, 5, 6]]
    assert labels.labels.tolist() == [3, 7]
    with pytest.raises(ParseError, match=r"^line 12: expected 4 fields, found 3$"):
        parse_ply(header.format(n=2) + f"0 1{char}2 3\n\n4 5 6\n")


@pytest.mark.parametrize("char", SPLITLINES_ONLY_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_xyz_and_off_lines_end_only_at_newlines(char):
    assert parse_xyz(f"# made by{char}tool\n0 0 0\n1{char}2 3\n").points.tolist() == [[0, 0, 0], [1, 2, 3]]
    with pytest.raises(ParseError, match="^line 3: "):
        parse_xyz(f"# made by{char}tool\n0 0 0\n1 2\n")
    mesh = parse_off(MINIMAL_OFF.replace("OFF\n", f"OFF\n# made by{char}tool\n"))
    assert mesh.faces.tolist() == [[0, 1, 2]]
    with pytest.raises(ParseError, match="^line 7: "):
        parse_off(f"OFF\n# made by{char}tool\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n")


def test_ply_empty_body_names_line_without_warning(body_reads):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="line 9: expected 2 vertex rows, found 0"):
            parse_ply(LABELED_HEADER.format(n=2) + "\n")


def test_ply_rejects_non_integral_label(body_reads):
    text = LABELED_HEADER.format(n=2) + "0 0 0 1\n\n0 0 1 1.7\n"
    with pytest.raises(ParseError, match=r"^line 11: label 1\.7 is not an int32 integer$"):
        parse_ply(text)
    assert body_reads in ([], [True])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "3e9", "2147483648", "-2147483649", "1e500"])
def test_ply_rejects_label_outside_int32(body_reads, value):
    text = LABELED_HEADER.format(n=3) + f"0 0 0 1\n0 0 1 2\n0 1 0 {value}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=r"^line 11: label .* is not an int32 integer$"):
            parse_ply(text)


@pytest.mark.parametrize("value", ["1e39", "-1e39", "nan", "inf", "1e500"])
def test_ply_non_finite_coordinate_names_line(body_reads, value):
    """Checked as float32, before the cast, which would warn and give inf."""
    text = LABELED_HEADER.replace("property int label\n", "").format(n=3) + f"0 0 0\n1 0 0\n0 {value} 0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=r"^line 10: y .* is not finite as float32$"):
            parse_ply(text)


def test_ply_non_finite_saliency_names_line(body_reads):
    text = LABELED_HEADER.replace("int label", "float saliency").format(n=2) + "0 0 0 0.5\n0 0 1 nan\n"
    with pytest.raises(ParseError, match="^line 10: saliency nan is not finite as float32$"):
        parse_ply(text)


def test_ply_accepts_int32_labels_in_any_float_spelling(body_reads):
    text = LABELED_HEADER.format(n=4) + "0 0 0 2147483647\n0 0 1 -2147483648\n0 1 0 1e3\n1 0 0 -0.0\n"
    _, labels, _ = parse_ply(text)
    assert labels.labels.tolist() == [2147483647, -2147483648, 1000, 0]


@pytest.mark.parametrize("count", ["-1", "1.5", "x", "1e3"])
def test_ply_rejects_bad_element_count(body_reads, count):
    text = LABELED_HEADER.format(n=count) + "0 0 0 1\n"
    with pytest.raises(ParseError, match=f"^line 3: element count must be a non-negative integer, got '{count}'$"):
        parse_ply(text)


def test_ply_huge_vertex_count_is_a_parse_error(body_reads):
    """A declared count far beyond the body is reported, not allocated: an
    array of 10**15 rows would raise MemoryError, which aborts a batch."""
    text = LABELED_HEADER.format(n=10**15) + "0 0 0 1\n"
    with pytest.raises(ParseError, match=f"^line 9: expected {10**15} vertex rows, found 1$"):
        parse_ply(text)


def test_ply_rejects_bad_count_of_other_elements(body_reads):
    text = LABELED_HEADER.format(n=1).replace("end_header", "element face -1\nend_header") + "0 0 0 1\n"
    with pytest.raises(ParseError, match="^line 8: element count"):
        parse_ply(text)


def test_ply_rejects_vertex_list_property(body_reads):
    text = (
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property list uchar int label\nend_header\n0 0 0 2 5 6\n"
    )
    with pytest.raises(ParseError, match="^line 7: list property 'label' in the vertex element$"):
        parse_ply(text)


def test_ply_ignores_list_property_of_empty_face_element(body_reads):
    text = LABELED_HEADER.format(n=1).replace(
        "end_header", "element face 0\nproperty list uchar int vertex_indices\nend_header"
    ) + "0 0 0 4\n"
    _, labels, _ = parse_ply(text)
    assert labels.labels.tolist() == [4]


@pytest.mark.parametrize("text, message", [
    (LABELED_HEADER.format(n=1).replace("float x\n", "float x\nproperty float x\n") + "1 2 3 4 5\n",
     "line 5: property 'x' declared twice"),
    (LABELED_HEADER.format(n=1).replace("float x", "flaot x") + "1 2 3 4\n",
     "line 4: unknown property type 'flaot'"),
    (LABELED_HEADER.format(n=1).replace("format ascii 1.0\n", "") + "1 2 3 4\n",
     "line 7: PLY header has no format line"),
    ("ply\nformat ascii 1.0\nproperty float x\nend_header\n",
     "line 3: property declared before any element"),
    ("ply\nformat ascii 1.0\ncomment none\nend_header\n",
     "line 4: PLY header declares no vertex element"),
    (LABELED_HEADER.format(n=1).replace("property float z\n", "") + "1 2 3\n",
     "line 7: PLY vertex element lacks required property 'z'"),
], ids=["duplicate", "unknown-type", "no-format", "property-first", "no-vertex", "no-z"])
def test_ply_rejects_ambiguous_header(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_ply(text)


# --- XYZ ----------------------------------------------------------------------


def test_parse_xyz_basic():
    cloud = parse_xyz("0 0 0\n1 2 3\n")
    assert len(cloud) == 2
    assert np.allclose(cloud.points[1], [1, 2, 3])


def test_parse_xyz_short_line_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_xyz("0 0 0\n1 2\n")


@pytest.mark.parametrize("value", ["1e39", "nan", "-inf"])
def test_parse_xyz_non_finite_coordinate_names_line(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="^line 2: "):
            parse_xyz(f"0 0 0\n{value} 0 0\n0 1 0\n")


def test_parse_xyz_extra_fields_ignored():
    cloud = parse_xyz("1 2 3 0.9\n")
    assert np.allclose(cloud.points, [[1, 2, 3]])


def test_parse_xyz_non_numeric_names_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_xyz("a b c\n")


def test_xyz_round_trip():
    rng = np.random.default_rng(62)
    cloud = random_cloud(rng, 50)
    parsed = parse_xyz(write_xyz(cloud))
    assert np.array_equal(parsed.points.view(np.uint32), cloud.points.view(np.uint32))


# --- surface sampling -----------------------------------------------------------


def right_triangle() -> TriangleMesh:
    return TriangleMesh(
        np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.float32),
        np.array([[0, 1, 2]], dtype=np.int64),
    )


def test_sample_surface_containment():
    cloud = sample_surface(right_triangle(), 10_000, make_stream(7))
    x, y, z = cloud.points.T
    eps = 1e-6
    assert np.all(np.abs(z) <= eps)
    assert np.all(x >= -eps) and np.all(y >= -eps)
    assert np.all(x + y <= 1 + eps)


def test_sample_surface_area_weighting():
    # Two coplanar triangles with areas 0.5 and 1.5; the second should
    # receive three quarters of the samples.
    mesh = TriangleMesh(
        np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [10, 0, 0], [13, 0, 0], [10, 1, 0]],
            dtype=np.float32,
        ),
        np.array([[0, 1, 2], [3, 4, 5]], dtype=np.int64),
    )
    cloud = sample_surface(mesh, 100_000, make_stream(8))
    on_second = (cloud.points[:, 0] >= 5).mean()
    assert abs(on_second - 0.75) < 0.01


def test_sample_surface_deterministic():
    a = sample_surface(right_triangle(), 256, make_stream(9))
    b = sample_surface(right_triangle(), 256, make_stream(9))
    assert np.array_equal(a.points.view(np.uint32), b.points.view(np.uint32))


def test_sample_surface_zero_area_errors():
    degenerate = TriangleMesh(
        np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]], dtype=np.float32),
        np.array([[0, 1, 2]], dtype=np.int64),
    )
    with pytest.raises(ValueError, match="area"):
        sample_surface(degenerate, 10, make_stream(0))
    with pytest.raises(ValueError):
        sample_surface(right_triangle(), 0, make_stream(0))


def test_sample_surface_points_lie_on_surface():
    # Tetrahedron: every sample must sit on one of the four face planes,
    # inside that face.
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.float32)
    f = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], dtype=np.int64)
    mesh = TriangleMesh(v, f)
    cloud = sample_surface(mesh, 2000, make_stream(10))
    pts = cloud.points.astype(np.float64)
    min_dist = np.full(len(pts), np.inf)
    for tri in f:
        a, b, c = v[tri].astype(np.float64)
        normal = np.cross(b - a, c - a)
        normal /= np.linalg.norm(normal)
        min_dist = np.minimum(min_dist, np.abs((pts - a) @ normal))
    assert np.all(min_dist < 1e-6)


# --- farthest point sampling ----------------------------------------------------


def collinear_cloud() -> PointCloud:
    pts = np.zeros((3, 3), dtype=np.float32)
    pts[:, 0] = [0.0, 1.0, 10.0]
    return PointCloud(pts)


def test_fps_picks_farthest_first():
    assert list(farthest_point_sample(collinear_cloud(), 2, 0)) == [0, 2]


def test_fps_exhaustion_order():
    assert list(farthest_point_sample(collinear_cloud(), 3, 0)) == [0, 2, 1]


def test_fps_matches_oracle():
    rng = np.random.default_rng(63)
    cloud = random_cloud(rng, 64)
    got = farthest_point_sample(cloud, 16, 7)
    assert np.array_equal(got, reference_fps(cloud.points, 16, 7))


@pytest.mark.parametrize("method", ["fps", "knn"])
def test_fps_sums_squares_in_axis_order(method):
    # Axis permutations of one triple lie at the same exact distance from the
    # origin. The triples are picked so the float64 sum of the squared terms
    # depends on their order, which the row-wise oracles fix as x, y, z; any
    # other order ranks the permutations differently, in FPS and in kNN.
    rng = np.random.default_rng(5)
    triples = []
    while len(triples) < 8:
        t = rng.standard_normal(3).astype(np.float32)
        a, b, c = t.astype(np.float64) ** 2
        if len({(a + b) + c, (a + c) + b, (b + c) + a}) > 1:
            triples.append(t)
    rows = [[0.0, 0.0, 0.0]] + [p for t in triples for p in itertools.permutations(t)]
    pts = np.array(rows, dtype=np.float32)
    if method == "fps":
        got, expected = farthest_point_sample(PointCloud(pts), len(pts), 0), reference_fps(pts, len(pts), 0)
    else:
        got, expected = build_index(PointCloud(pts)).knn(0, len(pts)), linear_scan_knn(pts, 0, len(pts))
    assert np.array_equal(got, expected)


def test_fps_tie_goes_to_smaller_index():
    # Four corners of a square, start at 0: both diagonal picks tie later.
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=np.float32)
    cloud = PointCloud(pts)
    picks = farthest_point_sample(cloud, 4, 0)
    assert np.array_equal(picks, reference_fps(pts, 4, 0))
    assert picks[1] == 3  # the unique diagonal
    assert picks[2] == 1  # 1 and 2 tie at equal min-distance; smaller index


def test_fps_handles_duplicate_points():
    pts = np.zeros((5, 3), dtype=np.float32)
    picks = farthest_point_sample(PointCloud(pts), 5, 2)
    assert sorted(picks) == [0, 1, 2, 3, 4]
    assert picks[0] == 2


def test_fps_range_errors():
    cloud = collinear_cloud()
    with pytest.raises(ValueError):
        farthest_point_sample(cloud, 0, 0)
    with pytest.raises(ValueError):
        farthest_point_sample(cloud, 4, 0)
    with pytest.raises(IndexError):
        farthest_point_sample(cloud, 2, 3)


# --- equalize -------------------------------------------------------------------


def test_equalize_identity():
    rng = np.random.default_rng(64)
    cloud = random_cloud(rng, 32)
    stream = make_stream(0)
    idx = equalize_indices(cloud, 32, stream)
    assert idx.dtype == np.int64
    assert np.array_equal(idx, np.arange(32))
    assert stream.random() == make_stream(0).random()  # no draw consumed


def test_equalize_downsample_is_subset():
    rng = np.random.default_rng(65)
    cloud = random_cloud(rng, 80)
    idx = equalize_indices(cloud, 30, make_stream(1))
    assert len(idx) == 30
    assert len(np.unique(idx)) == 30
    assert idx.min() >= 0 and idx.max() < 80


def test_equalize_pad_keeps_all_originals():
    rng = np.random.default_rng(66)
    cloud = random_cloud(rng, 7)
    idx = equalize_indices(cloud, 12, make_stream(2))
    assert len(idx) == 12
    assert np.array_equal(idx[:7], np.arange(7))
    assert idx[7:].min() >= 0 and idx[7:].max() < 7


def test_equalize_deterministic():
    rng = np.random.default_rng(67)
    cloud = random_cloud(rng, 100)
    for n in (40, 130):
        a = equalize_indices(cloud, n, make_stream(3))
        b = equalize_indices(cloud, n, make_stream(3))
        assert np.array_equal(a, b)


def test_equalize_indices_align_labels():
    rng = np.random.default_rng(68)
    cloud = random_cloud(rng, 20)
    labels = np.arange(20, dtype=np.int32)
    idx = equalize_indices(cloud, 8, make_stream(4))
    out_points = cloud.points[idx]
    out_labels = labels[idx]
    for row, lab in zip(out_points, out_labels):
        assert np.array_equal(row, cloud.points[lab])


def test_equalize_rejects_nonpositive_target(rng):
    with pytest.raises(ValueError):
        equalize_indices(random_cloud(rng, 4), 0, make_stream(0))


# --- normalization --------------------------------------------------------------


def test_normalize_two_point_example():
    cloud = PointCloud(np.array([[1, 0, 0], [3, 0, 0]], dtype=np.float32))
    out = normalize_unit_sphere(cloud)
    assert np.allclose(out.points, [[-1, 0, 0], [1, 0, 0]], atol=1e-6)


def test_normalize_properties(rng):
    out = normalize_unit_sphere(random_cloud(rng, 200))
    centroid = out.points.astype(np.float64).mean(axis=0)
    radii = np.linalg.norm(out.points.astype(np.float64), axis=1)
    assert np.all(np.abs(centroid) < 1e-6)
    assert abs(radii.max() - 1.0) < 1e-6


def test_normalize_idempotent(rng):
    once = normalize_unit_sphere(random_cloud(rng, 64))
    twice = normalize_unit_sphere(once)
    assert np.allclose(twice.points, once.points, atol=1e-6)


def test_normalize_degenerate_errors():
    with pytest.raises(ValueError):
        normalize_unit_sphere(PointCloud(np.ones((5, 3), dtype=np.float32)))
