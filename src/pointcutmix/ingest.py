"""Dataset ingestion and preparation.

Parsers for ASCII OFF meshes, ASCII PLY clouds (with optional per-point
label and saliency properties), and plain XYZ text; mesh surface sampling;
farthest point sampling; size equalization; unit-sphere normalization.

Parse errors carry 1-based line numbers. The PLY writer emits 9 significant
digits so 32-bit coordinates survive a write/parse round trip bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import PartLabels, PointCloud, SaliencyWeights
from .rng import RngStream


class ParseError(ValueError):
    """Malformed input file; the message names the offending line."""


@dataclass(frozen=True)
class TriangleMesh:
    vertices: np.ndarray  # (V, 3) float32
    faces: np.ndarray  # (F, 3) int64, indices into vertices

    def __post_init__(self):
        vertices = np.asarray(self.vertices, dtype=np.float32)
        faces = np.asarray(self.faces, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError(f"vertices must have shape (V, 3), got {vertices.shape}")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValueError(f"faces must have shape (F, 3), got {faces.shape}")
        if not np.isfinite(vertices).all():
            raise ValueError("mesh vertices contain non-finite coordinates")
        if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise ValueError("face references a vertex index out of range")
        vertices.flags.writeable = False
        faces.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)


def _content_lines(text: str):
    """(line_number, stripped_line) pairs, skipping blanks and # comments."""
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield num, line


def _floats(fields, count, num):
    try:
        values = [float(f) for f in fields[:count]]
    except ValueError:
        raise ParseError(f"line {num}: expected numeric fields, got {fields[:count]}") from None
    if len(values) < count:
        raise ParseError(f"line {num}: expected {count} numeric fields, found {len(fields)}")
    return values


def parse_off(text) -> TriangleMesh:
    """Parse an ASCII OFF mesh. Accepts the fused first-line variant where
    the counts share the header line; quad faces are split fan-wise into
    two triangles."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    lines = _content_lines(text)
    last_num = 0

    def next_line(what):
        nonlocal last_num
        try:
            num, line = next(lines)
        except StopIteration:
            raise ParseError(f"line {last_num + 1}: unexpected end of file, expected {what}") from None
        last_num = num
        return num, line

    num, line = next_line("OFF header")
    if line == "OFF":
        num, line = next_line("counts line")
        counts_fields = line.split()
    elif line.startswith("OFF"):
        counts_fields = line[3:].split()
    else:
        raise ParseError(f"line {num}: expected OFF header, got {line.split()[0]!r}")
    if len(counts_fields) < 3:
        raise ParseError(f"line {num}: expected vertex/face/edge counts")
    try:
        n_vertices, n_faces = int(counts_fields[0]), int(counts_fields[1])
    except ValueError:
        raise ParseError(f"line {num}: counts must be integers, got {counts_fields[:3]}") from None
    if n_vertices < 0 or n_faces < 0:
        raise ParseError(f"line {num}: counts must be non-negative")

    vertices = np.empty((n_vertices, 3), dtype=np.float64)
    for i in range(n_vertices):
        num, line = next_line(f"vertex line {i + 1} of {n_vertices}")
        vertices[i] = _floats(line.split(), 3, num)
        if not np.isfinite(vertices[i]).all():
            raise ParseError(f"line {num}: non-finite vertex coordinate")

    triangles = []
    for i in range(n_faces):
        num, line = next_line(f"face line {i + 1} of {n_faces}")
        fields = line.split()
        try:
            arity = int(fields[0])
            indices = [int(f) for f in fields[1 : 1 + arity]]
        except ValueError:
            raise ParseError(f"line {num}: face fields must be integers") from None
        if arity < 3 or arity > 4:
            raise ParseError(f"line {num}: unsupported face arity {arity} (triangles and quads only)")
        if len(indices) < arity:
            raise ParseError(f"line {num}: face lists {len(indices)} of {arity} vertex indices")
        triangles.append(indices[:3])
        if arity == 4:
            triangles.append([indices[0], indices[2], indices[3]])

    faces = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    try:
        return TriangleMesh(vertices, faces)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


_INT32_MIN, _INT32_MAX = np.iinfo(np.int32).min, np.iinfo(np.int32).max

# Characters on which str.splitlines() or str.split() break text where
# np.loadtxt does not, or not in the same way; a body holding one is left to
# the line scan.
_SCAN_ONLY_CHARS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _element_count(field: str, num: int) -> int:
    try:
        count = int(field)
    except ValueError:
        count = -1
    if count < 0:
        raise ParseError(f"line {num}: element count must be a non-negative integer, got {field!r}")
    return count


def _read_rows_fast(body: list[str], n_rows: int, n_cols: int) -> Optional[np.ndarray]:
    """The first n_cols fields of every non-blank body line as float64 rows,
    read by np.loadtxt, or None when the line scan must decide.

    On ASCII text without the characters above, loadtxt splits lines and
    fields exactly as str.split() does and parses each field with the same
    correctly rounded conversion as float(), so any result it returns is the
    scan's result bit for bit. It rejects what float() also accepts
    (underscores, non-ASCII digits), and a wrong row or field count is the
    scan's error to report, with its line number: all of these return None.
    """
    joined = "".join(body)
    if not joined.isascii() or not joined.strip() or any(c in joined for c in _SCAN_ONLY_CHARS):
        return None  # an all-blank body would also make loadtxt warn
    try:
        rows = np.loadtxt(body, dtype=np.float64, comments=None, usecols=range(n_cols), ndmin=2)
    except ValueError:
        return None
    return rows if len(rows) == n_rows else None


def _scan_rows(lines: list[str], start: int, n_rows: int, n_cols: int) -> tuple[np.ndarray, list[int]]:
    """The body rows read one line at a time, with each row's 1-based line
    number; raises a ParseError naming the first offending line. Rows are
    collected as read, so a declared count far beyond the body allocates
    nothing."""
    rows, row_lines = [], []
    for idx in range(start, len(lines)):
        line = lines[idx].strip()
        if not line:
            continue
        if len(rows) == n_rows:
            raise ParseError(f"line {idx + 1}: more data rows than declared vertices")
        fields = line.split()
        if len(fields) < n_cols:
            raise ParseError(f"line {idx + 1}: expected {n_cols} fields, found {len(fields)}")
        try:
            rows.append([float(f) for f in fields[:n_cols]])
        except ValueError:
            raise ParseError(f"line {idx + 1}: non-numeric field") from None
        row_lines.append(idx + 1)
    if len(rows) != n_rows:
        raise ParseError(f"line {len(lines)}: expected {n_rows} vertex rows, found {len(rows)}")
    return np.array(rows, dtype=np.float64).reshape(n_rows, n_cols), row_lines


def parse_ply(text) -> tuple[PointCloud, Optional[PartLabels], Optional[SaliencyWeights]]:
    """Parse an ASCII PLY vertex cloud. Properties x, y, z are required;
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
            name, count = fields[1], _element_count(fields[2], num)
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
                if fields[1] == "list":
                    raise ParseError(f"line {num}: list property {fields[-1]!r} in the vertex element")
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
    rows = _read_rows_fast(lines[body_start:], n_vertices, len(properties))
    row_lines = None
    if rows is None:
        rows, row_lines = _scan_rows(lines, body_start, n_vertices, len(properties))
    if "label" in columns:
        label = rows[:, columns["label"]]
        in_range = (label >= _INT32_MIN) & (label <= _INT32_MAX)  # False for nan
        bad = np.flatnonzero(~(in_range & (label == np.trunc(label))))
        if bad.size:
            if row_lines is None:
                _, row_lines = _scan_rows(lines, body_start, n_vertices, len(properties))
            raise ParseError(
                f"line {row_lines[bad[0]]}: label {float(label[bad[0]])!r} is not an int32 integer"
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


_XYZ_TEMPLATE = "%.9g %.9g %.9g"


def _rows(template: str, columns) -> list[str]:
    """One line per point from per-property columns. "%.9g" of a float is
    the text format(float(v), ".9g") gives; "%d" of an int is str(int(v))."""
    return [template % row for row in zip(*(column.tolist() for column in columns))]


def write_ply(
    cloud: PointCloud,
    parts: Optional[PartLabels] = None,
    saliency: Optional[SaliencyWeights] = None,
) -> str:
    """Serialize to ASCII PLY text (9 significant digits, lossless for the
    32-bit storage). Property order: x, y, z, then label, then saliency."""
    n = len(cloud)
    if parts is not None and len(parts.labels) != n:
        raise ValueError("part labels must match the cloud size")
    if saliency is not None and len(saliency.values) != n:
        raise ValueError("saliency weights must match the cloud size")
    header = ["ply", "format ascii 1.0", f"element vertex {n}"]
    header += ["property float x", "property float y", "property float z"]
    template, columns = _XYZ_TEMPLATE, list(cloud.points.T)
    if parts is not None:
        header.append("property int label")
        template += " %d"
        columns.append(parts.labels)
    if saliency is not None:
        header.append("property float saliency")
        template += " %.9g"
        columns.append(saliency.values)
    header.append("end_header")
    return "\n".join(header + _rows(template, columns)) + "\n"


def parse_xyz(text) -> PointCloud:
    """Parse whitespace-separated coordinate lines; fields past the third
    are ignored, blank and # comment lines are skipped."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    points = []
    for num, line in _content_lines(text):
        fields = line.split()
        if len(fields) < 3:
            raise ParseError(f"line {num}: expected at least 3 fields, found {len(fields)}")
        points.append(_floats(fields, 3, num))
    return PointCloud(np.asarray(points, dtype=np.float64).reshape(-1, 3).astype(np.float32))


def write_xyz(cloud: PointCloud) -> str:
    return "\n".join(_rows(_XYZ_TEMPLATE, cloud.points.T)) + "\n"


def sample_surface(mesh: TriangleMesh, n: int, rng: RngStream) -> PointCloud:
    """n points on the mesh surface: triangles drawn with probability
    proportional to area, positions by uniform barycentric sampling
    (u, v ~ U[0,1], folded into the triangle when u + v > 1)."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if len(mesh.faces) == 0:
        raise ValueError("mesh has no faces to sample")
    v = mesh.vertices.astype(np.float64)
    a = v[mesh.faces[:, 0]]
    ab = v[mesh.faces[:, 1]] - a
    ac = v[mesh.faces[:, 2]] - a
    areas = 0.5 * np.linalg.norm(np.cross(ab, ac), axis=1)
    total = areas.sum()
    if total <= 0.0:
        raise ValueError("mesh surface area is zero (all triangles degenerate)")
    tri = rng.choice(len(areas), size=n, p=areas / total)
    uv = rng.random((n, 2))
    fold = uv.sum(axis=1) > 1.0
    uv[fold] = 1.0 - uv[fold]
    points = a[tri] + uv[:, :1] * ab[tri] + uv[:, 1:] * ac[tri]
    return PointCloud(points.astype(np.float32))


def farthest_point_sample(cloud: PointCloud, n: int, start_index: int) -> np.ndarray:
    """Greedy farthest point sampling: indices of n points, starting at
    start_index, each next pick maximizing its minimum distance to the
    picks so far (distance ties go to the smaller index)."""
    n_total = len(cloud)
    if not 1 <= n <= n_total:
        raise ValueError(f"sample count must be in [1, {n_total}], got {n}")
    if not 0 <= start_index < n_total:
        raise IndexError(f"start index {start_index} out of range for {n_total} points")
    # One contiguous float64 column per axis, and distances accumulated in
    # place in x, y, z order: the order ((p - q) ** 2).sum(axis=1) adds in,
    # so every distance, and with it every pick and tie, is bitwise the same.
    x, y, z = np.ascontiguousarray(cloud.points.T, dtype=np.float64)
    d2 = np.empty(n_total)
    term = np.empty(n_total)
    d2min = np.full(n_total, np.inf)
    picked = np.empty(n, dtype=np.int64)
    pick = picked[0] = start_index
    for i in range(1, n):
        np.subtract(x, x[pick], out=d2)
        np.multiply(d2, d2, out=d2)
        for column in (y, z):
            np.subtract(column, column[pick], out=term)
            np.multiply(term, term, out=term)
            np.add(d2, term, out=d2)
        np.minimum(d2min, d2, out=d2min)
        d2min[pick] = -1.0  # sentinel: picked points never win the argmax
        pick = picked[i] = int(d2min.argmax())
    return picked


def equalize_indices(cloud: PointCloud, n: int, rng: RngStream) -> np.ndarray:
    """Indices rendering the cloud at exactly n points: identity when sizes
    already match (no draws), farthest-point downsample from a random start
    when oversized (one draw), uniform resampling pad when undersized (one
    array draw). Apply the result to per-point labels or weights to keep
    them aligned."""
    if n < 1:
        raise ValueError(f"target size must be >= 1, got {n}")
    n_total = len(cloud)
    if n_total == n:
        return np.arange(n, dtype=np.int64)
    if n_total > n:
        start = int(rng.integers(n_total))
        return farthest_point_sample(cloud, n, start)
    pad = rng.integers(0, n_total, size=n - n_total)
    return np.concatenate([np.arange(n_total, dtype=np.int64), pad.astype(np.int64)])


def equalize(cloud: PointCloud, n: int, rng: RngStream) -> PointCloud:
    indices = equalize_indices(cloud, n, rng)
    if len(indices) == len(cloud) and np.array_equal(indices, np.arange(len(cloud))):
        return cloud
    return PointCloud(cloud.points[indices])


def normalize_unit_sphere(cloud: PointCloud) -> PointCloud:
    """Translate the centroid to the origin and scale the farthest point
    onto the unit sphere."""
    if len(cloud) == 0:
        raise ValueError("cannot normalize an empty cloud")
    pts = cloud.points.astype(np.float64)
    centered = pts - pts.mean(axis=0)
    radius = float(np.sqrt((centered * centered).sum(axis=1).max()))
    if radius <= 0.0:
        raise ValueError("cannot normalize a degenerate cloud (all points identical)")
    return PointCloud((centered / radius).astype(np.float32))
