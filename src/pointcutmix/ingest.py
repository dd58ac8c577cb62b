"""Dataset ingestion and preparation.

Parsers for ASCII OFF meshes, ASCII PLY clouds (with optional per-point
label and saliency properties), and plain XYZ text; mesh surface sampling;
farthest point sampling; size equalization; unit-sphere normalization.

Parse errors carry 1-based line numbers. The PLY writer emits 9 significant
digits so 32-bit coordinates survive a write/parse round trip bit for bit.
Rows of all three go to np.loadtxt where it can decide, else to a line scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import PartLabels, PointCloud, SaliencyWeights, squared_distances
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

    def triangles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per face, in float64: first corner a, edges ab and ac, and area."""
        v = self.vertices.astype(np.float64)
        a = v[self.faces[:, 0]]
        ab = v[self.faces[:, 1]] - a
        ac = v[self.faces[:, 2]] - a
        return a, ab, ac, 0.5 * np.linalg.norm(np.cross(ab, ac), axis=1)


def _split_lines(text: str) -> list[str]:
    r"""The text's lines, numbered as the file numbers them: each ends at
    "\n", "\r\n" or a lone "\r". (str.splitlines() also ends lines at
    "\x0b", "\x0c", "\x1c"-"\x1e", "\x85", "\u2028" and "\u2029".)"""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


_INT32_MIN, _INT32_MAX = np.iinfo(np.int32).min, np.iinfo(np.int32).max
_FLOAT32_LIMIT = 2.0**128 - 2.0**103  # float64 magnitudes below it round to a finite float32

# Control characters that str.split() takes for whitespace: a body holding
# one is left to the line scan rather than trusted to np.loadtxt.
_SCAN_ONLY_CHARS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _element_count(field: str, num: int) -> int:
    try:
        count = int(field)
    except ValueError:
        count = -1
    if count < 0:
        raise ParseError(f"line {num}: element count must be a non-negative integer, got {field!r}")
    return count


def _read_rows_fast(body: list[str], n_rows: Optional[int], n_cols: int, dtype=np.float64):
    """The first n_cols fields of every non-blank body line as rows of dtype,
    read by np.loadtxt, or None when the line scan must decide (n_rows None
    takes any number of rows).

    On ASCII text without the characters above, loadtxt splits lines and
    fields exactly as str.split() does and parses each field with the same
    correctly rounded conversion as float(), so any result it returns is the
    scan's result bit for bit. It rejects what float() also accepts
    (underscores, non-ASCII digits), and a wrong row or field count is the
    scan's error to report, with its line number: all of these return None.
    As int64 it accepts a subset of what int() accepts, with the same values.
    """
    joined = "".join(body)
    if not joined.isascii() or not joined.strip() or any(c in joined for c in _SCAN_ONLY_CHARS):
        return None  # an all-blank body would also make loadtxt warn
    try:
        rows = np.loadtxt(body, dtype=dtype, comments=None, usecols=range(n_cols), ndmin=2)
    except ValueError:
        return None
    return rows if n_rows is None or len(rows) == n_rows else None


def _scan_rows(lines: list[str], start: int, n_rows: Optional[int], n_cols: int,
               *, comments=False, stop=False, finite32=False) -> tuple[np.ndarray, list[int]]:
    """The body rows read one line at a time, with each row's 1-based line
    number; raises a ParseError naming the first offending line. Rows are
    collected as read, so a declared count far beyond the body allocates
    nothing; n_rows None reads every row. comments skips # lines, stop ends
    at the count (naming a missing row on the line after the last one), and
    finite32 rejects values that are not finite as float32."""
    rows, row_lines = [], []
    for idx in range(start, len(lines)):
        line = lines[idx].strip()
        if not line or comments and line[0] == "#":
            continue
        if len(rows) == n_rows:
            if stop:
                break
            raise ParseError(f"line {idx + 1}: more data rows than declared vertices")
        fields = line.split()
        if len(fields) < n_cols:
            raise ParseError(f"line {idx + 1}: expected {n_cols} fields, found {len(fields)}")
        try:
            rows.append([float(f) for f in fields[:n_cols]])
        except ValueError:
            raise ParseError(f"line {idx + 1}: non-numeric field") from None
        if finite32 and not all(map(_finite32, rows[-1])):
            _reject_non_finite32(np.array(rows[-1:]), "xyz", lambda row: idx + 1)
        row_lines.append(idx + 1)
    if n_rows is not None and len(rows) != n_rows:
        num = (row_lines[-1] if row_lines else start) + 1 if stop else len(lines)
        raise ParseError(f"line {num}: expected {n_rows} vertex rows, found {len(rows)}")
    return np.array(rows, dtype=np.float64).reshape(-1, n_cols), row_lines


def _finite32(values):
    """Whether float64 values (a float or an array) round to finite float32
    values; False for nan."""
    return abs(values) < _FLOAT32_LIMIT


def _reject_non_finite32(values: np.ndarray, names, line_of) -> None:
    """Raise a ParseError at the first value (row-major) that is not finite
    as float32, nan included, naming its line, line_of(row), and column."""
    finite = _finite32(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ParseError(f"line {line_of(i)}: {names[j]} {float(values[i, j])!r} is not finite as float32")


def _next_content(lines: list[str], idx: int, what: str) -> int:
    """Index of the first line from lines[idx] on that is neither blank nor a # comment."""
    for i in range(idx, len(lines)):
        if lines[i].strip()[:1] not in ("", "#"):
            return i
    raise ParseError(f"line {idx + 1}: unexpected end of file, expected {what}")


def parse_off(text) -> TriangleMesh:
    """Parse an ASCII OFF mesh. Accepts the fused first-line variant where
    the counts share the header line; quad faces are split fan-wise into
    two triangles."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    lines = _split_lines(text)
    idx = _next_content(lines, 0, "OFF header")
    line = lines[idx].strip()
    if line == "OFF":
        idx = _next_content(lines, idx + 1, "counts line")
        counts_fields = lines[idx].split()
    elif line.startswith("OFF"):
        counts_fields = line[3:].split()
    else:
        raise ParseError(f"line {idx + 1}: expected OFF header, got {line.split()[0]!r}")
    num = idx + 1
    if len(counts_fields) < 3:
        raise ParseError(f"line {num}: expected vertex/face/edge counts")
    try:
        n_vertices, n_faces = int(counts_fields[0]), int(counts_fields[1])
    except ValueError:
        raise ParseError(f"line {num}: counts must be integers, got {counts_fields[:3]}") from None
    if n_vertices < 0 or n_faces < 0:
        raise ParseError(f"line {num}: counts must be non-negative")

    # loadtxt reads exactly the next n lines of a block, so a blank or #
    # line fails it or leaves it short; it decides only valid blocks.
    vertices, end = _read_rows_fast(lines[num : num + n_vertices], n_vertices, 3), num + n_vertices
    if vertices is None or not _finite32(vertices).all():
        vertices, row_lines = _scan_rows(lines, num, n_vertices, 3, comments=True, stop=True, finite32=True)
        end = row_lines[-1] if row_lines else num
    rows = _read_rows_fast(lines[end : end + n_faces], n_faces, 4, np.int64)
    if rows is not None and rows.min() >= 0 and rows[:, 1:].max() < n_vertices and (rows[:, 0] == 3).all():
        return TriangleMesh(vertices, rows[:, 1:])
    triangles, num = [], end  # any other face block: one line at a time, quads split fan-wise
    for i in range(n_faces):
        num = _next_content(lines, num, f"face line {i + 1} of {n_faces}") + 1
        fields = lines[num - 1].split()
        try:
            arity = int(fields[0])
            indices = [int(f) for f in fields[1 : 1 + arity]]
        except ValueError:
            raise ParseError(f"line {num}: face fields must be integers") from None
        if arity < 3 or arity > 4:
            raise ParseError(f"line {num}: unsupported face arity {arity} (triangles and quads only)")
        if len(indices) < arity:
            raise ParseError(f"line {num}: face lists {len(indices)} of {arity} vertex indices")
        if not all(0 <= j < n_vertices for j in indices):
            raise ParseError(f"line {num}: face references a vertex index out of range")
        triangles.append(indices[:3])
        if arity == 4:
            triangles.append([indices[0], indices[2], indices[3]])
    return TriangleMesh(vertices, np.array(triangles, dtype=np.int64).reshape(-1, 3))


def parse_ply(text) -> tuple[PointCloud, Optional[PartLabels], Optional[SaliencyWeights]]:
    """Parse an ASCII PLY vertex cloud. Properties x, y, z are required;
    integer "label" and float "saliency" properties are picked up when
    present, other properties are ignored. Binary PLY is rejected."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    lines = _split_lines(text)
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

    def line_of(row):  # a body read by loadtxt is scanned again for its line numbers
        return (row_lines or _scan_rows(lines, body_start, n_vertices, len(properties))[1])[row]

    if "label" in columns:
        label = rows[:, columns["label"]]
        in_range = (label >= _INT32_MIN) & (label <= _INT32_MAX)  # False for nan
        bad = np.flatnonzero(~(in_range & (label == np.trunc(label))))
        if bad.size:
            raise ParseError(f"line {line_of(bad[0])}: label {float(label[bad[0]])!r} is not an int32 integer")
    names = ["x", "y", "z"] + ["saliency"] * ("saliency" in columns)
    values = rows[:, [columns[name] for name in names]]
    _reject_non_finite32(values, names, line_of)

    cloud = PointCloud(values[:, :3].astype(np.float32))
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
    lines = _split_lines(text)
    rows = _read_rows_fast(lines, None, 3)
    if rows is None:
        rows, _ = _scan_rows(lines, 0, None, 3, comments=True)
    _reject_non_finite32(rows, "xyz", lambda row: _scan_rows(lines, 0, None, 3, comments=True)[1][row])
    return PointCloud(rows.astype(np.float32))


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
    a, ab, ac, areas = mesh.triangles()
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
    # squared_distances() gets the pick as a list of floats and the columns
    # as a tuple of rows, which it indexes in a fraction of an array's time.
    columns = np.ascontiguousarray(cloud.points.T, dtype=np.float64)
    rows = tuple(columns)
    d2 = np.empty(n_total)
    term = np.empty(n_total)
    d2min = np.full(n_total, np.inf)
    picked = np.empty(n, dtype=np.int64)
    pick = picked[0] = start_index
    for i in range(1, n):
        squared_distances(columns[:, pick].tolist(), rows, d2, term)
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


def normalize_unit_sphere(cloud: PointCloud) -> PointCloud:
    """Translate the centroid to the origin and scale the farthest point
    onto the unit sphere."""
    if len(cloud) == 0:
        raise ValueError("cannot normalize an empty cloud")
    pts = cloud.points.astype(np.float64)
    centroid = pts.mean(axis=0)
    d2 = squared_distances(centroid, np.ascontiguousarray(pts.T), np.empty(len(pts)), np.empty(len(pts)))
    radius = float(np.sqrt(d2.max()))
    if radius <= 0.0:
        raise ValueError("cannot normalize a degenerate cloud (all points identical)")
    return PointCloud(((pts - centroid) / radius).astype(np.float32))
