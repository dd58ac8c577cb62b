"""Procedural shape data for the benchmark workloads.

Each class is a fixed template: a union of axis-aligned boxes, each box
one labelled part (the same construction as tools/gen_fixtures.py). An
instance jitters every box's size and position, is surface-sampled with
area-weighted triangles and normalized onto the unit sphere. Only the
instance jitter and the sampling depend on the seed, so every seed gives
inputs of the same kind and size.

Pure numpy with its own writers: the inputs never depend on the program
under test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# class -> boxes (x0, x1, y0, y1, z0, z1, part id)
TEMPLATES = {
    "chair": [
        (0.00, 0.45, 0.00, 0.45, 0.38, 0.46, 0),  # seat
        (0.00, 0.45, 0.40, 0.45, 0.46, 0.95, 1),  # back rest
        (0.00, 0.05, 0.00, 0.05, 0.00, 0.38, 2),  # legs
        (0.40, 0.45, 0.00, 0.05, 0.00, 0.38, 2),
        (0.00, 0.05, 0.40, 0.45, 0.00, 0.38, 2),
        (0.40, 0.45, 0.40, 0.45, 0.00, 0.38, 2),
    ],
    "airplane": [
        (-0.55, 0.55, -0.07, 0.07, -0.07, 0.07, 0),  # fuselage
        (-0.12, 0.14, -0.62, 0.62, -0.01, 0.02, 1),  # main wings
        (-0.55, -0.42, -0.28, 0.28, 0.00, 0.02, 2),  # tail wings
        (-0.55, -0.42, -0.02, 0.02, 0.07, 0.26, 2),  # tail fin
    ],
    "table": [
        (0.00, 1.00, 0.00, 0.60, 0.70, 0.75, 0),  # top
        (0.02, 0.08, 0.02, 0.08, 0.00, 0.70, 1),  # legs
        (0.92, 0.98, 0.02, 0.08, 0.00, 0.70, 1),
        (0.02, 0.08, 0.52, 0.58, 0.00, 0.70, 1),
        (0.92, 0.98, 0.52, 0.58, 0.00, 0.70, 1),
    ],
    "lamp": [
        (-0.20, 0.20, -0.20, 0.20, 0.00, 0.04, 0),  # base
        (-0.02, 0.02, -0.02, 0.02, 0.04, 0.80, 1),  # pole
        (-0.18, 0.18, -0.18, 0.18, 0.80, 1.00, 2),  # shade
    ],
}

JITTER = 0.15  # relative size / position jitter of each box per instance


def _instance_boxes(cls: str, rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray, int]]:
    boxes = []
    for x0, x1, y0, y1, z0, z1, part in TEMPLATES[cls]:
        lo, hi = np.array([x0, y0, z0]), np.array([x1, y1, z1])
        center, half = (lo + hi) / 2, (hi - lo) / 2
        half = half * (1 + JITTER * rng.uniform(-1, 1, 3))
        center = center + JITTER * half * rng.uniform(-1, 1, 3)
        boxes.append((center - half, center + half, part))
    return boxes


def _box_mesh(lo: np.ndarray, hi: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Surface of a box with every side split into a k x k grid of quads,
    each quad two triangles."""
    t = np.linspace(0.0, 1.0, k + 1)
    u, v = [g.ravel() for g in np.meshgrid(t, t, indexing="ij")]
    cells = np.array(
        [(i * (k + 1) + j, (i + 1) * (k + 1) + j, (i + 1) * (k + 1) + j + 1, i * (k + 1) + j + 1)
         for i in range(k) for j in range(k)]
    )
    tris = np.vstack([cells[:, [0, 1, 2]], cells[:, [0, 2, 3]]])
    vertices, faces = [], []
    for axis in range(3):
        a, b = [ax for ax in range(3) if ax != axis]
        for side in (lo[axis], hi[axis]):
            grid = np.empty((len(u), 3))
            grid[:, axis] = side
            grid[:, a] = lo[a] + u * (hi[a] - lo[a])
            grid[:, b] = lo[b] + v * (hi[b] - lo[b])
            faces.append(tris + sum(len(x) for x in vertices))
            vertices.append(grid)
    return np.vstack(vertices), np.vstack(faces)


def instance_mesh(cls: str, rng: np.random.Generator, k: int = 1):
    """(vertices, faces, face part ids) of one jittered class instance."""
    vertices, faces, parts, offset = [], [], [], 0
    for lo, hi, part in _instance_boxes(cls, rng):
        v, f = _box_mesh(lo, hi, k)
        vertices.append(v)
        faces.append(f + offset)
        parts.append(np.full(len(f), part))
        offset += len(v)
    return np.vstack(vertices), np.vstack(faces), np.concatenate(parts)


def surface_sample(vertices, faces, face_parts, n: int, rng: np.random.Generator):
    """n area-weighted surface points (float32, unit-sphere normalized) and
    the part id of the triangle each came from."""
    a = vertices[faces[:, 0]]
    ab = vertices[faces[:, 1]] - a
    ac = vertices[faces[:, 2]] - a
    areas = np.linalg.norm(np.cross(ab, ac), axis=1)
    tri = rng.choice(len(faces), size=n, p=areas / areas.sum())
    uv = rng.random((n, 2))
    fold = uv.sum(axis=1) > 1.0
    uv[fold] = 1.0 - uv[fold]
    points = a[tri] + uv[:, :1] * ab[tri] + uv[:, 1:] * ac[tri]
    points -= points.mean(axis=0)
    points /= np.sqrt((points * points).sum(axis=1).max())
    return points.astype(np.float32), face_parts[tri]


def _rows(*columns) -> str:
    """Text rows; floats with 9 significant digits, lossless for float32."""
    cells = [
        [format(float(x), ".9g") for x in col] if col.dtype.kind == "f" else [str(int(x)) for x in col]
        for col in columns
    ]
    return "".join(" ".join(row) + "\n" for row in zip(*cells))


def write_ply(path: Path, points, labels=None, saliency=None) -> None:
    header = ["ply", "format ascii 1.0", f"element vertex {len(points)}",
              "property float x", "property float y", "property float z"]
    columns = [points[:, 0], points[:, 1], points[:, 2]]
    if labels is not None:
        header.append("property int label")
        columns.append(np.asarray(labels))
    if saliency is not None:
        header.append("property float saliency")
        columns.append(np.asarray(saliency, dtype=np.float32))
    path.write_text("\n".join(header + ["end_header"]) + "\n" + _rows(*columns))


def write_off(path: Path, vertices, faces) -> None:
    body = _rows(*vertices.astype(np.float32).T)
    tris = "".join(f"3 {a} {b} {c}\n" for a, b, c in faces)
    path.write_text(f"OFF\n{len(vertices)} {len(faces)} 0\n{body}{tris}")


def make_class_dataset(root: Path, seed: int, *, classes, per_class: int, points: int,
                       labels: bool) -> None:
    """class-per-folder dataset of PLY sources."""
    rng = np.random.default_rng(seed)
    for cls in classes:
        (root / cls).mkdir(parents=True)
        for i in range(per_class):
            pts, parts = surface_sample(*instance_mesh(cls, rng), points, rng)
            write_ply(root / cls / f"{cls}_{i:02d}.ply", pts, parts if labels else None)


def make_oneshot_pairs(root: Path, seed: int, *, pairs: int, points: int, mesh_grid: int,
                       classes=("chair", "airplane")) -> list[dict]:
    """Per pair: A (PLY with saliency) of the first class, B (PLY) and B's
    mesh (OFF) of the second. Every pair has the same two classes because
    the solver's run time depends strongly on which classes meet."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True)
    out = []
    cls_a, cls_b = classes
    for p in range(pairs):
        pts_a, _ = surface_sample(*instance_mesh(cls_a, rng), points, rng)
        focus = pts_a[rng.integers(points)]
        saliency = np.exp(-((pts_a - focus) ** 2).sum(axis=1) / 0.2)
        v, f, parts = instance_mesh(cls_b, rng, k=mesh_grid)
        pts_b, _ = surface_sample(v, f, parts, points, rng)
        entry = {name: root / f"pair{p}_{name}" for name in ("a.ply", "b.ply", "b.off")}
        write_ply(entry["a.ply"], pts_a, saliency=saliency)
        write_ply(entry["b.ply"], pts_b)
        write_off(entry["b.off"], v, f)
        out.append({"a": entry["a.ply"], "b": entry["b.ply"], "b_mesh": entry["b.off"],
                    "label_a": cls_a, "label_b": cls_b})
    return out
