"""Generate the committed test fixtures.

Run from the repository root:

    python3 tools/gen_fixtures.py

Produces, under tests/fixtures/:
  chair.ply / airplane.ply  procedural 1024-point clouds (box-built shapes,
                            surface-sampled, unit-sphere normalized)
  emd6_a.xyz / emd6_b.xyz   6-point clouds whose exact distance is frozen
                            into the tests from a brute-force enumeration
  golden_mix_k.ply(+.json)  output of `pointcutmix mix --mode k --beta 1
                            --seed 1` on the two shape fixtures, frozen
                            after structural validation below
  golden_outputs.json       sha256 of stdout and of every written file of
                            the golden runs in tools/same_bytes.py (every
                            command, mode and solver route), at GOLDEN_SEED

Regenerating overwrites the committed files; the byte-compare tests then
pin whatever this produced. Fixture bytes depend on numpy's generator
algorithms, so regeneration belongs with a numpy upgrade, not routine runs.
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pointcutmix.cli import main as cli_main
from pointcutmix.core import PointCloud
from pointcutmix.ingest import (
    TriangleMesh,
    normalize_unit_sphere,
    parse_ply,
    sample_surface,
    write_ply,
    write_xyz,
)
from pointcutmix.neighbors import build_index
from pointcutmix.rng import make_stream

from same_bytes import golden_hashes

FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN_SEED = 5

_BOX_FACES = np.array(
    [
        [0, 1, 2], [0, 2, 3],  # bottom
        [4, 6, 5], [4, 7, 6],  # top
        [0, 4, 5], [0, 5, 1],  # front
        [1, 5, 6], [1, 6, 2],  # right
        [2, 6, 7], [2, 7, 3],  # back
        [3, 7, 4], [3, 4, 0],  # left
    ],
    dtype=np.int64,
)


def box(x0, x1, y0, y1, z0, z1):
    vertices = np.array(
        [
            [x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
            [x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1],
        ],
        dtype=np.float64,
    )
    return vertices, _BOX_FACES.copy()


def union_mesh(parts) -> TriangleMesh:
    vertices, faces, offset = [], [], 0
    for v, f in parts:
        vertices.append(v)
        faces.append(f + offset)
        offset += len(v)
    return TriangleMesh(
        np.vstack(vertices).astype(np.float32), np.vstack(faces)
    )


def chair_mesh() -> TriangleMesh:
    leg = 0.05
    parts = [
        box(0.0, 0.45, 0.0, 0.45, 0.38, 0.46),     # seat
        box(0.0, 0.45, 0.40, 0.45, 0.46, 0.95),    # back rest
        box(0.00, leg, 0.00, leg, 0.0, 0.38),      # legs
        box(0.45 - leg, 0.45, 0.00, leg, 0.0, 0.38),
        box(0.00, leg, 0.45 - leg, 0.45, 0.0, 0.38),
        box(0.45 - leg, 0.45, 0.45 - leg, 0.45, 0.0, 0.38),
    ]
    return union_mesh(parts)


def airplane_mesh() -> TriangleMesh:
    parts = [
        box(-0.55, 0.55, -0.07, 0.07, -0.07, 0.07),   # fuselage
        box(-0.12, 0.14, -0.62, 0.62, -0.01, 0.02),   # main wings
        box(-0.55, -0.42, -0.28, 0.28, 0.00, 0.02),   # tail wings
        box(-0.55, -0.42, -0.02, 0.02, 0.07, 0.26),   # tail fin
    ]
    return union_mesh(parts)


def brute_force_emd(a: np.ndarray, b: np.ndarray) -> float:
    c = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    n = len(a)
    best = min(
        sum(c[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n))
    )
    return best / n


def make_shape_fixtures():
    for name, mesh, seed in [("chair", chair_mesh(), 101), ("airplane", airplane_mesh(), 202)]:
        cloud = normalize_unit_sphere(sample_surface(mesh, 1024, make_stream(seed)))
        path = FIXTURES / f"{name}.ply"
        path.write_text(write_ply(cloud))
        print(f"wrote {path} ({len(cloud)} points)")


def make_emd_fixtures():
    rng = np.random.default_rng(20260815)
    a = rng.standard_normal((6, 3)).astype(np.float32)
    b = rng.standard_normal((6, 3)).astype(np.float32)
    (FIXTURES / "emd6_a.xyz").write_text(write_xyz(PointCloud(a)))
    (FIXTURES / "emd6_b.xyz").write_text(write_xyz(PointCloud(b)))
    value = brute_force_emd(a.astype(np.float64), b.astype(np.float64))
    print(f"wrote emd6 fixtures, brute-force distance {value:.12f}")


def validate_golden(golden_path: Path):
    """Re-derive every structural claim about the golden mix from its own
    provenance before trusting its bytes."""
    sidecar = json.loads(Path(str(golden_path) + ".json").read_text())
    mixed, _, _ = parse_ply(golden_path.read_text())
    chair, _, _ = parse_ply((FIXTURES / "chair.ply").read_text())
    plane, _, _ = parse_ply((FIXTURES / "airplane.ply").read_text())

    from pointcutmix.assignment import optimal_assignment

    assignment = optimal_assignment(chair, plane)
    n = len(mixed)
    from_a = (mixed.points.view(np.uint32) == chair.points.view(np.uint32)).all(axis=1)
    from_b = (
        mixed.points.view(np.uint32)
        == plane.points[assignment.mapping].view(np.uint32)
    ).all(axis=1)
    assert bool((from_a | from_b).all()), "a mixed point matches neither source"
    n_kept = sidecar["n_kept"]
    kept = set(np.flatnonzero(from_a).tolist())
    assert len(kept) >= n_kept
    center = sidecar["center_index"]
    neighborhood = set(build_index(chair).knn(center, n_kept).tolist())
    assert neighborhood <= kept, "kept set is not the center's neighborhood"
    assert sidecar["lambda_effective"] == n_kept / n
    print(f"golden mix validated: {n_kept}/{n} kept around center {center}")


def make_golden_mix():
    out = FIXTURES / "golden_mix_k.ply"
    rel = FIXTURES.relative_to(ROOT)
    code = cli_main(
        [
            "mix",
            str(rel / "chair.ply"), "chair",
            str(rel / "airplane.ply"), "airplane",
            "--mode", "k", "--beta", "1", "--seed", "1",
            "--out", str(rel / out.name),
        ]
    )
    assert code == 0, f"mix exited {code}"
    validate_golden(out)
    print(f"wrote {out}")


def make_golden_outputs():
    with tempfile.TemporaryDirectory() as tmp:
        runs = golden_hashes(ROOT / "src", Path(tmp), GOLDEN_SEED)
    out = FIXTURES / "golden_outputs.json"
    out.write_text(json.dumps({"seed": GOLDEN_SEED, "runs": runs}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(runs)} runs)")


def main():
    import os

    os.chdir(ROOT)  # committed sidecars record repo-relative source paths
    FIXTURES.mkdir(parents=True, exist_ok=True)
    make_shape_fixtures()
    make_emd_fixtures()
    make_golden_mix()
    make_golden_outputs()


if __name__ == "__main__":
    main()
