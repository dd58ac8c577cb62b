"""Correctness gate, applied to every output of a timed operation.

Each check returns None when the output is right, else a one-line reason.
Outputs are read with the benchmark's own PLY reader, not the program's.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np


def read_ply(path: Path):
    """(points as float32 (N, 3), integer labels or None) of an ASCII PLY."""
    head, sep, body = path.read_text().partition("end_header\n")
    lines = head.splitlines()
    if not sep or not lines or lines[0] != "ply":
        raise ValueError("not an ASCII PLY file")
    n = next(int(line.split()[2]) for line in lines if line.startswith("element vertex "))
    props = [line.split()[-1] for line in lines if line.startswith("property ")]
    values = np.array(body.split(), dtype=np.float64)
    if values.size != n * len(props):
        raise ValueError(f"{values.size} values for {n} rows of {len(props)} properties")
    rows = values.reshape(n, len(props))
    col = {name: i for i, name in enumerate(props)}
    points = rows[:, [col["x"], col["y"], col["z"]]].astype(np.float32)
    labels = rows[:, col["label"]].astype(np.int64) if "label" in col else None
    return points, labels


def _bits(points) -> np.ndarray:
    return np.ascontiguousarray(points, dtype=np.float32).view(np.uint32)


def check_provenance(out, a, b, n_kept: int, *, labels=None, parts_a=None,
                     parts_b=None, center: Optional[int] = None) -> Optional[str]:
    """Kept rows are bitwise prepared A at the same slot, n_kept of them;
    every other row is a distinct point of prepared B (b is None for a
    sample that passed through unmixed); part labels travel with points."""
    if out.shape != a.shape:
        return f"output has {len(out)} rows, expected {len(a)}"
    out_bits, a_bits = _bits(out), _bits(a)
    kept = (out_bits == a_bits).all(axis=1)
    if int(kept.sum()) != n_kept:
        return f"{int(kept.sum())} points kept from A, manifest says n_kept={n_kept}"
    if center is not None and not kept[center]:
        return f"center {center} not kept"
    taken = np.flatnonzero(~kept)
    if b is None:
        if taken.size:
            return "unmixed sample differs from prepared A"
        js = np.empty(0, dtype=np.int64)
    else:
        slot_of = {row.tobytes(): j for j, row in enumerate(_bits(b))}
        found = [slot_of.get(row.tobytes()) for row in out_bits[taken]]
        if None in found:
            return "a replaced point is not a point of prepared B"
        js = np.array(found, dtype=np.int64)
        if np.unique(js).size != js.size:
            return "a point of prepared B appears twice"
    if labels is not None:
        if not np.array_equal(labels[kept], parts_a[kept]):
            return "kept point carries a label other than A's"
        if taken.size and not np.array_equal(labels[taken], parts_b[js]):
            return "replaced point carries a label other than B's"
    return None


def check_label_weights(weights: dict, class_a: str, class_b: Optional[str],
                        n_kept: int, n: int) -> Optional[str]:
    """Label weights are n_kept/N on A's class and the rest on B's."""
    lam = n_kept / n
    if class_b is None or class_b == class_a:
        expected = {class_a: lam + (1.0 - lam) if class_b else 1.0}
    else:
        expected = {k: w for k, w in ((class_a, lam), (class_b, 1.0 - lam)) if w != 0.0}
    if weights != expected:
        return f"label weights {weights}, expected {expected}"
    return None


def same_tree(left: Path, right: Path) -> list[str]:
    """Relative paths whose bytes differ (or exist on one side only)."""
    def files(root):
        return {p.relative_to(root): p for p in root.rglob("*") if p.is_file()}

    lf, rf = files(left), files(right)
    return sorted(
        str(rel) for rel in lf.keys() | rf.keys()
        if rel not in lf or rel not in rf or lf[rel].read_bytes() != rf[rel].read_bytes()
    )
