"""Check that two source trees write the same bytes.

Run from anywhere:

    python3 tools/same_bytes.py OLD_SRC NEW_SRC [--seed S]

OLD_SRC and NEW_SRC are the src/ directories of two checkouts (make the
older one with `git archive`). Inputs are built once by perfbench/gen.py,
from seed S: a classification set (16 PLYs of 2,048 points), a part-labelled
set (16 PLYs of 10,000 points) and one oneshot pair (a PLY with saliency, a
PLY and an OFF mesh, N = 2048). Each command below then runs once per tree,
in a fresh interpreter with that tree first on PYTHONPATH and its own empty
working directory, so that relative output paths name the same files.

stdout and every written file are compared byte for byte; each path that
differs is printed. The exit status is 1 on any difference or any non-zero
exit code of a run, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402


def make_runs(data: Path, seed: int) -> dict[str, list[str]]:
    """Writes the inputs under data; returns the CLI arguments of each run."""
    classes = list(gen.TEMPLATES)
    gen.make_class_dataset(data / "cls", seed, classes=classes, per_class=4, points=2048, labels=False)
    gen.make_class_dataset(data / "seg", seed, classes=classes, per_class=4, points=10000, labels=True)
    pair = gen.make_oneshot_pairs(data / "pair", seed, pairs=1, points=2048, mesh_grid=7)[0]
    a, b, mesh, s = str(pair["a"]), str(pair["b"]), str(pair["b_mesh"]), str(seed)
    return {
        "augment": ["augment", str(data / "cls"), "--mode", "k", "--rho", "1",
                    "--num-points", "1024", "--seed", s, "--out", "out"],
        "segment-augment": ["segment-augment", str(data / "seg"), "--mode", "r", "--rho", "0.5",
                            "--num-points", "1024", "--seed", s, "--out", "out"],
        "emd": ["emd", a, b, "--dump-assignment", "map.txt"],
        "mix": ["mix", a, pair["label_a"], mesh, pair["label_b"], "--mode", "s",
                "--num-points", "2048", "--seed", s, "--out", "mix.ply"],
        "emd-equalize": ["emd", a, b, "--equalize", "200", "--seed", s, "--dump-assignment", "map.txt"],
        "sample": ["sample", mesh, "--normalize", "--seed", s, "--out", "sample.ply"],
    }


def run(src: Path, argv: list[str], cwd: Path) -> dict[str, bytes]:
    """Runs the CLI on src's package in cwd; returns stdout and every file
    written, keyed by path relative to cwd, or raises RuntimeError when the
    run exits non-zero."""
    cwd.mkdir(parents=True)
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pointcutmix.cli", *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-500:]}")
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
    return {"<stdout>": proc.stdout, **files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    srcs = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, cli_args in make_runs(work / "data", args.seed).items():
            outputs = {}
            for side, src in srcs.items():
                try:
                    outputs[side] = run(src, cli_args, work / side / name)
                except RuntimeError as exc:
                    print(f"{name}: {side} {exc}")
            if len(outputs) < 2:
                failed = True
                continue
            old, new = outputs["old"], outputs["new"]
            differ = sorted(p for p in old.keys() | new.keys() if old.get(p) != new.get(p))
            for path in differ:
                print(f"{name}: differs: {path}")
            failed |= bool(differ)
            print(f"{name}: {'DIFFERENT' if differ else 'same'} ({len(old)} outputs)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
