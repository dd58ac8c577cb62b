"""Command-line surface: EMD queries, single mixes, and batch augmentation.

Subcommands
    emd              distance between two cloud files
    mix              mix one pair of files into a PLY (+ JSON sidecar)
    augment          emit an augmented copy of a class-per-folder dataset
    segment-augment  same, for part-labeled PLY datasets
    sample           surface-sample a mesh into a cloud file

Exit codes: 0 success, 1 input error, 2 internal error.

Batch runs are reproducible to the byte for any --jobs value: every output
sample draws from its own stream seeded by mix64(base_seed, epoch,
sample_index), and each sample's draw order is fixed — (1) gate, (2)
partner choice (random pairing only), (3) source A surface sampling /
equalization, (4) source B likewise, (5) lambda, (6) mask building.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .assignment import EXACT_THRESHOLD, optimal_assignment
from .core import (
    AugmentPolicy,
    MixedSample,
    PartLabels,
    PointCloud,
    SaliencyWeights,
    one_hot,
    validate_cloud,
)
from .ingest import (
    ParseError,
    TriangleMesh,
    equalize_indices,
    normalize_unit_sphere,
    parse_off,
    parse_ply,
    parse_xyz,
    sample_surface,
    write_ply,
    write_xyz,
)
from .mixer import mix_pair, sample_lambda
from .rng import RngStream, make_stream, mix64

CLOUD_SUFFIXES = (".ply", ".xyz")
MESH_SUFFIXES = (".off",)


class InputError(ValueError):
    """User-correctable problem: bad flags, bad files, bad dataset layout."""


# --------------------------------------------------------------------------
# source files


@dataclass
class Source:
    """One dataset file, parsed once up front and reused for every epoch."""

    rel_id: str
    class_index: int
    mesh: Optional[TriangleMesh] = None
    cloud: Optional[PointCloud] = None
    parts: Optional[PartLabels] = None
    saliency: Optional[SaliencyWeights] = None


def _parse_source(path: Path, rel_id: str, class_index: int) -> Source:
    suffix = path.suffix.lower()
    text = path.read_text()
    if suffix in MESH_SUFFIXES:
        mesh = parse_off(text)
        if len(mesh.faces) == 0:
            raise InputError("mesh has no faces")
        return Source(rel_id, class_index, mesh=mesh)
    if suffix == ".ply":
        cloud, parts, saliency = parse_ply(text)
    elif suffix == ".xyz":
        cloud, parts, saliency = parse_xyz(text), None, None
    else:
        raise InputError(f"unsupported file type {suffix!r}")
    validate_cloud(cloud)
    return Source(rel_id, class_index, cloud=cloud, parts=parts, saliency=saliency)


def _load_cloud_file(path: Path) -> Source:
    """A standalone (non-dataset) cloud or mesh argument."""
    if not path.exists():
        raise InputError(f"{path}: no such file")
    try:
        return _parse_source(path, str(path), 0)
    except (ParseError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


@dataclass
class Dataset:
    classes: list[str]
    samples: list[Source]
    skipped: list[dict]


def scan_dataset(root: Path, *, require_parts: bool = False, require_saliency: bool = False) -> Dataset:
    """Walk a class-per-folder tree, parsing every recognized file once.

    Entries with a recognized suffix that are not regular files (a
    directory, a dangling link, a link loop), files that fail to parse, lack
    a required per-point property, cannot be normalized (a cloud without two
    distinct points, a mesh of zero area) or would write the same output
    file as a file kept before them in sorted order are skipped with a
    warning and recorded, and never enter the sample index — so pairing and
    seeds are unaffected by their presence.
    """
    if not root.is_dir():
        raise InputError(f"{root}: not a directory")
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not class_dirs:
        raise InputError(f"{root}: no class folders found")
    classes = [d.name for d in class_dirs]
    samples: list[Source] = []
    skipped: list[dict] = []
    for class_index, class_dir in enumerate(class_dirs):
        files = sorted(
            p for p in class_dir.iterdir() if p.suffix.lower() in CLOUD_SUFFIXES + MESH_SUFFIXES
        )
        kept_by_stem: dict[str, str] = {}  # output file stem -> rel_id writing it
        for path in files:
            rel_id = f"{class_dir.name}/{path.name}"
            try:
                if not path.is_file():
                    raise InputError("not a regular file")
                if path.stem in kept_by_stem:
                    raise InputError(f"output file collides with that of {kept_by_stem[path.stem]}")
                source = _parse_source(path, rel_id, class_index)
                if require_parts and source.parts is None:
                    raise InputError("no per-point 'label' property")
                if require_saliency and source.saliency is None:
                    raise InputError("no per-point 'saliency' property (required by mode 's')")
                if source.mesh is not None:
                    if not source.mesh.triangles()[3].sum() > 0.0:
                        raise InputError("mesh surface area is zero (all triangles degenerate)")
                elif not (source.cloud.points != source.cloud.points[0]).any():
                    raise InputError("cloud has fewer than two distinct points")
            except (ParseError, ValueError, OSError) as exc:
                print(f"warning: skipping {rel_id}: {exc}", file=sys.stderr)
                skipped.append({"file": rel_id, "error": str(exc)})
                continue
            kept_by_stem[path.stem] = rel_id
            samples.append(source)
    if not samples:
        raise InputError(f"{root}: no readable samples")
    return Dataset(classes, samples, skipped)


Rendered = tuple[PointCloud, Optional[PartLabels], Optional[SaliencyWeights]]


def _render(source: Source, num_points: int, stream: RngStream) -> Rendered:
    """Render a source at exactly num_points.

    Meshes are surface-sampled with the given stream; clouds are equalized
    (identity when already the right size, consuming no draws), with part
    labels and saliency riding along on the same index selection.
    """
    if source.mesh is not None:
        return sample_surface(source.mesh, num_points, stream), None, None
    idx = equalize_indices(source.cloud, num_points, stream)
    return (
        PointCloud(source.cloud.points[idx]),
        PartLabels(source.parts.labels[idx]) if source.parts is not None else None,
        SaliencyWeights(source.saliency.values[idx]) if source.saliency is not None else None,
    )


def prepare_source(source: Source, num_points: int, stream: RngStream) -> Rendered:
    """A source rendered at exactly num_points, normalized to the unit sphere."""
    cloud, parts, saliency = _render(source, num_points, stream)
    return normalize_unit_sphere(cloud), parts, saliency


def _write_atomic(path: Path, text: str) -> None:
    """Write a file whole or not at all: a partial write never takes its name."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    try:
        partial.write_text(text)
        partial.replace(path)
    finally:
        partial.unlink(missing_ok=True)


# --------------------------------------------------------------------------
# batch augmentation


@dataclass
class AugmentRun:
    """Everything a worker needs to produce any (epoch, sample) output."""

    dataset: Dataset
    out_dir: Path
    policy: AugmentPolicy
    num_points: int
    epochs: int
    pairs: str
    segmentation: bool

    def partner_of(self, sample_index: int, epoch: int, stream: RngStream) -> int:
        m = len(self.dataset.samples)
        if self.pairs == "roundrobin":
            return (sample_index + 1 + epoch % (m - 1)) % m
        j = int(stream.integers(m - 1))
        return j + 1 if j >= sample_index else j


def _sample_record(sample: MixedSample, classes: list[str]) -> dict:
    """The fields a manifest entry and a mix sidecar both record of a sample."""
    return {
        "lambda_effective": sample.lam_effective,
        "n_kept": sample.mask.n_kept,
        "label_weights": {
            classes[k]: float(w) for k, w in enumerate(sample.label.weights) if w != 0.0
        },
    }


def augment_sample(run: AugmentRun, epoch: int, sample_index: int) -> dict:
    """Produce one output file and its manifest entry. Self-contained and
    deterministic in (run, epoch, sample_index), so scheduling cannot
    matter; this is also the replay path for verifying manifests."""
    dataset, policy = run.dataset, run.policy
    source = dataset.samples[sample_index]
    num_classes = len(dataset.classes)
    stream_seed = mix64(policy.seed, epoch, sample_index)
    stream = make_stream(stream_seed)
    mixed_gate = stream.random() < policy.mix_prob

    out_rel = f"epoch{epoch:03d}/{source.rel_id.rsplit('/', 1)[0]}/{Path(source.rel_id).stem}.ply"
    entry = {
        "output_file": out_rel,
        "epoch": epoch,
        "sample_index": sample_index,
        "source_a_id": source.rel_id,
        "mode": policy.mode,
        "seed": stream_seed,
    }

    if not mixed_gate:
        cloud, parts, _ = prepare_source(source, run.num_points, stream)
        label = one_hot(source.class_index, num_classes)
        sample = MixedSample.passthrough(cloud, label, parts)
    else:
        partner_index = run.partner_of(sample_index, epoch, stream)
        partner = dataset.samples[partner_index]
        cloud_a, parts_a, saliency_a = prepare_source(source, run.num_points, stream)
        cloud_b, parts_b, _ = prepare_source(partner, run.num_points, stream)
        lam = sample_lambda(policy.beta, stream)
        sample = mix_pair(
            cloud_a,
            one_hot(source.class_index, num_classes),
            cloud_b,
            one_hot(partner.class_index, num_classes),
            lam,
            policy.mode,
            stream,
            beta=policy.beta,
            saliency=saliency_a,
            parts1=parts_a if run.segmentation else None,
            parts2=parts_b if run.segmentation else None,
            source_ids=(source.rel_id, partner.rel_id),
        )
        entry["source_b_id"] = partner.rel_id

    entry.update(_sample_record(sample, dataset.classes))
    text = write_ply(sample.cloud, sample.part_labels if run.segmentation else None)
    _write_atomic(run.out_dir / out_rel, text)
    return entry


_WORKER_RUN: Optional[AugmentRun] = None


def _run_task(task: tuple[int, int]) -> dict:
    epoch, sample_index = task
    return augment_sample(_WORKER_RUN, epoch, sample_index)


def run_augment(run: AugmentRun, jobs: int) -> dict:
    """Drive all (epoch, sample) tasks, write manifest.json, return it."""
    dataset, policy = run.dataset, run.policy
    # A failed rerun must not leave an earlier run's manifest beside its samples.
    (run.out_dir / "manifest.json").unlink(missing_ok=True)
    tasks = [(e, i) for e in range(run.epochs) for i in range(len(dataset.samples))]
    if jobs <= 1:
        entries = [augment_sample(run, epoch, index) for epoch, index in tasks]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if policy.mix_prob > 0.0 and run.num_points <= EXACT_THRESHOLD:
            # The exact route imports scipy on first use: import it once
            # here, so forked workers share it instead of each importing it.
            import scipy.optimize  # noqa: F401

        # fork shares the parsed dataset with workers copy-on-write; each
        # task is independent, so any schedule yields identical bytes.
        global _WORKER_RUN
        _WORKER_RUN = run
        try:
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
                chunk = max(1, len(tasks) // (jobs * 4))
                entries = list(pool.map(_run_task, tasks, chunksize=chunk))
        finally:
            _WORKER_RUN = None

    entries.sort(key=lambda e: (e["epoch"], e["sample_index"]))
    mixed = sum("source_b_id" in e for e in entries)
    manifest = {
        "command": "segment-augment" if run.segmentation else "augment",
        "classes": dataset.classes,
        "mode": policy.mode,
        "beta": policy.beta,
        "rho": policy.mix_prob,
        "seed": policy.seed,
        "num_points": run.num_points,
        "epochs": run.epochs,
        "pairs": run.pairs,
        "mixed_count": mixed,
        "unmixed_count": len(entries) - mixed,
        "skipped": dataset.skipped,
        "entries": entries,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write_atomic(run.out_dir / "manifest.json", text)
    return manifest


# --------------------------------------------------------------------------
# subcommands


def cmd_emd(args) -> int:
    a = _load_cloud_file(Path(args.file_a))
    b = _load_cloud_file(Path(args.file_b))
    if a.mesh is not None or b.mesh is not None:
        raise InputError("emd expects point cloud files; surface-sample meshes first")
    cloud_a, cloud_b = a.cloud, b.cloud
    if args.equalize is not None:
        stream = make_stream(args.seed)
        cloud_a = _render(a, args.equalize, stream)[0]
        cloud_b = _render(b, args.equalize, stream)[0]
    if len(cloud_a) != len(cloud_b):
        raise InputError(
            f"cloud sizes differ ({len(cloud_a)} vs {len(cloud_b)}); pass --equalize N"
        )
    assignment = optimal_assignment(cloud_a, cloud_b)
    print(f"{assignment.total_cost / len(assignment):.6f}")
    if args.dump_assignment:
        _write_atomic(
            Path(args.dump_assignment), "\n".join(str(int(j)) for j in assignment.mapping) + "\n"
        )
    return 0


def cmd_mix(args) -> int:
    a = _load_cloud_file(Path(args.file_a))
    b = _load_cloud_file(Path(args.file_b))
    stream = make_stream(args.seed)

    if args.num_points is None:
        if a.mesh is not None or b.mesh is not None:
            raise InputError("mesh inputs require --num-points")
        if len(a.cloud) != len(b.cloud):
            raise InputError(
                f"cloud sizes differ ({len(a.cloud)} vs {len(b.cloud)}); pass --num-points N"
            )
    if args.saliency:
        # The file weighs the first cloud's own points, so it rides the same
        # equalize selection as an in-file saliency property.
        raw = _load_cloud_file(Path(args.saliency))
        if raw.saliency is None:
            raise InputError(f"{args.saliency}: no per-point 'saliency' property")
        if a.mesh is not None:
            raise InputError("--saliency needs a point cloud as the first file, not a mesh")
        if len(raw.saliency.values) != len(a.cloud):
            raise InputError("saliency file size does not match the first cloud")
        a.saliency = raw.saliency
    # Without --num-points both clouds keep their common size, and the
    # identity equalize draws nothing.
    num_points = args.num_points or len(a.cloud)
    cloud_a, parts_a, saliency_a = _render(a, num_points, stream)
    cloud_b, parts_b, _ = _render(b, num_points, stream)

    if args.mode == "s" and saliency_a is None:
        raise InputError("mode 's' needs --saliency or a 'saliency' property in the first file")

    classes = sorted({args.label_a, args.label_b})
    y_a = one_hot(classes.index(args.label_a), len(classes))
    y_b = one_hot(classes.index(args.label_b), len(classes))

    segmentation = parts_a is not None and parts_b is not None
    if (parts_a is None) != (parts_b is None):
        print("warning: only one input carries part labels; mixing without them", file=sys.stderr)

    lam = args.lam if args.lam is not None else sample_lambda(args.beta, stream)
    sample = mix_pair(
        cloud_a, y_a, cloud_b, y_b, lam, args.mode, stream,
        beta=args.beta,
        saliency=saliency_a,
        parts1=parts_a if segmentation else None,
        parts2=parts_b if segmentation else None,
        source_ids=(str(args.file_a), str(args.file_b)),
    )

    out_path = Path(args.out)
    sidecar_path = Path(str(out_path) + ".json")
    sidecar = {
        "output_file": out_path.name,
        "source_a_id": str(args.file_a),
        "source_b_id": str(args.file_b),
        "mode": args.mode,
        "lambda": lam,
        "seed": args.seed,
        **_sample_record(sample, classes),
    }
    if sample.center_index is not None:
        sidecar["center_index"] = sample.center_index
    _write_atomic(out_path, write_ply(sample.cloud, sample.part_labels))
    try:
        _write_atomic(sidecar_path, json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    except BaseException:
        out_path.unlink(missing_ok=True)  # the pair is written whole or not at all
        sidecar_path.unlink(missing_ok=True)
        raise
    return 0


def cmd_augment(args) -> int:
    """augment, or segment-augment when args.segmentation is set."""
    dataset = scan_dataset(
        Path(args.dataset_dir),
        require_parts=args.segmentation,
        require_saliency=args.mode == "s",
    )
    if args.rho > 0.0 and len(dataset.samples) < 2:
        raise InputError("mixing needs at least 2 readable samples (or --rho 0)")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    run = AugmentRun(
        dataset=dataset,
        out_dir=out_dir,
        policy=AugmentPolicy(beta=args.beta, mix_prob=args.rho, mode=args.mode, seed=args.seed),
        num_points=args.num_points,
        epochs=args.epochs,
        pairs=args.pairs,
        segmentation=args.segmentation,
    )
    run_augment(run, args.jobs)
    return 0


def cmd_sample(args) -> int:
    source = _load_cloud_file(Path(args.mesh_file))
    if source.mesh is None:
        raise InputError(f"{args.mesh_file}: expected an OFF mesh")
    cloud = sample_surface(source.mesh, args.num_points, make_stream(args.seed))
    if args.normalize:
        cloud = normalize_unit_sphere(cloud)
    out_path = Path(args.out)
    suffix = out_path.suffix.lower()
    if suffix == ".ply":
        text = write_ply(cloud)
    elif suffix == ".xyz":
        text = write_xyz(cloud)
    else:
        raise InputError(f"unsupported output extension {suffix!r} (use .ply or .xyz)")
    _write_atomic(out_path, text)
    return 0


# --------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; bad flags are input errors here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(convert, valid, message: str):
    """An argparse type: convert the text, then fail with message unless
    valid(value), which nan never is. It takes convert's name, so argparse
    reports text convert rejects as "invalid int value: 'abc'"."""

    def check(text: str):
        value = convert(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(message)
        return value

    check.__name__ = convert.__name__
    return check


_u64 = _checked(int, lambda v: 0 <= v < 2**64, "seed must fit in 64 unsigned bits")
_positive_int = _checked(int, lambda v: v >= 1, "must be >= 1")
_point_count = _checked(int, lambda v: v >= 2, "must be >= 2 (one point cannot be normalized)")
_positive_float = _checked(float, lambda v: v > 0, "must be > 0")
_unit_float = _checked(float, lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")


def _add_augment_flags(sub, *, default_rho: float):
    sub.add_argument("dataset_dir", help="dataset root with one folder per class")
    sub.add_argument("--mode", choices=["r", "k", "s"], default="k")
    sub.add_argument("--beta", type=_positive_float, default=1.0)
    sub.add_argument("--rho", type=_unit_float, default=default_rho,
                     help="probability that a sample gets mixed")
    sub.add_argument("--seed", type=_u64, default=0)
    sub.add_argument("--num-points", type=_point_count, default=1024)
    sub.add_argument("--epochs", type=_positive_int, default=1)
    sub.add_argument("--pairs", choices=["random", "roundrobin"], default="random")
    sub.add_argument("--jobs", type=_positive_int, default=1)
    sub.add_argument("--out", required=True, help="output dataset directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pointcutmix", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    emd_cmd = commands.add_parser("emd", help="Earth Mover's Distance between two clouds")
    emd_cmd.add_argument("file_a")
    emd_cmd.add_argument("file_b")
    emd_cmd.add_argument("--equalize", type=_positive_int, metavar="N",
                         help="resize both clouds to N points first")
    emd_cmd.add_argument("--seed", type=_u64, default=0)
    emd_cmd.add_argument("--dump-assignment", metavar="FILE",
                         help="write the optimal mapping, one index per line")
    emd_cmd.set_defaults(func=cmd_emd)

    mix_cmd = commands.add_parser("mix", help="mix one pair of cloud files")
    mix_cmd.add_argument("file_a")
    mix_cmd.add_argument("label_a")
    mix_cmd.add_argument("file_b")
    mix_cmd.add_argument("label_b")
    mix_cmd.add_argument("--mode", choices=["r", "k", "s"], default="k")
    mix_cmd.add_argument("--beta", type=_positive_float, default=1.0)
    mix_cmd.add_argument("--seed", type=_u64, default=0)
    mix_cmd.add_argument("--num-points", type=_positive_int)
    mix_cmd.add_argument("--lambda", dest="lam", type=_unit_float,
                         help="use this keep ratio instead of drawing one")
    mix_cmd.add_argument("--saliency", metavar="FILE",
                         help="PLY with a per-point 'saliency' property (mode s)")
    mix_cmd.add_argument("--out", required=True)
    mix_cmd.set_defaults(func=cmd_mix)

    augment_cmd = commands.add_parser("augment", help="augment a classification dataset")
    _add_augment_flags(augment_cmd, default_rho=1.0)
    augment_cmd.set_defaults(func=cmd_augment, segmentation=False)

    seg_cmd = commands.add_parser("segment-augment", help="augment a part-labeled dataset")
    _add_augment_flags(seg_cmd, default_rho=0.5)
    seg_cmd.set_defaults(func=cmd_augment, segmentation=True)

    sample_cmd = commands.add_parser("sample", help="surface-sample a mesh to a cloud")
    sample_cmd.add_argument("mesh_file")
    sample_cmd.add_argument("--num-points", type=_positive_int, default=1024)
    sample_cmd.add_argument("--seed", type=_u64, default=0)
    sample_cmd.add_argument("--normalize", action="store_true",
                            help="center and scale onto the unit sphere")
    sample_cmd.add_argument("--out", required=True)
    sample_cmd.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - translated to exit code 2
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
