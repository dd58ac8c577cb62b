import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pointcutmix import assignment, cli
from pointcutmix.assignment import optimal_assignment, solve_auction
from pointcutmix.cli import (
    AugmentRun,
    augment_sample,
    main,
    scan_dataset,
)
from pointcutmix.core import AugmentPolicy, PartLabels, PointCloud, SaliencyWeights, one_hot
from pointcutmix.ingest import (
    equalize_indices,
    normalize_unit_sphere,
    parse_ply,
    write_ply,
    write_xyz,
)
from pointcutmix.mixer import mix_pair
from pointcutmix.rng import make_stream, mix64

from conftest import FIXTURES, random_cloud

CHAIR = os.path.join(FIXTURES, "chair.ply")
AIRPLANE = os.path.join(FIXTURES, "airplane.ply")
EMD6_A = os.path.join(FIXTURES, "emd6_a.xyz")
EMD6_B = os.path.join(FIXTURES, "emd6_b.xyz")
GOLDEN = os.path.join(FIXTURES, "golden_mix_k.ply")

UNIT_CUBE_OFF = (
    "OFF\n8 12 0\n"
    "0 0 0\n1 0 0\n1 1 0\n0 1 0\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n"
    "3 0 1 2\n3 0 2 3\n3 4 6 5\n3 4 7 6\n3 0 4 5\n3 0 5 1\n"
    "3 1 5 6\n3 1 6 2\n3 2 6 7\n3 2 7 3\n3 3 7 4\n3 3 4 0\n"
)


def write_dataset(root: Path, *, n_points=32, labels=False, saliency=False, files_per_class=3):
    """Two-class toy dataset of small PLY clouds."""
    rng = np.random.default_rng(2024)
    for class_index, name in enumerate(["table", "vase"]):
        class_dir = root / name
        class_dir.mkdir(parents=True)
        for k in range(files_per_class):
            cloud = normalize_unit_sphere(random_cloud(rng, n_points))
            parts = (
                PartLabels(np.full(n_points, class_index * 10 + k, dtype=np.int32))
                if labels
                else None
            )
            weights = (
                SaliencyWeights(rng.random(n_points).astype(np.float32)) if saliency else None
            )
            (class_dir / f"{name}_{k}.ply").write_text(write_ply(cloud, parts, weights))
    return root


# --- emd -----------------------------------------------------------------------


def test_emd_identical_files(capsys):
    assert main(["emd", CHAIR, CHAIR]) == 0
    assert capsys.readouterr().out.strip() == "0.000000"


def test_emd_single_points(tmp_path, capsys):
    a = tmp_path / "a.xyz"
    b = tmp_path / "b.xyz"
    a.write_text("0 0 0\n")
    b.write_text("3 4 0\n")
    assert main(["emd", str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "5.000000"


def test_emd_matches_frozen_oracle_value(capsys):
    # 1.258076... was frozen from the exhaustive 6-point enumeration.
    assert main(["emd", EMD6_A, EMD6_B]) == 0
    assert capsys.readouterr().out.strip() == "1.258076"


def test_emd_dump_assignment(tmp_path, capsys):
    dump = tmp_path / "mapping.txt"
    assert main(["emd", EMD6_A, EMD6_B, "--dump-assignment", str(dump)]) == 0
    capsys.readouterr()
    mapping = [int(line) for line in dump.read_text().splitlines()]
    assert mapping == [4, 1, 2, 3, 0, 5]  # frozen oracle permutation


def test_emd_size_mismatch_needs_equalize(tmp_path, capsys):
    a = tmp_path / "a.xyz"
    b = tmp_path / "b.xyz"
    a.write_text("0 0 0\n1 0 0\n")
    b.write_text("0 0 0\n")
    assert main(["emd", str(a), str(b)]) == 1
    assert "--equalize" in capsys.readouterr().err
    assert main(["emd", str(a), str(b), "--equalize", "2"]) == 0


def equalized_pair(tmp_path, sizes, n, seed):
    """Two cloud files, and the clouds equalize_indices renders from them at
    n points, A first and then B, from one make_stream(seed)."""
    rng = np.random.default_rng(sum(sizes))
    paths = [tmp_path / "a.ply", tmp_path / "b.ply"]
    stream = make_stream(seed)
    rendered = []
    for path, size in zip(paths, sizes):
        path.write_text(write_ply(random_cloud(rng, size)))
        cloud, _, _ = parse_ply(path.read_text())
        rendered.append(PointCloud(cloud.points[equalize_indices(cloud, n, stream)]))
    return paths, rendered, stream


@pytest.mark.parametrize("sizes", [(40, 50), (40, 17)])
def test_emd_equalize_draw_order(tmp_path, capsys, sizes):
    """emd --equalize renders A, then B, from one stream seeded by --seed."""
    (a, b), (ca, cb), _ = equalized_pair(tmp_path, sizes, 24, 13)
    dump = tmp_path / "mapping.txt"
    argv = ["emd", str(a), str(b), "--equalize", "24", "--seed", "13",
            "--dump-assignment", str(dump)]
    assert main(argv) == 0
    expected = optimal_assignment(ca, cb)
    assert capsys.readouterr().out.strip() == f"{expected.total_cost / 24:.6f}"
    assert [int(j) for j in dump.read_text().split()] == expected.mapping.tolist()


@pytest.mark.parametrize("sizes", [(40, 50), (40, 17)])
def test_mix_num_points_draw_order(tmp_path, sizes):
    """mix --num-points renders A, then B, then builds the mask, all from one
    stream seeded by --seed."""
    (a, b), (ca, cb), stream = equalized_pair(tmp_path, sizes, 24, 21)
    out = tmp_path / "m.ply"
    argv = ["mix", str(a), "x", str(b), "y", "--num-points", "24", "--seed", "21",
            "--lambda", "0.5", "--mode", "k", "--out", str(out)]
    assert main(argv) == 0
    expected = mix_pair(ca, one_hot(0, 2), cb, one_hot(1, 2), 0.5, "k", stream, beta=1.0)
    assert out.read_bytes() == write_ply(expected.cloud).encode()


def test_emd_missing_file(capsys):
    assert main(["emd", "/nonexistent.xyz", EMD6_B]) == 1
    assert "no such file" in capsys.readouterr().err


def test_emd_rejects_mesh_input(tmp_path, capsys):
    mesh = tmp_path / "cube.off"
    mesh.write_text(UNIT_CUBE_OFF)
    assert main(["emd", str(mesh), EMD6_B]) == 1


def test_emd_parse_error_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.ply"
    bad.write_text("ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n")
    assert main(["emd", str(bad), EMD6_B]) == 1
    assert "binary" in capsys.readouterr().err


# --- mix -----------------------------------------------------------------------


def test_mix_regenerates_golden_bytes(tmp_path):
    out = tmp_path / "regen.ply"
    assert (
        main(
            ["mix", CHAIR, "chair", AIRPLANE, "airplane",
             "--mode", "k", "--beta", "1", "--seed", "1", "--out", str(out)]
        )
        == 0
    )
    assert out.read_bytes() == Path(GOLDEN).read_bytes()


def test_mix_lambda_one_returns_first_input(tmp_path):
    out = tmp_path / "same.ply"
    assert (
        main(["mix", CHAIR, "chair", AIRPLANE, "airplane",
              "--lambda", "1.0", "--seed", "9", "--out", str(out)])
        == 0
    )
    mixed, _, _ = parse_ply(out.read_text())
    chair, _, _ = parse_ply(Path(CHAIR).read_text())
    assert np.array_equal(mixed.points.view(np.uint32), chair.points.view(np.uint32))
    sidecar = json.loads((tmp_path / "same.ply.json").read_text())
    assert sidecar["lambda_effective"] == 1.0
    assert sidecar["label_weights"] == {"chair": 1.0}


def test_mix_is_deterministic(tmp_path):
    args = ["mix", CHAIR, "chair", AIRPLANE, "airplane",
            "--mode", "r", "--seed", "33"]
    out1, out2 = tmp_path / "a.ply", tmp_path / "b.ply"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_mix_mode_s_requires_saliency(tmp_path, capsys):
    out = tmp_path / "s.ply"
    assert (
        main(["mix", CHAIR, "chair", AIRPLANE, "airplane",
              "--mode", "s", "--out", str(out)])
        == 1
    )
    assert "saliency" in capsys.readouterr().err


def test_mix_mode_s_with_saliency_file(tmp_path):
    rng = np.random.default_rng(0)
    chair, _, _ = parse_ply(Path(CHAIR).read_text())
    weights = SaliencyWeights(rng.random(1024).astype(np.float32))
    sal_file = tmp_path / "weights.ply"
    sal_file.write_text(write_ply(chair, saliency=weights))
    out = tmp_path / "s.ply"
    assert (
        main(["mix", CHAIR, "chair", AIRPLANE, "airplane",
              "--mode", "s", "--seed", "3", "--saliency", str(sal_file),
              "--out", str(out)])
        == 0
    )
    sidecar = json.loads((tmp_path / "s.ply.json").read_text())
    assert 0 <= sidecar["center_index"] < 1024


def test_mix_segmentation_full_replacement(tmp_path):
    rng = np.random.default_rng(1)
    a = tmp_path / "a.ply"
    b = tmp_path / "b.ply"
    a.write_text(write_ply(random_cloud(rng, 16), PartLabels(np.zeros(16, dtype=np.int32))))
    b.write_text(write_ply(random_cloud(rng, 16), PartLabels(np.ones(16, dtype=np.int32))))
    out = tmp_path / "mixed.ply"
    assert main(["mix", str(a), "x", str(b), "y", "--lambda", "0.0", "--out", str(out)]) == 0
    _, labels, _ = parse_ply(out.read_text())
    assert np.array_equal(labels.labels, np.ones(16, dtype=np.int32))


def test_mix_size_mismatch_without_num_points(tmp_path, capsys):
    rng = np.random.default_rng(2)
    a = tmp_path / "a.ply"
    b = tmp_path / "b.ply"
    a.write_text(write_ply(random_cloud(rng, 16)))
    b.write_text(write_ply(random_cloud(rng, 20)))
    out = tmp_path / "m.ply"
    assert main(["mix", str(a), "x", str(b), "y", "--out", str(out)]) == 1
    assert "--num-points" in capsys.readouterr().err
    assert main(["mix", str(a), "x", str(b), "y", "--num-points", "16", "--out", str(out)]) == 0
    mixed, _, _ = parse_ply(out.read_text())
    assert len(mixed) == 16


def test_mix_same_label_single_class(tmp_path):
    out = tmp_path / "m.ply"
    assert main(["mix", CHAIR, "chair", CHAIR, "chair", "--seed", "4", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "m.ply.json").read_text())
    assert sidecar["label_weights"] == {"chair": 1.0}


# --- augment ---------------------------------------------------------------------


def read_manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def test_augment_rho_zero_copies_normalized_sources(tmp_path, capsys):
    data = write_dataset(tmp_path / "data")
    out = tmp_path / "out"
    assert (
        main(["augment", str(data), "--rho", "0", "--num-points", "32",
              "--seed", "5", "--out", str(out)])
        == 0
    )
    manifest = read_manifest(out)
    assert manifest["mixed_count"] == 0
    assert manifest["unmixed_count"] == 6
    for entry in manifest["entries"]:
        assert "source_b_id" not in entry
        assert entry["lambda_effective"] == 1.0
        out_cloud, _, _ = parse_ply((out / entry["output_file"]).read_text())
        src_cloud, _, _ = parse_ply((data / entry["source_a_id"]).read_text())
        expected = normalize_unit_sphere(src_cloud)
        assert np.array_equal(
            out_cloud.points.view(np.uint32), expected.points.view(np.uint32)
        )
        assert entry["label_weights"] == {entry["source_a_id"].split("/")[0]: 1.0}


def test_augment_rho_one_mixes_everything(tmp_path):
    data = write_dataset(tmp_path / "data")
    out = tmp_path / "out"
    assert (
        main(["augment", str(data), "--rho", "1", "--mode", "r",
              "--num-points", "32", "--seed", "6", "--out", str(out)])
        == 0
    )
    manifest = read_manifest(out)
    assert manifest["mixed_count"] == 6
    assert len(manifest["entries"]) == 6
    for entry in manifest["entries"]:
        assert entry["source_b_id"] != entry["source_a_id"]
        assert abs(sum(entry["label_weights"].values()) - 1.0) <= 1e-9
        assert (out / entry["output_file"]).exists()


def test_augment_epochs_and_sorted_entries(tmp_path):
    data = write_dataset(tmp_path / "data")
    out = tmp_path / "out"
    assert (
        main(["augment", str(data), "--epochs", "2", "--num-points", "32",
              "--seed", "7", "--out", str(out)])
        == 0
    )
    manifest = read_manifest(out)
    assert len(manifest["entries"]) == 12
    keys = [(e["epoch"], e["sample_index"]) for e in manifest["entries"]]
    assert keys == sorted(keys)
    assert (out / "epoch000").is_dir() and (out / "epoch001").is_dir()
    # epochs re-draw: same sample index, different outcomes possible;
    # at minimum the per-sample seeds must differ
    seeds = {(e["epoch"], e["sample_index"]): e["seed"] for e in manifest["entries"]}
    assert seeds[(0, 0)] != seeds[(1, 0)]


def test_augment_jobs_do_not_change_bytes(tmp_path):
    data = write_dataset(tmp_path / "data")
    outs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"out{jobs}"
        assert (
            main(["augment", str(data), "--num-points", "32", "--seed", "8",
                  "--epochs", "2", "--jobs", jobs, "--out", str(out)])
            == 0
        )
        outs.append(out)
    tree1 = {
        p.relative_to(outs[0]): p.read_bytes() for p in sorted(outs[0].rglob("*")) if p.is_file()
    }
    tree2 = {
        p.relative_to(outs[1]): p.read_bytes() for p in sorted(outs[1].rglob("*")) if p.is_file()
    }
    assert tree1 == tree2


def test_augment_manifest_write_failure_leaves_no_manifest(tmp_path, monkeypatch, capsys):
    """A manifest whose write fails half way is never left as manifest.json."""
    data = write_dataset(tmp_path / "data")
    out = tmp_path / "out"
    real_write_text = Path.write_text

    def fail_half_way(path, text, *args, **kwargs):
        if path.name.startswith("manifest.json"):
            real_write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("No space left on device")
        return real_write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_half_way)
    assert main(["augment", str(data), "--num-points", "32", "--out", str(out)]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert [p.name for p in out.iterdir() if p.is_file()] == []  # nor a partial file
    assert len(list(out.rglob("*.ply"))) == 6  # the samples themselves were written


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_augment_sample_write_failure_leaves_no_manifest(tmp_path, monkeypatch, capsys, jobs):
    """A run whose sample write fails exits non-zero with no manifest.json and
    no partial file; with --jobs 2 each forked worker fails at its third sample."""
    data = write_dataset(tmp_path / "data", files_per_class=4)
    out = tmp_path / "out"
    real_write_ply = cli.write_ply
    calls = []

    def fail_at_third(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise OSError("No space left on device")
        return real_write_ply(*args, **kwargs)

    monkeypatch.setattr(cli, "write_ply", fail_at_third)
    argv = ["augment", str(data), "--num-points", "32", "--jobs", jobs, "--out", str(out)]
    assert main(argv) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert list(out.rglob("*.partial")) == []
    assert len(list(out.rglob("*.ply"))) < 8


def test_augment_rerun_failure_leaves_no_earlier_manifest(tmp_path, monkeypatch, capsys):
    """A failed rerun into an earlier run's --out does not leave the earlier
    manifest beside the new samples, where the tree would look complete."""
    data = write_dataset(tmp_path / "data", files_per_class=4)
    out = tmp_path / "out"
    argv = ["augment", str(data), "--num-points", "32", "--out", str(out)]
    assert main(argv + ["--seed", "1"]) == 0
    assert (out / "manifest.json").exists()
    real_write_ply = cli.write_ply
    calls = []

    def fail_at_third(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise OSError("No space left on device")
        return real_write_ply(*args, **kwargs)

    monkeypatch.setattr(cli, "write_ply", fail_at_third)
    assert main(argv + ["--seed", "2"]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_augment_sample_written_whole_or_not_at_all(tmp_path, monkeypatch, capsys):
    """A sample whose write fails half way leaves neither its file nor a partial."""
    data = write_dataset(tmp_path / "data")
    out = tmp_path / "out"
    real_write_text = Path.write_text

    def fail_half_way(path, text, *args, **kwargs):
        if path.name == "vase_0.ply.partial":
            real_write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("No space left on device")
        return real_write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_half_way)
    assert main(["augment", str(data), "--num-points", "32", "--out", str(out)]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert sorted(p.name for p in out.rglob("*") if p.is_file()) == [
        "table_0.ply", "table_1.ply", "table_2.ply"
    ]


def test_warm_start_moves_no_random_draw(tmp_path, monkeypatch):
    """The warm-started auction draws nothing: against the cold auction, the
    manifest (gates, partners, lambda, n_kept, label weights) is the same
    bytes, and only the replaced points of the samples may move."""
    data = write_dataset(tmp_path / "data", n_points=300, files_per_class=4)
    argv = ["augment", str(data), "--mode", "k", "--rho", "1", "--num-points", "300"]
    assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
    monkeypatch.setattr(
        assignment, "_warm_auction", lambda x1, x2, config: (solve_auction(x1, x2, config),)
    )
    assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
    warm, cold = output_tree(tmp_path / "warm"), output_tree(tmp_path / "cold")
    assert warm.keys() == cold.keys()
    assert warm["manifest.json"] == cold["manifest.json"]
    assert any(warm[name] != cold[name] for name in warm)


@pytest.mark.parametrize(
    "command, target",
    [
        (["mix", EMD6_A, "a", EMD6_B, "b", "--lambda", "0.5", "--out", "{out}/mix.ply"], "mix.ply"),
        (["mix", EMD6_A, "a", EMD6_B, "b", "--lambda", "0.5", "--out", "{out}/mix.ply"],
         "mix.ply.json"),
        (["sample", "{out}/cube.off", "--num-points", "64", "--out", "{out}/cube.ply"], "cube.ply"),
        (["emd", EMD6_A, EMD6_B, "--dump-assignment", "{out}/map.txt"], "map.txt"),
    ],
)
def test_one_shot_output_written_whole_or_not_at_all(tmp_path, monkeypatch, capsys, command, target):
    """An output whose write fails half way leaves neither its file nor a partial."""
    (tmp_path / "cube.off").write_text(UNIT_CUBE_OFF)
    if target == "mix.ply.json":
        (tmp_path / target).write_text("{}\n")  # an earlier run's sidecar goes too
    real_write_text = Path.write_text

    def fail_half_way(path, text, *args, **kwargs):
        if path.name in (target, target + ".partial"):
            real_write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("No space left on device")
        return real_write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_half_way)
    assert main([arg.format(out=tmp_path) for arg in command]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert not (tmp_path / target).exists()
    assert not (tmp_path / (target + ".partial")).exists()
    if target == "mix.ply.json":
        assert not (tmp_path / "mix.ply").exists()  # the pair is all or nothing


def test_augment_roundrobin_partners(tmp_path):
    data = write_dataset(tmp_path / "data")
    out = tmp_path / "out"
    assert (
        main(["augment", str(data), "--pairs", "roundrobin", "--num-points", "32",
              "--seed", "9", "--out", str(out)])
        == 0
    )
    manifest = read_manifest(out)
    ids = [e["source_a_id"] for e in manifest["entries"]]
    for entry in manifest["entries"]:
        expected_partner = ids[(entry["sample_index"] + 1) % len(ids)]
        assert entry["source_b_id"] == expected_partner


def test_augment_skips_unreadable_files(tmp_path, capsys):
    data = write_dataset(tmp_path / "data")
    (data / "table" / "broken.ply").write_text("ply\nformat ascii 1.0\ngarbage\n")
    out = tmp_path / "out"
    assert main(["augment", str(data), "--num-points", "32", "--out", str(out)]) == 0
    assert "skipping table/broken.ply" in capsys.readouterr().err
    manifest = read_manifest(out)
    assert manifest["skipped"][0]["file"] == "table/broken.ply"
    assert len(manifest["entries"]) == 6
    assert all("broken" not in e["source_a_id"] for e in manifest["entries"])


@pytest.mark.parametrize(
    "body",
    ["OFF\n1000000000000 0 0\n", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9223372036854775808\n"],
    ids=["huge-vertex-count", "face-index-past-int64"],
)
def test_augment_skips_off_files_with_impossible_counts(tmp_path, body):
    data = write_dataset(tmp_path / "data")
    (data / "table" / "bad.off").write_text(body)
    out = tmp_path / "out"
    assert main(["augment", str(data), "--num-points", "32", "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert [s["file"] for s in manifest["skipped"]] == ["table/bad.off"]
    assert len(manifest["entries"]) == 6


def output_tree(out_dir: Path) -> dict:
    """Relative path -> bytes of every file a run wrote."""
    return {
        str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def assert_same_run_without(tmp_path, data: Path, extra: list[Path], expected_skipped: list[str]):
    """Augmenting data writes what it writes with the extra files removed,
    except that the manifest records them as skipped."""
    out = tmp_path / "out"
    assert main(["augment", str(data), "--num-points", "32", "--seed", "5", "--out", str(out)]) == 0
    with_extra = output_tree(out)
    manifest = read_manifest(out)
    assert [s["file"] for s in manifest["skipped"]] == expected_skipped
    for path in extra:
        path.unlink()
    clean = tmp_path / "clean"
    assert main(["augment", str(data), "--num-points", "32", "--seed", "5", "--out", str(clean)]) == 0
    without = output_tree(clean)
    assert with_extra.keys() == without.keys()
    assert all(with_extra[k] == without[k] for k in with_extra if k != "manifest.json")
    manifest["skipped"] = []
    assert manifest == read_manifest(clean)
    return read_manifest(out)["skipped"]


def test_augment_skips_output_name_collisions(tmp_path, capsys):
    data = write_dataset(tmp_path / "data")
    rng = np.random.default_rng(8)
    twin = data / "table" / "table_1.xyz"  # would also write epoch000/table/table_1.ply
    twin.write_text(write_xyz(normalize_unit_sphere(random_cloud(rng, 32))))
    skipped = assert_same_run_without(tmp_path, data, [twin], ["table/table_1.xyz"])
    assert "table/table_1.ply" in skipped[0]["error"]
    assert "skipping table/table_1.xyz" in capsys.readouterr().err


def test_augment_skips_sources_that_cannot_be_normalized(tmp_path):
    data = write_dataset(tmp_path / "data")
    same = data / "table" / "same.xyz"
    same.write_text("1 1 1\n" * 32)
    single = data / "vase" / "single.xyz"
    single.write_text("0.5 0.25 0\n")
    flat = data / "vase" / "flat.off"  # every triangle lies on one line
    flat.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n2 0 0\n3 0 0\n3 0 1 2\n3 1 2 3\n")
    skipped = assert_same_run_without(
        tmp_path, data, [same, single, flat], ["table/same.xyz", "vase/flat.off", "vase/single.xyz"]
    )
    assert [s["error"] for s in skipped] == [
        "cloud has fewer than two distinct points",
        "mesh surface area is zero (all triangles degenerate)",
        "cloud has fewer than two distinct points",
    ]


def test_augment_gate_accounting_matches_streams(tmp_path):
    data = write_dataset(tmp_path / "data")
    out = tmp_path / "out"
    seed, rho = 10, 0.5
    assert (
        main(["augment", str(data), "--rho", str(rho), "--seed", str(seed),
              "--epochs", "4", "--num-points", "32", "--out", str(out)])
        == 0
    )
    manifest = read_manifest(out)
    for entry in manifest["entries"]:
        gate = make_stream(mix64(seed, entry["epoch"], entry["sample_index"])).random() < rho
        assert ("source_b_id" in entry) == gate
        assert entry["seed"] == mix64(seed, entry["epoch"], entry["sample_index"])
    expected_mixed = sum("source_b_id" in e for e in manifest["entries"])
    assert manifest["mixed_count"] == expected_mixed
    assert manifest["unmixed_count"] == len(manifest["entries"]) - expected_mixed


def test_augment_manifest_replay(tmp_path):
    data = write_dataset(tmp_path / "data")
    out = tmp_path / "out"
    assert (
        main(["augment", str(data), "--rho", "0.7", "--mode", "k", "--seed", "11",
              "--epochs", "2", "--num-points", "32", "--out", str(out)])
        == 0
    )
    manifest = read_manifest(out)
    replay_dir = tmp_path / "replay"
    run = AugmentRun(
        dataset=scan_dataset(data),
        out_dir=replay_dir,
        policy=AugmentPolicy(
            beta=manifest["beta"],
            mix_prob=manifest["rho"],
            mode=manifest["mode"],
            seed=manifest["seed"],
        ),
        num_points=manifest["num_points"],
        epochs=manifest["epochs"],
        pairs=manifest["pairs"],
        segmentation=False,
    )
    for entry in manifest["entries"]:
        target = replay_dir / entry["output_file"]
        target.parent.mkdir(parents=True, exist_ok=True)
        replayed = augment_sample(run, entry["epoch"], entry["sample_index"])
        assert replayed == entry
        assert target.read_bytes() == (out / entry["output_file"]).read_bytes()


def test_augment_mode_s_needs_saliency_property(tmp_path, capsys):
    data = write_dataset(tmp_path / "data")  # no saliency property
    out = tmp_path / "out"
    assert main(["augment", str(data), "--mode", "s", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "saliency" in err and "no readable samples" in err


def test_augment_mode_s_with_saliency(tmp_path):
    data = write_dataset(tmp_path / "data", saliency=True)
    out = tmp_path / "out"
    assert (
        main(["augment", str(data), "--mode", "s", "--num-points", "32",
              "--seed", "12", "--out", str(out)])
        == 0
    )
    assert read_manifest(out)["mixed_count"] == 6


def test_augment_mode_s_mesh_only_dataset_fails_at_scan(tmp_path, capsys):
    data = tmp_path / "data"
    for name in ("boxes", "cubes"):
        (data / name).mkdir(parents=True)
        (data / name / f"{name}.off").write_text(UNIT_CUBE_OFF)
    out = tmp_path / "out"
    assert main(["augment", str(data), "--mode", "s", "--out", str(out)]) == 1
    assert "no readable samples" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/epoch*"))


def test_augment_mode_s_skips_meshes(tmp_path):
    data = write_dataset(tmp_path / "data", saliency=True)
    (data / "table" / "cube.off").write_text(UNIT_CUBE_OFF)
    out = tmp_path / "out"
    assert (
        main(["augment", str(data), "--mode", "s", "--num-points", "32",
              "--seed", "12", "--out", str(out)])
        == 0
    )
    manifest = read_manifest(out)
    assert [s["file"] for s in manifest["skipped"]] == ["table/cube.off"]
    assert len(manifest["entries"]) == 6


def test_augment_empty_dataset(tmp_path, capsys):
    empty = tmp_path / "data"
    empty.mkdir()
    assert main(["augment", str(empty), "--out", str(tmp_path / "out")]) == 1
    assert "no class folders" in capsys.readouterr().err


def test_augment_single_sample_needs_rho_zero(tmp_path, capsys):
    data = tmp_path / "data"
    (data / "solo").mkdir(parents=True)
    rng = np.random.default_rng(3)
    (data / "solo" / "only.ply").write_text(write_ply(normalize_unit_sphere(random_cloud(rng, 32))))
    out = tmp_path / "out"
    assert main(["augment", str(data), "--num-points", "32", "--out", str(out)]) == 1
    assert "at least 2" in capsys.readouterr().err
    assert main(["augment", str(data), "--rho", "0", "--num-points", "32", "--out", str(out)]) == 0


def test_augment_off_meshes(tmp_path):
    data = tmp_path / "data"
    for name in ("boxes", "cubes"):
        (data / name).mkdir(parents=True)
        for k in range(2):
            (data / name / f"{name}_{k}.off").write_text(UNIT_CUBE_OFF)
    out = tmp_path / "out"
    assert (
        main(["augment", str(data), "--num-points", "64", "--seed", "13",
              "--out", str(out)])
        == 0
    )
    manifest = read_manifest(out)
    assert len(manifest["entries"]) == 4
    for entry in manifest["entries"]:
        cloud, _, _ = parse_ply((out / entry["output_file"]).read_text())
        assert len(cloud) == 64


# --- segment-augment --------------------------------------------------------------


def test_segment_augment_rho_zero_keeps_labels(tmp_path):
    data = write_dataset(tmp_path / "data", labels=True)
    out = tmp_path / "out"
    assert (
        main(["segment-augment", str(data), "--rho", "0", "--num-points", "32",
              "--out", str(out)])
        == 0
    )
    manifest = read_manifest(out)
    for entry in manifest["entries"]:
        _, labels, _ = parse_ply((out / entry["output_file"]).read_text())
        src_cloud, src_labels, _ = parse_ply((data / entry["source_a_id"]).read_text())
        assert np.array_equal(labels.labels, src_labels.labels)


def test_segment_augment_labels_trace_to_sources(tmp_path):
    # Every file gets a unique constant label, so each output point's label
    # identifies its source file; cross-check against the recorded pair.
    data = write_dataset(tmp_path / "data", labels=True)
    out = tmp_path / "out"
    assert (
        main(["segment-augment", str(data), "--rho", "1", "--mode", "r",
              "--num-points", "32", "--seed", "14", "--out", str(out)])
        == 0
    )
    manifest = read_manifest(out)
    tag_of = {}
    for class_dir in sorted(data.iterdir()):
        for f in sorted(class_dir.iterdir()):
            _, labels, _ = parse_ply(f.read_text())
            tag_of[f"{class_dir.name}/{f.name}"] = int(labels.labels[0])
    for entry in manifest["entries"]:
        _, labels, _ = parse_ply((out / entry["output_file"]).read_text())
        allowed = {tag_of[entry["source_a_id"]], tag_of[entry["source_b_id"]]}
        assert set(np.unique(labels.labels).tolist()) <= allowed


def test_segment_augment_default_rho_half(tmp_path):
    data = write_dataset(tmp_path / "data", labels=True)
    out = tmp_path / "out"
    assert main(["segment-augment", str(data), "--num-points", "32",
                 "--seed", "15", "--out", str(out)]) == 0
    assert read_manifest(out)["rho"] == 0.5


def test_segment_augment_skips_unlabeled_files(tmp_path, capsys):
    data = write_dataset(tmp_path / "data", labels=True)
    rng = np.random.default_rng(4)
    (data / "table" / "nolabel.ply").write_text(write_ply(random_cloud(rng, 32)))
    out = tmp_path / "out"
    assert main(["segment-augment", str(data), "--num-points", "32",
                 "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["skipped"][0]["file"] == "table/nolabel.ply"
    assert "label" in manifest["skipped"][0]["error"]


# --- sample -----------------------------------------------------------------------


def test_sample_cube_normalized(tmp_path):
    mesh = tmp_path / "cube.off"
    mesh.write_text(UNIT_CUBE_OFF)
    out = tmp_path / "cube.ply"
    assert (
        main(["sample", str(mesh), "--num-points", "1024", "--normalize",
              "--seed", "16", "--out", str(out)])
        == 0
    )
    cloud, _, _ = parse_ply(out.read_text())
    assert len(cloud) == 1024
    radii = np.linalg.norm(cloud.points.astype(np.float64), axis=1)
    assert abs(radii.max() - 1.0) < 1e-6


def test_sample_single_point(tmp_path):
    mesh = tmp_path / "cube.off"
    mesh.write_text(UNIT_CUBE_OFF)
    out = tmp_path / "one.xyz"
    assert main(["sample", str(mesh), "--num-points", "1", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 1


def test_sample_deterministic(tmp_path):
    mesh = tmp_path / "cube.off"
    mesh.write_text(UNIT_CUBE_OFF)
    out1, out2 = tmp_path / "a.ply", tmp_path / "b.ply"
    for out in (out1, out2):
        assert main(["sample", str(mesh), "--seed", "17", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_rejects_cloud_input(tmp_path, capsys):
    out = tmp_path / "x.ply"
    assert main(["sample", CHAIR, "--out", str(out)]) == 1
    assert "OFF mesh" in capsys.readouterr().err


def test_sample_rejects_unknown_extension(tmp_path, capsys):
    mesh = tmp_path / "cube.off"
    mesh.write_text(UNIT_CUBE_OFF)
    assert main(["sample", str(mesh), "--out", str(tmp_path / "out.npz")]) == 1
    assert "extension" in capsys.readouterr().err


# --- exit codes and parsing --------------------------------------------------------


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_bad_flag_value_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["augment", "somewhere", "--rho", "1.5", "--out", "x"])
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["augment", "segment-augment"])
@pytest.mark.parametrize("num_points", ["0", "1"])
def test_augment_num_points_below_two_is_usage_error(tmp_path, capsys, command, num_points):
    """One point has no radius to normalize by, so no source could be rendered."""
    data = write_dataset(tmp_path / "data", labels=True)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, str(data), "--num-points", num_points, "--rho", "0", "--out", str(out)])
    assert exc.value.code == 1
    assert "--num-points" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["augment", "somewhere"])  # no --out
    assert exc.value.code == 1


def test_internal_error_exits_2(tmp_path, monkeypatch, capsys):
    data = write_dataset(tmp_path / "data")
    monkeypatch.setattr(
        "pointcutmix.cli.run_augment",
        lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    assert main(["augment", str(data), "--out", str(tmp_path / "out")]) == 2
    assert "internal error" in capsys.readouterr().err


def run_fresh(code: str, cwd: Path, *args: str) -> str:
    """Run code with args in a fresh interpreter, with this checkout's src/
    first on PYTHONPATH; return its standard output."""
    checkout = Path(__file__).resolve().parent.parent
    src_first = filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(src_first))
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def scipy_modules_after(code: str, cwd: Path) -> list:
    """The scipy modules a fresh interpreter holds after running code."""
    report = "\nimport json, sys\nprint(json.dumps([m for m in sys.modules if m.startswith('scipy')]))"
    return json.loads(run_fresh(code + report, cwd).splitlines()[-1])


@pytest.mark.parametrize("module", ["pointcutmix", "pointcutmix.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    assert scipy_modules_after(f"import {module}", tmp_path) == []


@pytest.mark.parametrize("command", ["emd", "mix", "sample", "augment"])
def test_commands_above_exact_threshold_load_no_scipy(tmp_path, command):
    """Only the exact route (N <= exact_threshold) imports scipy."""
    rng = np.random.default_rng(300)
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    for path in (a, b):
        path.write_text(write_ply(random_cloud(rng, 300)))
    mesh = tmp_path / "cube.off"
    mesh.write_text(UNIT_CUBE_OFF)
    argv = {
        "emd": ["emd", str(a), str(b)],
        "mix": ["mix", str(a), "x", str(b), "y", "--mode", "k", "--out", str(tmp_path / "m.ply")],
        "sample": ["sample", str(mesh), "--out", str(tmp_path / "s.ply")],
        "augment": ["augment", str(write_dataset(tmp_path / "data", files_per_class=2)),
                    "--num-points", "1024", "--out", str(tmp_path / "out")],
    }[command]
    code = f"from pointcutmix.cli import main\nassert main({argv!r}) == 0"
    assert scipy_modules_after(code, tmp_path) == []


@pytest.mark.parametrize(("num_points", "loaded"), [("32", True), ("300", False)])
def test_parallel_augment_loads_exact_solver_before_forking(tmp_path, num_points, loaded):
    """With --jobs > 1, a run that reaches the exact route imports scipy once
    in the parent, so forked workers do not each import it."""
    data = write_dataset(tmp_path / "data", files_per_class=2)
    argv = ["augment", str(data), "--num-points", num_points, "--jobs", "2",
            "--out", str(tmp_path / "out")]
    code = (
        "import concurrent.futures, sys\n"
        "class Recording(concurrent.futures.ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        print('scipy.optimize' in sys.modules)\n"
        "        super().__init__(*args, **kwargs)\n"
        "concurrent.futures.ProcessPoolExecutor = Recording\n"
        "from pointcutmix.cli import main\n"
        f"assert main({argv!r}) == 0"
    )
    assert run_fresh(code, tmp_path).split() == [str(loaded)]


def test_console_script_runs(tmp_path):
    """The `pointcutmix` script declared in pyproject.toml runs end to end.

    The child process is started the way pip's generated wrapper starts it,
    so the test needs no install: PYTHONPATH puts this checkout's src/ first.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")

    checkout = Path(__file__).resolve().parent.parent
    with open(checkout / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pointcutmix"]
    module, func = target.split(":")
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'pointcutmix'; sys.exit({func}())"
    )
    assert run_fresh(wrapper, tmp_path, "emd", EMD6_A, EMD6_B).strip() == "1.258076"
