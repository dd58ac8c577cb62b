"""Acceptance suite: eleven end-to-end checks covering solver correctness,
structural mixing guarantees, statistical laws, determinism, and speed.

Each check is tagged with a criterion marker; conftest prints one PASS/FAIL
line per criterion in a summary block, so a full run reads as a scorecard.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from pointcutmix.assignment import (
    EPSILON_FINAL,
    emd,
    optimal_assignment,
    solve_auction,
    solve_exact,
)
from pointcutmix.cli import main as cli_main
from pointcutmix.core import (
    AugmentPolicy,
    PartLabels,
    PointCloud,
    SaliencyWeights,
    one_hot,
)
from pointcutmix.ingest import normalize_unit_sphere, parse_ply, write_ply
from pointcutmix.mixer import (
    choose_center_saliency,
    mix_pair,
    pointcutmix,
    sample_lambda,
)
from pointcutmix.rng import make_stream

from conftest import FIXTURES, random_cloud
from oracles import linear_scan_knn

CHAIR = Path(FIXTURES) / "chair.ply"
AIRPLANE = Path(FIXTURES) / "airplane.ply"


def criterion(num: int, description: str):
    return pytest.mark.criterion(num, description)


# Permutation tables for the exhaustive assignment oracle, built once.
_PERMS = {n: np.array(list(itertools.permutations(range(n))), dtype=np.int64) for n in range(2, 9)}


def brute_force_total(c: np.ndarray) -> float:
    n = c.shape[0]
    return float(c[np.arange(n), _PERMS[n]].sum(axis=1).min())


def pair_cost_matrix(a: PointCloud, b: PointCloud) -> np.ndarray:
    diff = a.points.astype(np.float64)[:, None, :] - b.points.astype(np.float64)[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


@criterion(1, "exact solver equals the exhaustive-permutation minimum")
def test_criterion_01_exact_assignment_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    trials = 0
    while trials < 1000:
        n = int(rng.integers(2, 9))
        a, b = random_cloud(rng, n), random_cloud(rng, n)
        expected = brute_force_total(pair_cost_matrix(a, b))
        got = solve_exact(a, b).total_cost
        assert abs(got - expected) <= 1e-9 * max(1.0, expected), (n, got, expected)
        trials += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"exact-oracle sweep took {elapsed:.1f}s (budget 10s)"


@criterion(2, "auction cost within N x epsilon_final of exact, every instance")
def test_criterion_02_auction_gap_certificate():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    trials = 0
    for n in (16, 32, 64):
        for _ in range(67):
            a, b = random_cloud(rng, n), random_cloud(rng, n)
            gap = solve_auction(a, b).total_cost - solve_exact(a, b).total_cost
            assert gap <= n * EPSILON_FINAL, (n, gap)
            trials += 1
    assert trials >= 200
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"auction sweep took {elapsed:.1f}s (budget 30s)"


@criterion(3, "distance is a metric: symmetry, identity, triangle inequality")
def test_criterion_03_emd_metric_properties():
    rng = np.random.default_rng(103)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        a, b, c = (random_cloud(rng, n) for _ in range(3))
        d_ab, d_ba = emd(a, b), emd(b, a)
        d_bc, d_ac = emd(b, c), emd(a, c)
        assert d_ab >= 0.0
        assert abs(d_ab - d_ba) <= 1e-12
        assert d_ac <= d_ab + d_bc + 1e-9
        shuffled = PointCloud(a.points[rng.permutation(n)])
        assert emd(a, shuffled) <= 1e-9


@criterion(4, "every mixed point traces to its source; labels blend exactly")
def test_criterion_04_structural_mix_suite():
    rng = np.random.default_rng(104)
    n = 32
    pool = [random_cloud(rng, n) for _ in range(64)]
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    stream = make_stream(104)
    modes = ("r", "k", "s")
    for trial in range(10_000):
        x1 = pool[int(rng.integers(len(pool)))]
        x2 = pool[int(rng.integers(len(pool)))]
        mode = modes[trial % 3]
        saliency = (
            SaliencyWeights(rng.random(n).astype(np.float32)) if mode == "s" else None
        )
        lam = float(rng.random())
        out = mix_pair(x1, y1, x2, y2, lam, mode, stream, saliency=saliency)
        keep = out.mask.keep
        expected = np.where(keep[:, None], x1.points, x2.points[out.assignment.mapping])
        assert np.array_equal(
            out.cloud.points.view(np.uint32), expected.view(np.uint32)
        ), f"trial {trial}: point does not match its declared source"
        assert out.label.weights[0] == out.mask.n_kept / n
        assert abs(out.label.weights.sum() - 1.0) <= 1e-9


@criterion(5, "mode-K kept sets equal brute-force neighborhoods of the center")
def test_criterion_05_mode_k_neighborhoods():
    rng = np.random.default_rng(105)
    stream = make_stream(105)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    for _ in range(1000):
        n = int(rng.integers(2, 257))
        x1, x2 = random_cloud(rng, n), random_cloud(rng, n)
        lam = float(rng.random())
        out = mix_pair(x1, y1, x2, y2, lam, "k", stream)
        kept = np.flatnonzero(out.mask.keep)
        if out.mask.n_kept == 0:
            assert out.center_index is None
            continue
        expected = linear_scan_knn(x1.points, out.center_index, out.mask.n_kept)
        assert set(kept.tolist()) == set(expected.tolist())


@criterion(6, "Beta(1,1) passes a KS uniformity test; the 0.5 gate holds to ±0.02")
def test_criterion_06_beta_and_gate_statistics():
    stream = make_stream(106)
    n = 10_000
    draws = np.sort([sample_lambda(1.0, stream) for _ in range(n)])
    grid = np.arange(1, n + 1) / n
    ks = max(np.abs(grid - draws).max(), np.abs(draws - (grid - 1.0 / n)).max())
    assert ks < 1.6276 / math.sqrt(n), f"KS statistic {ks:.5f}"

    rng = np.random.default_rng(206)
    x1, x2 = random_cloud(rng, 4), random_cloud(rng, 4)
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    policy = AugmentPolicy(mix_prob=0.5, mode="r")
    gate_stream = make_stream(306)
    mixed = sum(
        not pointcutmix(x1, y1, x2, y2, policy, gate_stream).gated for _ in range(10_000)
    )
    assert abs(mixed / 10_000 - 0.5) <= 0.02, f"mixed fraction {mixed / 10_000:.4f}"


@criterion(7, "saliency-weighted center choice follows the min-shift law")
def test_criterion_07_saliency_center_law():
    stream = make_stream(107)
    trials = 100_000
    weights = SaliencyWeights(np.array([1.0, 2.0, 3.0], dtype=np.float32))
    counts = np.bincount(
        [choose_center_saliency(weights, stream) for _ in range(trials)], minlength=3
    )
    freq = counts / trials
    for got, want in zip(freq, [0.0, 1.0 / 3.0, 2.0 / 3.0]):
        assert abs(got - want) <= 0.01, f"frequencies {freq}"

    flat = SaliencyWeights(np.full(4, 2.0, dtype=np.float32))
    counts = np.bincount(
        [choose_center_saliency(flat, stream) for _ in range(trials)], minlength=4
    )
    freq = counts / trials
    assert np.all(np.abs(freq - 0.25) <= 0.01), f"flat frequencies {freq}"


@criterion(8, "segmentation labels trace to their source points")
def test_criterion_08_segmentation_provenance():
    rng = np.random.default_rng(108)
    stream = make_stream(108)
    n = 32
    y1, y2 = one_hot(0, 2), one_hot(1, 2)
    tags1 = PartLabels(np.arange(n, dtype=np.int32))
    tags2 = PartLabels(np.arange(n, 2 * n, dtype=np.int32))
    for _ in range(1000):
        x1, x2 = random_cloud(rng, n), random_cloud(rng, n)
        lam = float(rng.random())
        out = mix_pair(
            x1, y1, x2, y2, lam, "r", stream, parts1=tags1, parts2=tags2
        )
        keep = out.mask.keep
        mapping = out.assignment.mapping
        expected = np.where(keep, np.arange(n), n + mapping).astype(np.int32)
        assert np.array_equal(out.part_labels.labels, expected)
        assert out.label.weights[0] == out.mask.n_kept / n


@criterion(9, "batch outputs are byte-identical for --jobs 1 and --jobs 8")
def test_criterion_09_parallel_invariance(tmp_path):
    rng = np.random.default_rng(109)
    data = tmp_path / "data"
    for class_index, name in enumerate(["bottle", "desk", "lamp", "stool"]):
        (data / name).mkdir(parents=True)
        for k in range(10):
            size = int(rng.integers(50, 91))
            cloud = normalize_unit_sphere(random_cloud(rng, size))
            (data / name / f"{name}_{k:02d}.ply").write_text(write_ply(cloud))

    trees = []
    for jobs in ("1", "8"):
        out = tmp_path / f"out_jobs{jobs}"
        code = cli_main(
            ["augment", str(data), "--rho", "0.7", "--mode", "k", "--seed", "42",
             "--num-points", "64", "--jobs", jobs, "--out", str(out)]
        )
        assert code == 0
        trees.append(
            {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    assert trees[0].keys() == trees[1].keys()
    assert trees[0] == trees[1], "output trees differ between --jobs 1 and --jobs 8"
    assert len(trees[0]) == 41  # 40 clouds + manifest


@criterion(10, "auction at N=1024 under 1s; batch throughput meets the 4-job floor")
def test_criterion_10_performance_floor(tmp_path):
    """The batch floor of 10 mixed samples/s assumes --jobs 4 can actually
    run four workers, so it is prorated by the parallelism this host can
    give them: on >= 4 cores the full 10/s applies; on fewer cores the
    same per-worker rate (2.5/s each) is enforced.
    """
    rng = np.random.default_rng(110)
    for _ in range(2):
        a, b = random_cloud(rng, 1024), random_cloud(rng, 1024)
        start = time.perf_counter()
        result = optimal_assignment(a, b)
        elapsed = time.perf_counter() - start
        assert not result.is_exact  # 1024 points take the auction path
        assert elapsed < 1.0, f"assignment took {elapsed:.2f}s at N=1024"

    data = tmp_path / "data"
    for name in ("plant", "sofa"):
        (data / name).mkdir(parents=True)
        for k in range(24):
            cloud = normalize_unit_sphere(random_cloud(rng, 1024))
            (data / name / f"{name}_{k:02d}.ply").write_text(write_ply(cloud))
    out = tmp_path / "out"
    start = time.perf_counter()
    code = cli_main(
        ["augment", str(data), "--rho", "1", "--mode", "k", "--seed", "7",
         "--num-points", "1024", "--jobs", "4", "--out", str(out)]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mixed_count"] == 48
    rate = manifest["mixed_count"] / elapsed
    floor = 10.0 * min(4, os.cpu_count() or 1) / 4.0
    assert rate >= floor, f"throughput {rate:.1f} mixed samples/s (floor {floor:.1f}/s)"


@criterion(11, "fixture mixes keep exactly floor(lambda*N) points across the sweep")
def test_criterion_11_lambda_sweep_fixtures(tmp_path):
    chair, _, _ = parse_ply(CHAIR.read_text())
    plane, _, _ = parse_ply(AIRPLANE.read_text())
    n = len(chair)
    assignment = optimal_assignment(chair, plane)
    replaced_rows = plane.points[assignment.mapping].view(np.uint32)
    chair_rows = chair.points.view(np.uint32)

    for mode in ("r", "k"):
        for lam in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            out = tmp_path / f"mix_{mode}_{lam:.1f}.ply"
            code = cli_main(
                ["mix", str(CHAIR), "chair", str(AIRPLANE), "airplane",
                 "--mode", mode, "--lambda", str(lam), "--seed", "3",
                 "--out", str(out)]
            )
            assert code == 0
            mixed, _, _ = parse_ply(out.read_text())
            rows = mixed.points.view(np.uint32)
            from_chair = (rows == chair_rows).all(axis=1)
            from_plane = (rows == replaced_rows).all(axis=1)
            assert bool((from_chair | from_plane).all())
            expected_kept = math.floor(lam * n)
            assert int(from_chair.sum()) == expected_kept, (mode, lam)
            assert int((~from_chair).sum()) == n - expected_kept
            sidecar = json.loads(Path(str(out) + ".json").read_text())
            assert sidecar["n_kept"] == expected_kept
