"""The workloads: generated inputs, closed-loop clients and their metrics.

One client runs in a closed loop: it starts the next operation only when
the previous one has returned. An operation is one in-process `cli.main`
call. The untraced loop times each call and, for augment, the boundaries
a caller of the batch command can see: when `cli.run_augment` is entered
(set-up ends) and each `cli.augment_sample`. The traced run adds a span at
every probe of spans.PROBES.

--seed drives the generated inputs only. The program's own --seed is fixed
(augment: AUGMENT_SEED; oneshot: the command's index in the loop), so which
samples are mixed, with which partner and ratio, is the same from run to
run and only the geometry and the host differ. An augment run repeats one
identical call and reports the median call; every repeat must write the
same bytes as the first, which the gate checks in full.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pointcutmix.cli
from pointcutmix.ingest import parse_off, sample_surface
from pointcutmix.rng import make_stream

import gate
import gen
from spans import LAYERS, PROBES, Tracer, patched

# The program's --seed in every augment call. Its gate draws mix 8 of the 16
# samples, exactly the rho 0.5 of seg-r1024-src10k. A mixed sample there
# costs about three unmixed ones, so seed 0, which mixes 12, would measure
# a call a quarter longer than the flags' own ratio gives.
AUGMENT_SEED = 1
SETUP_SHARE = 0.1  # of --seconds spent on set-up probes before the loop
SETUP_PROBES = (3, 15)  # fewest and most set-up probes per run
EXCESS_SAMPLES = 2  # assignments per traced run checked against exact LSA


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "augment" or "oneshot"
    flags: tuple  # fixed CLI arguments
    generator: dict  # parameters of gen.py, recorded in every result


WORKLOADS = {
    w.name: w
    for w in [
        # The paper's protocol: every sample mixed, kNN masks, N = 1024.
        # The assignment takes most of a sample and FPS 2048 -> 1024 the rest.
        Workload(
            "cls-k1024-src2048", "augment",
            ("augment", "--mode", "k", "--rho", "1", "--num-points", "1024"),
            {"classes": list(gen.TEMPLATES), "per_class": 4, "points": 2048,
             "labels": False, "jitter": gen.JITTER},
        ),
        # Ingest-bound: FPS from 10k points, large files parsed at set-up,
        # labels written; half the samples reach the solver, kNN never runs.
        Workload(
            "seg-r1024-src10k", "augment",
            ("segment-augment", "--mode", "r", "--rho", "0.5", "--num-points", "1024"),
            {"classes": list(gen.TEMPLATES), "per_class": 4, "points": 10000,
             "labels": True, "jitter": gen.JITTER},
        ),
        # The interactive user: alternating emd and mode-s mix at N = 2048,
        # where the exact and auction solvers swap rank; no FPS.
        Workload(
            "oneshot-n2048", "oneshot",
            ("mix", "--mode", "s", "--num-points", "2048"),
            {"pairs": 4, "points": 2048, "mesh_grid": 7, "classes": ["chair", "airplane"],
             "jitter": gen.JITTER},
        ),
    ]
}


def run_cli(argv: list[str], tracer: Tracer | None = None) -> tuple[int, float, float]:
    """One operation: cli.main in-process, its output captured, inside the
    tracer's root span if one is given. Returns the exit code, the start
    time and the wall time. The benchmark's own garbage is collected first,
    so the operation does not pay for it."""
    gc.collect()
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink), \
                tracer.operation() if tracer else nullcontext():
            code = pointcutmix.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return code, start, time.perf_counter() - start


def median(values) -> float:
    return float(statistics.median(values))


def tail(values):
    """(value, percentile, count): the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return float(sorted(values)[n - 11]), 100.0 * (n - 10) / n, n


def overhead_pct(untraced, traced) -> float:
    """Median extra time of a traced operation over the same operation
    untraced, run right before it, in percent."""
    return 100.0 * (median([t / u for u, t in zip(untraced, traced)]) - 1.0)


def setup_probes(probe, seconds: float) -> list[float]:
    """Set-up times of repeated probes, within SETUP_SHARE of the run."""
    fewest, most = SETUP_PROBES
    end = time.perf_counter() + SETUP_SHARE * seconds
    times = []
    while len(times) < fewest or (len(times) < most and time.perf_counter() < end):
        times.append(probe(len(times)))
    return times


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for workers."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib * 1024 / 1e6


@dataclass
class Outcome:
    """What one benchmark run measured."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    report: dict = field(default_factory=dict)  # further figures, printed only
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    missing: list = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(reason)


def closed_loop(seconds: float):
    """Yields once per step of the loop. Another step starts only if, at the
    pace of the last one, it ends within `seconds`; the first always runs."""
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        yield
        now = time.perf_counter()
        if now + (now - start) > end:
            return


# --------------------------------------------------------------------------
# augment workloads


@dataclass
class AugmentCall:
    code: int
    wall: float
    setup: float  # from the cli.main call to entering cli.run_augment
    latencies: list
    prepared: dict  # (epoch, sample_index) -> prepared (cloud, parts, saliency)
    manifest: dict

    @property
    def samples(self) -> int:
        return len(self.manifest.get("entries", []))

    @property
    def sample_phase(self) -> float:
        return self.wall - self.setup


def _augment_call(workload, data: Path, out: Path, seed: int, jobs: int,
                  tracer: Tracer | None = None) -> AugmentCall:
    argv = [workload.flags[0], str(data), *workload.flags[1:],
            "--seed", str(seed), "--jobs", str(jobs), "--out", str(out)]
    marks = {}
    latencies, prepared = [], {}
    current = []

    def on_run_augment(fn):
        def hooked(*args, **kwargs):
            marks.setdefault("setup_end", time.perf_counter())
            return fn(*args, **kwargs)
        return hooked

    def on_augment_sample(fn):
        def hooked(run, epoch, sample_index):
            current[:] = [(epoch, sample_index)]
            start = time.perf_counter()
            entry = fn(run, epoch, sample_index)
            latencies.append(time.perf_counter() - start)
            return entry
        return hooked

    def on_prepare_source(fn):
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            prepared.setdefault(current[0], []).append(result)
            return result
        return hooked

    with ExitStack() as stack:
        stack.enter_context(patched("pointcutmix.cli", "run_augment", on_run_augment))
        if jobs == 1:
            stack.enter_context(patched("pointcutmix.cli", "augment_sample", on_augment_sample))
            stack.enter_context(patched("pointcutmix.cli", "prepare_source", on_prepare_source))
        if tracer is not None:
            stack.enter_context(tracer.installed())
        code, start, wall = run_cli(argv, tracer)
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    setup = marks.get("setup_end", start + wall) - start
    return AugmentCall(code, wall, setup, latencies, prepared, manifest)


def _setup_probe(workload, data: Path, out: Path) -> float:
    """Time from cli.main to cli.run_augment, with run_augment stubbed out."""
    marks = {}

    def stub(fn):
        def stop(*args, **kwargs):
            marks["end"] = time.perf_counter()
            return {}
        return stop

    argv = [workload.flags[0], str(data), *workload.flags[1:], "--out", str(out)]
    with patched("pointcutmix.cli", "run_augment", stub):
        _, start, _ = run_cli(argv)
    return marks.get("end", start) - start


def _gate_augment(call: AugmentCall, num_points: int, outcome: Outcome, out: Path,
                  segmentation: bool) -> None:
    """Structural checks of one jobs-1 call against the prepared sources."""
    expected = call.samples or 1
    if call.code != 0 or not call.manifest:
        outcome.fail(expected, f"augment exited {call.code} without a manifest")
        return
    for entry in call.manifest["entries"]:
        reason = _checked(_gate_entry, entry, call, num_points, out, segmentation)
        if reason:
            outcome.fail(1, f"{entry.get('output_file')}: {reason}")


def _gate_entry(entry, call, num_points, out, segmentation):
    prepared = call.prepared.get((entry["epoch"], entry["sample_index"]), [])
    mixed = "source_b_id" in entry
    if len(prepared) != (2 if mixed else 1):
        return f"{len(prepared)} prepared sources recorded"
    points, labels = gate.read_ply(out / entry["output_file"])
    a, parts_a, _ = prepared[0]
    b, parts_b, _ = prepared[1] if mixed else (None, None, None)
    if segmentation and labels is None:
        return "no part labels written"
    n_kept = entry["n_kept"]
    class_a = entry["source_a_id"].split("/")[0]
    class_b = entry["source_b_id"].split("/")[0] if mixed else None
    if entry["lambda_effective"] != n_kept / num_points:
        return "lambda_effective is not n_kept/N"
    return gate.check_provenance(
        points, a.points, b.points if mixed else None, n_kept,
        labels=labels if segmentation else None,
        parts_a=parts_a.labels if segmentation else None,
        parts_b=parts_b.labels if segmentation and mixed else None,
    ) or gate.check_label_weights(entry["label_weights"], class_a, class_b, n_kept, num_points)


def _checked(check, *args):
    """Run one gate check; an output it cannot read is a failed check."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        return f"unreadable output: {exc!r}"


def _compare_trees(left: Path, right: Path, samples: int, what: str, outcome: Outcome) -> None:
    differ = gate.same_tree(left, right)
    if differ:
        outcome.fail(min(samples, len(differ)) or 1, f"{what} differ: {differ[:3]}")


def run_augment_workload(workload, seed, seconds, trace, work: Path) -> Outcome:
    outcome = Outcome()
    params = workload.generator
    data = work / "data"
    gen.make_class_dataset(data, seed, classes=params["classes"], per_class=params["per_class"],
                           points=params["points"], labels=params["labels"])
    num_points = int(workload.flags[workload.flags.index("--num-points") + 1])
    segmentation = workload.flags[0] == "segment-augment"
    jobs = len(os.sched_getaffinity(0))
    started = time.perf_counter()

    setups = setup_probes(lambda i: _setup_probe(workload, data, work / f"probe{i}"), seconds)
    calls = {"serial": [], "traced": [], "parallel": []}
    phases = [("serial", {"jobs": 1})]
    tracer = None
    if trace:
        tracer = Tracer(_span_info())
        phases += [("traced", {"jobs": 1, "tracer": tracer}), ("parallel", {"jobs": jobs})]
    first = work / "serial0"
    for k, _ in enumerate(closed_loop(seconds - (time.perf_counter() - started))):
        for phase, kwargs in phases:
            out = work / f"{phase}{k}"
            call = _augment_call(workload, data, out, AUGMENT_SEED, **kwargs)
            calls[phase].append(call)
            outcome.attempted += call.samples
            if out == first:
                _gate_augment(call, num_points, outcome, out, segmentation)
            else:
                _compare_trees(first, out, call.samples, f"{out.name} and {first.name}", outcome)
                shutil.rmtree(out)

    def rate(phase):
        """Median over the phase's calls of samples per second of sample phase."""
        return median([c.samples / c.sample_phase for c in calls[phase]])

    serial = calls["serial"]
    setups += [c.setup for c in serial]
    latencies = [t for c in serial for t in c.latencies]
    outcome.metrics.update({
        "samples_per_s": (rate("serial"), "1/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    })
    outcome.report.update({
        "calls": len(serial),
        "samples": sum(c.samples for c in serial),
        "sample_ms_p50": 1e3 * median(latencies),
        "sample_ms_tail": _tail_report(tail(latencies)),
        "setup_count": len(setups),
    })
    if trace:
        sps, sps_par = rate("serial"), rate("parallel")
        outcome.metrics = layer_metrics(
            tracer, sum(c.samples for c in calls["traced"]),
            extra={
                "cli.samples_per_s_par": sps_par,
                "cli.parallel_efficiency": sps_par / (jobs * sps),
                "trace.overhead_pct": overhead_pct(
                    [t for c in calls["serial"] for t in c.latencies],
                    [t for c in calls["traced"] for t in c.latencies]),
                "assignment.emd_excess_ppm": _assignment_excess(tracer),
            },
        )
        outcome.missing = tracer.missing
    return outcome


def _tail_report(t):
    if t is None:
        return None
    value, pct, count = t
    return {"value_ms": 1e3 * value, "percentile": round(pct, 1), "count": count}


# --------------------------------------------------------------------------
# oneshot workload


def _cold_import_seconds(src: Path) -> float:
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import pointcutmix.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", code], check=True, timeout=120)
    return time.perf_counter() - start


def _oneshot_argv(workload, pair, op: int, out: Path) -> list[str]:
    """Even ops: emd of A and B, dumping the mapping. Odd ops: mix of A with
    B's mesh under the workload's flags, seeded by the op's index."""
    if op % 2 == 0:
        return ["emd", str(pair["a"]), str(pair["b"]), "--dump-assignment", str(out / "map.txt")]
    return [workload.flags[0], str(pair["a"]), pair["label_a"], str(pair["b_mesh"]),
            pair["label_b"], *workload.flags[1:], "--seed", str(op), "--out", str(out / "mix.ply")]


def _gate_oneshot(op: int, pair, ref, out: Path, n: int):
    """None, or the reason the op's output is wrong. `ref` holds the
    prepared A (parsed) and B's parsed mesh, read once per pair."""
    if op % 2 == 0:
        mapping = np.loadtxt(out / "map.txt", dtype=np.int64, ndmin=1)
        if mapping.shape != (n,) or not np.array_equal(np.sort(mapping), np.arange(n)):
            return "dumped assignment is not a permutation of 0..N-1"
        return None
    points, _ = gate.read_ply(out / "mix.ply")
    sidecar = json.loads((out / "mix.ply.json").read_text())
    n_kept = sidecar["n_kept"]
    b = sample_surface(ref["b_mesh"], n, make_stream(op))  # cmd_mix's draw order, --seed op
    if sidecar["lambda_effective"] != n_kept / n:
        return "lambda_effective is not n_kept/N"
    return gate.check_provenance(
        points, ref["a"], b.points, n_kept, center=sidecar.get("center_index")
    ) or gate.check_label_weights(sidecar["label_weights"], pair["label_a"],
                                  pair["label_b"], n_kept, n)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path


def _mapping_cost(a, b, mapping) -> float:
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    return float(np.linalg.norm(a64 - b64[mapping], axis=1).sum())


def _exact_cost(a, b) -> float:
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    c = cdist(a.astype(np.float64), b.astype(np.float64))
    rows, cols = linear_sum_assignment(c)
    return float(c[rows, cols].sum())


def run_oneshot_workload(workload, seed, seconds, trace, work: Path, src: Path) -> Outcome:
    outcome = Outcome()
    params = workload.generator
    n = params["points"]
    pairs = gen.make_oneshot_pairs(work / "data", seed, pairs=params["pairs"], points=n,
                                   mesh_grid=params["mesh_grid"], classes=params["classes"])
    refs = [{"a": gate.read_ply(p["a"])[0], "b": gate.read_ply(p["b"])[0],
             "b_mesh": parse_off(p["b_mesh"].read_text())} for p in pairs]
    started = time.perf_counter()
    _cold_import_seconds(src)  # compiles the bytecode the timed imports then use
    setups = setup_probes(lambda i: _cold_import_seconds(src), seconds)

    walls = {"emd": [], "mix": []}
    untraced_walls, traced_walls = [], []
    tracer = Tracer(_span_info()) if trace else None
    maps = {}  # pair index -> dumped mapping, for the excess check
    for op, _ in enumerate(closed_loop(seconds - (time.perf_counter() - started))):
        pair_index = (op // 2) % len(pairs)
        pair, ref = pairs[pair_index], refs[pair_index]
        out, traced_out = _fresh(work / "op"), _fresh(work / "op-traced")
        argv = _oneshot_argv(workload, pair, op, out)
        code, _, wall = run_cli(argv)
        outcome.attempted += 1
        reason = f"exit code {code}" if code != 0 else _checked(_gate_oneshot, op, pair, ref, out, n)
        if reason:
            outcome.fail(1, f"{argv[0]} on pair {pair_index}: {reason}")
        walls[argv[0]].append(wall)
        if op % 2 == 0 and not reason:
            maps.setdefault(pair_index, np.loadtxt(out / "map.txt", dtype=np.int64))
        if trace:
            with tracer.installed():
                code, _, traced_wall = run_cli(_oneshot_argv(workload, pair, op, traced_out), tracer)
            traced_walls.append(traced_wall)
            untraced_walls.append(wall)
            outcome.attempted += 1
            if code != 0:
                outcome.fail(1, f"traced {argv[0]} exited {code}")
            else:
                _compare_trees(out, traced_out, 1, "traced and untraced outputs", outcome)

    all_walls = walls["emd"] + walls["mix"]
    outcome.metrics.update({
        "samples_per_s": (len(all_walls) / sum(all_walls), "1/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    })
    outcome.report["setup_count"] = len(setups)
    for cmd, values in walls.items():
        outcome.report[f"{cmd}_ms_p50"] = 1e3 * median(values) if values else None
        outcome.report[f"{cmd}_ms_tail"] = _tail_report(tail(values))
        outcome.report[f"{cmd}_count"] = len(values)
    if trace:
        excess = [
            1e6 * (_mapping_cost(refs[i]["a"], refs[i]["b"], m)
                   / _exact_cost(refs[i]["a"], refs[i]["b"]) - 1.0)
            for i, m in list(maps.items())[:EXCESS_SAMPLES]
        ]
        outcome.metrics = layer_metrics(
            tracer, outcome.attempted // 2,
            extra={
                "cli.samples_per_s_par": 0.0,
                "cli.parallel_efficiency": 0.0,
                "trace.overhead_pct": overhead_pct(untraced_walls, traced_walls),
                "assignment.emd_excess_ppm": float(np.mean(excess)) if excess else None,
            },
        )
        outcome.missing = tracer.missing
    return outcome


# --------------------------------------------------------------------------
# per-layer metrics of a traced run


def _span_info():
    """Counts kept on spans: sizes, routes and bytes. The first few
    assignments also keep their inputs for the excess check."""
    kept = []

    def assignment(args, kwargs, result):
        x1, x2 = args[0], args[1]
        info = {"n": len(x1), "exact": bool(result.is_exact)}
        if len(kept) < EXCESS_SAMPLES:
            kept.append(1)
            info["inputs"] = (x1.points, x2.points, result.mapping)
        return info

    return {
        "assignment.optimal_assignment": assignment,
        "ingest.farthest_point_sample": lambda args, kw, r: {"dist_evals": len(args[0]) * args[1]},
        "ingest.parse_ply": lambda args, kw, r: {"bytes": len(args[0])},
        "ingest.write_ply": lambda args, kw, r: {"bytes": len(r)},
    }


def _assignment_excess(tracer: Tracer):
    inputs = [s.info["inputs"] for s in tracer.by_name("assignment.optimal_assignment")
              if s.info and "inputs" in s.info]
    if not inputs:
        return None
    return float(np.mean([1e6 * (_mapping_cost(a, b, m) / _exact_cost(a, b) - 1.0)
                          for a, b, m in inputs]))


def layer_metrics(tracer: Tracer, ops: int, extra: dict) -> dict:
    """Every per-layer metric as name -> (value or None, unit). Times are
    per call, counts per operation (sample or command); a value is None
    when a probe it needs no longer exists."""
    missing_spans = {name for module, path, name in PROBES
                     if f"{module}.{path}" in tracer.missing}
    ops = max(ops, 1)
    spans = {}
    for s in tracer.spans:
        spans.setdefault(s.name, []).append(s)
    total = sum(s.duration for s in spans.get("cli.main", [])) or 1.0
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for s in tracer.spans:
        self_by_layer[s.layer] = self_by_layer.get(s.layer, 0.0) + s.self_time

    def mean(name, scale=1e3, attr="duration", where=None):
        chosen = [s for s in spans.get(name, []) if where is None or where(s)]
        return scale * sum(getattr(s, attr) for s in chosen) / len(chosen) if chosen else 0.0

    def info_sum(name, key):
        chosen = spans.get(name, [])
        if any(s.info is None for s in chosen):
            return None
        return sum(s.info[key] for s in chosen)

    def per_op(value):
        return None if value is None else value / ops

    def rate(name):
        nbytes = info_sum(name, "bytes")
        seconds = sum(s.duration for s in spans.get(name, []))
        return None if nbytes is None else (nbytes / seconds / 1e6 if seconds else 0.0)

    assign = "assignment.optimal_assignment"
    assign_spans = spans.get(assign, [])
    assign_ok = all(s.info is not None for s in assign_spans)
    fps = "ingest.farthest_point_sample"
    rows = [
        (f"{assign}.ms.n1024", "ms", assign,
         mean(assign, where=lambda s: s.info and s.info["n"] == 1024)),
        (f"{assign}.ms.n2048", "ms", assign,
         mean(assign, where=lambda s: s.info and s.info["n"] == 2048)),
        ("assignment.route_exact_calls", "1/op", assign,
         per_op(sum(s.info["exact"] for s in assign_spans)) if assign_ok else None),
        ("assignment.route_auction_calls", "1/op", assign,
         per_op(sum(not s.info["exact"] for s in assign_spans)) if assign_ok else None),
        ("assignment.cost_matrix_mb", "MB", assign,
         max((8 * s.info["n"] ** 2 / 1e6 for s in assign_spans), default=0.0)
         if assign_ok else None),
        ("assignment.emd_excess_ppm", "ppm", assign, extra["assignment.emd_excess_ppm"]),
        (f"{fps}.ms", "ms", fps, mean(fps)),
        (f"{fps}.calls", "1/op", fps, per_op(len(spans.get(fps, [])))),
        (f"{fps}.dist_evals", "1/op", fps, per_op(info_sum(fps, "dist_evals"))),
        ("ingest.parse_ply.ms", "ms", "ingest.parse_ply", mean("ingest.parse_ply")),
        ("ingest.parse_ply.mb_per_s", "MB/s", "ingest.parse_ply", rate("ingest.parse_ply")),
        ("ingest.parse_off.ms", "ms", "ingest.parse_off", mean("ingest.parse_off")),
        ("ingest.sample_surface.ms", "ms", "ingest.sample_surface", mean("ingest.sample_surface")),
        ("ingest.write_ply.ms", "ms", "ingest.write_ply", mean("ingest.write_ply")),
        ("ingest.write_ply.mb_per_s", "MB/s", "ingest.write_ply", rate("ingest.write_ply")),
        ("ingest.normalize_unit_sphere.ms", "ms", "ingest.normalize_unit_sphere",
         mean("ingest.normalize_unit_sphere")),
        ("neighbors.build_index.ms", "ms", "neighbors.build_index", mean("neighbors.build_index")),
        ("neighbors.knn.ms", "ms", "neighbors.knn", mean("neighbors.knn")),
        ("neighbors.calls", "1/op", "neighbors.knn", per_op(len(spans.get("neighbors.knn", [])))),
        ("mixer.mix_pair.self_ms", "ms", "mixer.mix_pair",
         mean("mixer.mix_pair", attr="self_time")),
        ("mixer.mask_knn.ms", "ms", "mixer.mask_knn", mean("mixer.mask_knn")),
        ("mixer.mask_random.ms", "ms", "mixer.mask_random", mean("mixer.mask_random")),
        ("mixer.choose_center_saliency.ms", "ms", "mixer.choose_center_saliency",
         mean("mixer.choose_center_saliency")),
        ("mixer.apply_mix.ms", "ms", "mixer.apply_mix", mean("mixer.apply_mix")),
        ("cli.scan_dataset.s", "s", "cli.scan_dataset", mean("cli.scan_dataset", scale=1.0)),
        ("cli.augment_sample.self_ms", "ms", "cli.augment_sample",
         mean("cli.augment_sample", attr="self_time")),
        ("cli.prepare_source.ms", "ms", "cli.prepare_source", mean("cli.prepare_source")),
        ("cli.run_augment.overhead_s", "s", "cli.run_augment",
         mean("cli.run_augment", scale=1.0, attr="self_time")),
        ("cli.output_bytes_per_sample", "bytes", "ingest.write_ply",
         per_op(info_sum("ingest.write_ply", "bytes"))),
        ("cli.cmd_emd.ms", "ms", "cli.cmd_emd", mean("cli.cmd_emd")),
        ("cli.cmd_mix.ms", "ms", "cli.cmd_mix", mean("cli.cmd_mix")),
        ("cli.samples_per_s_par", "1/s", None, extra["cli.samples_per_s_par"]),
        ("cli.parallel_efficiency", "ratio", None, extra["cli.parallel_efficiency"]),
        ("core.validate_cloud.ms", "ms", "core.validate_cloud", mean("core.validate_cloud")),
        ("rng.make_stream.us", "us", "rng.make_stream", mean("rng.make_stream", scale=1e6)),
        ("rng.mix64.us", "us", "rng.mix64", mean("rng.mix64", scale=1e6)),
        ("trace.overhead_pct", "%", None, extra["trace.overhead_pct"]),
    ]
    rows += [(f"{layer}.share", "ratio", None, self_by_layer[layer] / total) for layer in LAYERS]
    return {
        name: (None if needs in missing_spans or value is None else float(value), unit)
        for name, unit, needs, value in rows
    }

