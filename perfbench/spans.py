"""Spans around the package's public functions, for the traced run.

Every probe replaces one function at the name its caller looks up (for
example pointcutmix.mixer.optimal_assignment, which mix_pair calls), so no
source file changes. A span records its name, layer, start, end, parent
span and operation. A layer's self time is its spans' time minus the time
of their child spans; the benchmark opens one root span per operation (a
cli.main call), so whatever no probe covers goes to the cli layer.

A probe whose name no longer exists is skipped and listed in `missing`;
the metrics that need it are then reported as missing.
"""

from __future__ import annotations

import importlib
import time
from contextlib import ExitStack, contextmanager

LAYERS = ("cli", "ingest", "assignment", "neighbors", "mixer", "core", "rng")

# (module, attribute path at the caller's lookup, span name)
PROBES = [
    ("pointcutmix.cli", "cmd_emd", "cli.cmd_emd"),
    ("pointcutmix.cli", "cmd_mix", "cli.cmd_mix"),
    ("pointcutmix.cli", "scan_dataset", "cli.scan_dataset"),
    ("pointcutmix.cli", "run_augment", "cli.run_augment"),
    ("pointcutmix.cli", "augment_sample", "cli.augment_sample"),
    ("pointcutmix.cli", "prepare_source", "cli.prepare_source"),
    ("pointcutmix.cli", "parse_ply", "ingest.parse_ply"),
    ("pointcutmix.cli", "parse_off", "ingest.parse_off"),
    ("pointcutmix.cli", "sample_surface", "ingest.sample_surface"),
    ("pointcutmix.cli", "equalize_indices", "ingest.equalize_indices"),
    ("pointcutmix.ingest", "farthest_point_sample", "ingest.farthest_point_sample"),
    ("pointcutmix.cli", "normalize_unit_sphere", "ingest.normalize_unit_sphere"),
    ("pointcutmix.cli", "write_ply", "ingest.write_ply"),
    ("pointcutmix.cli", "validate_cloud", "core.validate_cloud"),
    ("pointcutmix.cli", "optimal_assignment", "assignment.optimal_assignment"),
    ("pointcutmix.mixer", "optimal_assignment", "assignment.optimal_assignment"),
    ("pointcutmix.cli", "mix_pair", "mixer.mix_pair"),
    ("pointcutmix.cli", "sample_lambda", "mixer.sample_lambda"),
    ("pointcutmix.mixer", "mask_knn", "mixer.mask_knn"),
    ("pointcutmix.mixer", "mask_random", "mixer.mask_random"),
    ("pointcutmix.mixer", "choose_center_saliency", "mixer.choose_center_saliency"),
    ("pointcutmix.mixer", "apply_mix", "mixer.apply_mix"),
    ("pointcutmix.mixer", "apply_mix_segmentation", "mixer.apply_mix_segmentation"),
    ("pointcutmix.mixer", "build_index", "neighbors.build_index"),
    ("pointcutmix.neighbors", "SpatialIndex.knn", "neighbors.knn"),
    ("pointcutmix.cli", "make_stream", "rng.make_stream"),
    ("pointcutmix.cli", "mix64", "rng.mix64"),
]


def _resolve(module_name: str, path: str):
    """(owner object, attribute name), or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if callable(getattr(owner, attr, None)) else None


@contextmanager
def patched(module_name: str, path: str, make_wrapper):
    """Replace one function at its lookup name for the duration of the block.
    Yields False (and patches nothing) when the name does not exist."""
    target = _resolve(module_name, path)
    if target is None:
        yield False
        return
    owner, attr = target
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield True
    finally:
        setattr(owner, attr, original)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_time", "info")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.parent, self.op = name, start, parent, op
        self.end = start
        self.child_time = 0.0
        self.info = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Keeps every span in memory; the benchmark aggregates them afterwards.

    `info` maps a span name to a function of (args, kwargs, result) whose
    value is stored on the span, for counts such as sizes, routes and bytes.
    It runs after the span has closed. If it raises, the span keeps no info
    and the counts that need it are reported as missing.
    """

    def __init__(self, info=None):
        self.info = info or {}
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._op = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._op)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        self.spans.append(span)

    @contextmanager
    def operation(self):
        """Root span of one operation (one cli.main call)."""
        self._op += 1
        span = self._open("cli.main")
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        info = self.info.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                try:
                    span.info = info(args, kwargs, result)
                except Exception:  # noqa: BLE001 - a count must never break the run
                    span.info = None
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install every probe; restore the original functions on exit."""
        with ExitStack() as stack:
            self.missing = [
                f"{module}.{path}"
                for module, path, name in PROBES
                if not stack.enter_context(
                    patched(module, path, lambda fn, name=name: self._wrap(name, fn))
                )
            ]
            yield self

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

