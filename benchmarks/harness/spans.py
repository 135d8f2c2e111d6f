"""Benchmark-side tracing: in-memory spans around the calls into each layer.

A traced run (``run.py --trace 1``) installs thin wrappers on the public
entry points of every layer listed in :data:`LAYERS`, at class or
module-binding level, for the duration of the run and restores the
originals afterwards.  Each wrapped call opens a span; spans nest on one
stack (the benchmark is single-threaded), so a layer's *self time* is
its span duration minus the time covered by the spans it caused.  Because
every span is nested under the one root span, self times partition the
root interval and sum to it.

Nothing here reads the program's own ``Tracer``: the spans are recorded
from the benchmark's files only, so the program under test is unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

__all__ = [
    "LAYERS",
    "BENCH_LAYERS",
    "TOTAL_LAYERS",
    "Layer",
    "NullRecorder",
    "SpanRecorder",
    "installed",
    "layer_metrics",
    "per_span_cost",
    "resolve",
]


@dataclass(frozen=True)
class Layer:
    """One traced layer: the public calls it wraps and what it should move.

    ``targets`` are ``"module:Class.attr"``, ``"module:Class.*"`` (every
    public method defined on the class) or ``"module:attr"`` (a function
    bound into a module's namespace, patched there so only that module's
    calls are seen).  ``moves`` names the end-to-end metric the layer is
    expected to move and on which workload.
    """

    name: str
    targets: Tuple[str, ...]
    moves: str
    iterator: bool = False


# The program's layers, in the package order of ``src/repro``.
LAYERS: Tuple[Layer, ...] = (
    Layer(
        "data.batches",
        ("repro.data.dataset:InteractionDataset.iter_batches",),
        "train.samples_per_s (every workload's fit)",
        iterator=True,
    ),
    Layer(
        "core.item_encoder",
        ("repro.core.atnn:ATNN.encoded_item_vectors",),
        "train.samples_per_s; serve.fresh_* (serve-flash-sale)",
    ),
    Layer(
        "core.generator",
        ("repro.core.atnn:ATNN.generated_item_vectors",),
        "train.samples_per_s; serve.arrival_*, serve.fresh_p95_ms (serve-flood)",
    ),
    Layer(
        "core.user_tower",
        ("repro.core.atnn:ATNN.user_vectors",),
        "train.samples_per_s; serve.recommend_p50_ms (serve-browse)",
    ),
    Layer(
        "core.head",
        ("repro.core.heads:WeightedDotHead.forward",),
        "train.samples_per_s",
    ),
    Layer(
        "core.validate",
        (
            "repro.core.atnn:ATNN.predict_proba",
            "repro.core.atnn:ATNN.predict_proba_cold_start",
        ),
        "nothing end to end: validation falls outside the timed steps",
    ),
    Layer(
        "core.score",
        ("repro.core.popularity:PopularityPredictor.score_item_vectors",),
        "serve.fresh_* (serve-flash-sale), serve.arrival_* (serve-flood)",
    ),
    Layer(
        "nn.loss",
        (
            "repro.core.trainer:binary_cross_entropy",
            "repro.core.trainer:similarity_loss",
        ),
        "train.samples_per_s",
    ),
    Layer("nn.backward", ("repro.nn.tensor:Tensor.backward",), "train.samples_per_s"),
    Layer(
        "nn.clip",
        ("repro.nn.optim.optimizer:Optimizer.clip_gradients",),
        "train.samples_per_s",
    ),
    Layer(
        "nn.optim",
        (
            "repro.nn.optim.optimizer:Optimizer.step",
            "repro.nn.optim.optimizer:Optimizer.zero_grad",
        ),
        "train.samples_per_s",
    ),
    Layer(
        "metrics.auc",
        ("repro.core.trainer:roc_auc",),
        "nothing end to end: validation falls outside the timed steps",
    ),
    Layer(
        "engine.ingest",
        ("repro.serving.engine:RealTimeEngine.ingest",),
        "serve.capacity_eps, serve.fresh_* (serve-flash-sale)",
    ),
    Layer(
        "engine.refresh",
        ("repro.serving.engine:RealTimeEngine.refresh",),
        "serve.capacity_eps, serve.fresh_* (serve-flash-sale, serve-flood)",
    ),
    Layer(
        "engine.promo",
        ("repro.serving.engine:RealTimeEngine.top_promotion_candidates",),
        "serve.fresh_* (serve-browse)",
    ),
    Layer(
        "engine.recommend",
        ("repro.serving.engine:RealTimeEngine.recommend_for_user",),
        "serve.recommend_* (serve-browse)",
    ),
    Layer(
        "engine.add_arrivals",
        ("repro.serving.engine:RealTimeEngine.add_arrivals",),
        "serve.arrival_* (serve-flood)",
    ),
    Layer(
        "serving.event_columns",
        ("repro.serving.engine:event_columns",),
        "serve.capacity_eps, serve.fresh_* (serve-flash-sale)",
    ),
    Layer(
        "store.ingest",
        ("repro.serving.feature_store:ItemStatisticsStore.ingest",),
        "serve.capacity_eps, serve.fresh_* (serve-flash-sale)",
    ),
    Layer(
        "store.features",
        ("repro.serving.feature_store:ItemStatisticsStore.feature_columns",),
        "serve.fresh_* (serve-flash-sale)",
    ),
    Layer(
        "retrieval.search",
        (
            "repro.retrieval.index:BruteForceIndex.search",
            "repro.retrieval.ivf:IVFIndex.search",
        ),
        "serve.recommend_* (serve-browse, serve-flood)",
    ),
    Layer(
        "retrieval.update",
        (
            "repro.retrieval.index:BruteForceIndex.update",
            "repro.retrieval.ivf:IVFIndex.update",
        ),
        "serve.fresh_* (serve-flash-sale)",
    ),
    Layer(
        "retrieval.add",
        (
            "repro.retrieval.index:BruteForceIndex.add",
            "repro.retrieval.ivf:IVFIndex.add",
        ),
        "serve.arrival_* (serve-flood)",
    ),
    Layer(
        "retrieval.rebuild",
        (
            "repro.retrieval.index:BruteForceIndex.rebuild",
            "repro.retrieval.ivf:IVFIndex.rebuild",
        ),
        "setup_s; serve.fresh_p95_ms, serve.recommend_p99_ms (serve-flood)",
    ),
    Layer(
        "retrieval.repartition",
        ("repro.retrieval.ivf:IVFIndex.repartition",),
        "serve.arrival_p95_ms (serve-flood)",
    ),
    Layer(
        "obs.monitor",
        ("repro.obs.quality:QualityMonitor.*",),
        "serve.* (serve-browse, train-atnn); idle elsewhere",
    ),
    Layer(
        "obs.slo",
        ("repro.obs.slo:SLOTracker.*",),
        "serve.* (serve-browse, train-atnn); idle elsewhere",
    ),
    Layer(
        "obs.flight",
        ("repro.obs.flight:FlightRecorder.on_request",),
        "serve.* (serve-browse, train-atnn); idle elsewhere",
    ),
)

# Spans the benchmark opens itself.  Their self time is the glue no
# wrapped layer covers: ``trainer`` wraps ``ATNNTrainer.fit`` (its self
# time is the training loop's own Python) and ``loadgen`` is the replay
# loop (its self time is the output checks and the host probes).
BENCH_LAYERS: Tuple[Layer, ...] = (
    Layer("run", (), "root: everything below"),
    Layer("setup", (), "setup_s"),
    Layer("loadgen.inputs", (), "nothing: the benchmark's own input generation"),
    Layer("trainer", ("repro.core.trainer:ATNNTrainer.fit",), "train.samples_per_s"),
    Layer("loadgen", (), "nothing: the replay loop's checks and host probes"),
)

# Layers that also report their inclusive time (``<layer>.total_s``).
TOTAL_LAYERS = (
    "trainer",
    "engine.ingest",
    "engine.refresh",
    "engine.promo",
    "engine.recommend",
    "engine.add_arrivals",
)


class NullRecorder:
    """The untraced run's recorder: every span is a no-op."""

    def span(self, name: str):
        return nullcontext()


class SpanRecorder:
    """Nested spans kept in memory, with per-layer calls and self time.

    Parameters
    ----------
    clock:
        Monotonic clock in seconds (injectable for tests).
    max_events:
        Span occurrences kept for the Chrome trace; aggregates keep
        counting after the cap.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_events: int = 1_000_000,
    ) -> None:
        self.clock = clock
        self.max_events = max_events
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.events: List[Tuple[str, float, float]] = []
        self.dropped = 0
        self._stack: List[list] = []  # [name, start, seconds covered by children]
        self._active: Dict[str, int] = defaultdict(int)

    def open(self, name: str) -> None:
        self._active[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        end = self.clock()
        name, start, children = self._stack.pop()
        duration = end - start
        self._active[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - children
        if not self._active[name]:  # outermost span of this layer
            self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.events) < self.max_events:
            self.events.append((name, start, duration))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def inside(self, name: str) -> bool:
        """Whether a span of ``name`` is open."""
        return self._active.get(name, 0) > 0

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    @property
    def spans(self) -> int:
        return sum(self.calls.values())

    def chrome_trace(self) -> Dict[str, object]:
        """The kept spans as a Chrome/Perfetto trace (complete events)."""
        origin = min((start for _, start, _ in self.events), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": duration * 1e6,
                "pid": 1,
                "tid": 1,
            }
            for name, start, duration in self.events
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"spans_dropped": self.dropped},
        }

    def write_chrome_trace(self, path: Path) -> None:
        path.write_text(json.dumps(self.chrome_trace()), encoding="utf-8")


# ----------------------------------------------------------------------
# Wrapping and restoring
# ----------------------------------------------------------------------
_MISSING = object()

# Extra counts taken at a layer boundary, keyed by layer name.  Each probe
# sees the wrapped call's arguments while the caller's spans are open.
Probe = Callable[[SpanRecorder, tuple, dict], None]


def _rows(features) -> int:
    return len(next(iter(features.values()))) if features else 0


def _probe_encoder(recorder: SpanRecorder, args: tuple, kwargs: dict) -> None:
    if recorder.inside("engine.refresh"):
        recorder.count("refresh.encoder_rows", _rows(args[1]))


def _probe_refresh(recorder: SpanRecorder, args: tuple, kwargs: dict) -> None:
    recorder.count("refresh.catalogue_rows", len(args[0].catalogue))


def _probe_search(recorder: SpanRecorder, args: tuple, kwargs: dict) -> None:
    if recorder.inside("engine.promo"):
        recorder.count("promo.searches")


PROBES: Dict[str, Probe] = {
    "core.item_encoder": _probe_encoder,
    "engine.refresh": _probe_refresh,
    "retrieval.search": _probe_search,
}


def _traced(function, recorder: SpanRecorder, layer: str, iterator: bool):
    probe = PROBES.get(layer)

    @functools.wraps(function)
    def traced(*args, **kwargs):
        recorder.open(layer)
        try:
            if probe is not None:
                probe(recorder, args, kwargs)
            result = function(*args, **kwargs)
        finally:
            recorder.close()
        return _TracedIterator(result, recorder, layer) if iterator else result

    return traced


class _TracedIterator:
    """Times each ``next()`` of an iterator as one span of ``layer``."""

    def __init__(self, iterable, recorder: SpanRecorder, layer: str) -> None:
        self._iterator = iter(iterable)
        self._recorder = recorder
        self._layer = layer

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        self._recorder.open(self._layer)
        try:
            return next(self._iterator)
        finally:
            self._recorder.close()


def resolve(target: str) -> List[Tuple[object, str]]:
    """``(owner, attribute)`` pairs named by one target string."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    if "." not in path:
        return [(owner, path)]
    class_name, attr = path.split(".", 1)
    owner = getattr(owner, class_name)
    if attr != "*":
        return [(owner, attr)]
    return [
        (owner, name)
        for name, value in vars(owner).items()
        if not name.startswith("_") and callable(value)
    ]


def _wrap_attribute(owner, attr: str, recorder: SpanRecorder, layer: Layer):
    """Install the traced version; returns the value to restore."""
    original = vars(owner).get(attr, _MISSING)
    if isinstance(original, (staticmethod, classmethod)):
        kind = type(original)
        replacement = kind(
            _traced(original.__func__, recorder, layer.name, layer.iterator)
        )
    else:
        replacement = _traced(
            getattr(owner, attr), recorder, layer.name, layer.iterator
        )
    setattr(owner, attr, replacement)
    return original


@contextmanager
def installed(
    recorder: SpanRecorder, layers: Sequence[Layer] = LAYERS + BENCH_LAYERS
) -> Iterator[List[Tuple[object, str, object]]]:
    """Wrap every target of ``layers`` for the enclosed block, then restore.

    Yields the ``(owner, attribute, original)`` records it will restore
    (``original`` is the owner's own ``__dict__`` entry, or a sentinel
    when the attribute was inherited and the wrapper must be deleted).
    """
    patched: List[Tuple[object, str, object]] = []
    try:
        for layer in layers:
            for target in layer.targets:
                for owner, attr in resolve(target):
                    original = _wrap_attribute(owner, attr, recorder, layer)
                    patched.append((owner, attr, original))
        yield patched
    finally:
        for owner, attr, original in reversed(patched):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def per_span_cost(repeats: int = 20_000) -> float:
    """Seconds one traced call adds over a plain call (wrapper + bookkeeping)."""

    def plain() -> None:
        return None

    calibration = SpanRecorder(max_events=repeats)
    traced = _traced(plain, calibration, "calibration", iterator=False)
    best_plain = best_traced = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(repeats):
            plain()
        best_plain = min(best_plain, time.perf_counter() - start)
        calibration.events.clear()
        start = time.perf_counter()
        for _ in range(repeats):
            traced()
        best_traced = min(best_traced, time.perf_counter() - start)
    return max(best_traced - best_plain, 0.0) / repeats


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, span_cost: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer calls, self time and share of the root, ratios, trace health.

    ``engine.promo_cache_hit_ratio`` is the share of promo calls that ran
    no index search; ``engine.refresh_rescored_share`` is the encoder
    rows re-scored inside refreshes over the catalogue rows they covered.
    ``trace.overhead_share`` estimates what tracing added to the run: the
    calibrated cost of one traced call times the number of spans, over
    the root time with that cost removed.  ``trace.coverage`` is the sum
    of all self times over the root time (1 when every span nests).
    """
    root = recorder.total_s.get("run", 0.0)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS + BENCH_LAYERS:
        name = layer.name
        self_s = recorder.self_s.get(name, 0.0)
        metrics[f"{name}.calls"] = (float(recorder.calls.get(name, 0)), "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.share"] = (_ratio(self_s, root), "fraction")
        if name in TOTAL_LAYERS:
            metrics[f"{name}.total_s"] = (recorder.total_s.get(name, 0.0), "s")
    promos = recorder.calls.get("engine.promo", 0)
    metrics["engine.promo_cache_hit_ratio"] = (
        1.0 - _ratio(recorder.counters["promo.searches"], promos) if promos else 0.0,
        "fraction",
    )
    metrics["engine.refresh_rescored_share"] = (
        _ratio(recorder.counters["refresh.encoder_rows"], recorder.counters["refresh.catalogue_rows"]),
        "fraction",
    )
    overhead = span_cost * recorder.spans
    metrics["trace.overhead_share"] = (
        overhead / (root - overhead) if root > overhead else 0.0,
        "fraction",
    )
    metrics["trace.coverage"] = (_ratio(sum(recorder.self_s.values()), root), "fraction")
    return metrics


def layer_table(recorder: SpanRecorder) -> str:
    """Per-layer self-time table, hottest first, with what each layer moves."""
    root = recorder.total_s.get("run", 0.0)
    layers = sorted(LAYERS + BENCH_LAYERS, key=lambda layer: -recorder.self_s.get(layer.name, 0.0))
    lines = [
        f"{'layer':<24}{'calls':>10}{'self_s':>12}{'share':>9}{'total_s':>12}  moves",
    ]
    for layer in layers:
        self_s = recorder.self_s.get(layer.name, 0.0)
        lines.append(
            f"{layer.name:<24}{recorder.calls.get(layer.name, 0):>10d}"
            f"{self_s:>12.4f}{_ratio(self_s, root):>9.2%}"
            f"{recorder.total_s.get(layer.name, 0.0):>12.4f}  {layer.moves}"
        )
    covered = sum(recorder.self_s.values())
    lines.append(
        f"{'sum of self times':<34}{covered:>12.4f}{_ratio(covered, root):>9.2%}{root:>12.4f}"
    )
    return "\n".join(lines)
