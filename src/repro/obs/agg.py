"""Fleet telemetry aggregation: snapshot shipping, merging, stitching.

Every observability primitive in this package is process-local by
design — ``docs/thread_hostility.md`` enumerates exactly which ambient
channels (active registry/tracer/monitor stacks, request observers)
must never be shared across shards.  Sharded serving therefore
aggregates by **snapshot shipping** instead: each process periodically
writes a frame of mergeable sufficient statistics to its own spool
file, and a collector tails the spools and folds the newest frame per
process into fleet-level state.

* :class:`TelemetryShipper` — flushes the active (or bound) registry,
  quality monitor, SLO tracker and tracer into
  ``<spool_dir>/<process>.jsonl`` as versioned JSONL frames.  No
  threads: time-based flushing is pumped from the request-observer hook
  (and an explicit final flush at session stop).
* :class:`TelemetryCollector` — tails N spools, keeps the newest
  *complete* frame per process (half-written tails are ignored until
  finished), merges everything into a fresh registry / monitor / SLO
  tracker, re-evaluates burn rates and alert rules on the merged view,
  and re-exports text/JSONL/Prometheus.
* Trace stitching — :func:`stitch_request_records` joins request
  records from different processes by ``trace_id``/``parent_id`` (see
  :meth:`~repro.obs.context.TraceContext.inject`), and
  :func:`stitched_chrome_trace` renders the joined trees on one
  unix-aligned timeline, one Chrome-trace process row per real process.

Wire format (version 1)
-----------------------
One frame is a contiguous run of JSONL records::

    {"type": "frame", "version": 1, "process": ..., "pid": ...,
     "shard": ..., "seq": N, "at_unix": ..., "unix_anchor": ...,
     "perf_anchor": ..., "n_records": K}
    {"type": "metric", "name": ..., "kind": ..., "help": ..., "state": {...}}
    {"type": "quality", "state": {...}}
    {"type": "slo", "state": {...}}
    {"type": "tracer", "state": {...}}
    {"type": "frame_end", "seq": N}

``n_records`` counts the records between header and terminator; a frame
is complete only when its ``frame_end`` carries the header's ``seq`` and
exactly ``n_records`` records arrived.  Merge semantics: counters,
histogram accumulators and estimator bins are *sums*; gauges are
last-writer-wins in frame-timestamp order; SLO windows replay their
shipped event strings (see :meth:`~repro.obs.slo.SLOWindow.merge_state`).
Every frame carries the process's *cumulative* state, so the collector
always rebuilds fleet state from the newest frame per process — frames
are idempotent, and a lost frame costs freshness, not correctness.

Run ``python -m repro.obs.agg <spool_dir>`` for a one-shot merge, or
``--watch`` for a live summary.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.obs.alerts import Alert
from repro.obs.context import get_shard_label
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import (
    MetricsRegistry,
    get_active_registry,
    use_registry,
)
from repro.obs.quality import QualityMonitor, get_active_monitor
from repro.obs.slo import SLOTracker, get_active_slo_tracker
from repro.obs.tracing import Tracer, get_active_tracer

__all__ = [
    "WIRE_VERSION",
    "TelemetryShipper",
    "TelemetryCollector",
    "load_bundle_requests",
    "stitch_request_records",
    "stitched_chrome_trace",
    "main",
]

_LOGGER = get_logger("obs.agg")

WIRE_VERSION = 1


# ----------------------------------------------------------------------
# Shipper
# ----------------------------------------------------------------------
class TelemetryShipper:
    """Periodically spools one process's telemetry as mergeable frames.

    Sources may be bound at construction or left ``None`` to resolve the
    ambient object (``get_active_registry()`` & co.) at each flush — the
    latter is what :class:`~repro.obs.session.TelemetrySession` uses, so
    the shipper always sees exactly the objects the session activated.

    The shipper never starts threads.  :meth:`maybe_flush` is cheap
    (one clock read) and is pumped from the request-observer hook
    (:meth:`on_request`), so shipping rides the serving request stream;
    callers must :meth:`flush` once at shutdown to ship the final state.
    The first :meth:`maybe_flush` always ships.  ``clock`` (default
    ``time.monotonic``) times the flush interval; tests inject a fake.
    """

    def __init__(
        self,
        spool_dir: Union[str, Path],
        process_label: Optional[str] = None,
        interval_seconds: float = 2.0,
        registry: Optional[MetricsRegistry] = None,
        monitor: Optional[QualityMonitor] = None,
        slo: Optional[SLOTracker] = None,
        tracer: Optional[Tracer] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be > 0, got {interval_seconds}"
            )
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        if process_label is None:
            process_label = get_shard_label() or f"pid{os.getpid()}"
        self.process_label = str(process_label)
        self.spool_path = self.spool_dir / f"{self.process_label}.jsonl"
        self.interval_seconds = float(interval_seconds)
        self._registry = registry
        self._monitor = monitor
        self._slo = slo
        self._tracer = tracer
        self._clock = clock
        self._seq = 0
        self._last_flush: Optional[float] = None  # None → never flushed

    # ------------------------------------------------------------------
    def _sources(
        self,
    ) -> Tuple[
        Optional[MetricsRegistry],
        Optional[QualityMonitor],
        Optional[SLOTracker],
        Optional[Tracer],
    ]:
        return (
            self._registry if self._registry is not None else get_active_registry(),
            self._monitor if self._monitor is not None else get_active_monitor(),
            self._slo if self._slo is not None else get_active_slo_tracker(),
            self._tracer if self._tracer is not None else get_active_tracer(),
        )

    def build_frame(self) -> List[Dict[str, object]]:
        """The frame records (header first, ``frame_end`` last)."""
        registry, monitor, slo, tracer = self._sources()
        records: List[Dict[str, object]] = []
        if registry is not None:
            for record in registry.snapshot_state():
                records.append({"type": "metric", **record})
        if monitor is not None:
            records.append({"type": "quality", "state": monitor.snapshot_state()})
        if slo is not None:
            records.append({"type": "slo", "state": slo.snapshot_state()})
        if tracer is not None:
            records.append({"type": "tracer", "state": tracer.snapshot_state()})
        self._seq += 1
        header: Dict[str, object] = {
            "type": "frame",
            "version": WIRE_VERSION,
            "process": self.process_label,
            "pid": os.getpid(),
            "shard": get_shard_label(),
            "seq": self._seq,
            "at_unix": time.time(),
            "unix_anchor": time.time(),
            "perf_anchor": time.perf_counter(),
            "n_records": len(records),
        }
        return [header, *records, {"type": "frame_end", "seq": self._seq}]

    def flush(self) -> int:
        """Append one complete frame to the spool; returns its seq.

        The frame is serialised first and appended with a single write,
        so a concurrently tailing collector sees at worst a truncated
        final line — never interleaved or reordered records.
        """
        started = time.perf_counter()
        frame = self.build_frame()
        payload = "".join(json.dumps(record) + "\n" for record in frame)
        with open(self.spool_path, "a", encoding="utf-8") as handle:
            handle.write(payload)
        self._last_flush = self._clock()
        registry, _, _, _ = self._sources()
        if registry is not None:
            registry.counter("shipper.flushes").inc()
            registry.histogram("shipper.flush_seconds").observe(
                time.perf_counter() - started
            )
        return self._seq

    def maybe_flush(self, now: Optional[float] = None) -> bool:
        """Flush when the interval elapsed; returns whether it did."""
        if now is None:
            now = self._clock()
        if (
            self._last_flush is not None
            and now - self._last_flush < self.interval_seconds
        ):
            return False
        self.flush()
        return True

    def on_request(self, record) -> None:
        """Request-observer hook: pump time-based flushing, no threads."""
        self.maybe_flush()


# ----------------------------------------------------------------------
# Spool tailing
# ----------------------------------------------------------------------
class _SpoolTail:
    """Incremental reader of one spool file.

    Remembers the byte offset of the last fully parsed line, so each
    :meth:`poll` only touches bytes appended since; a truncated final
    line (a flush caught mid-write) stays unconsumed until completed.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.offset = 0
        self._open: Optional[Tuple[Dict[str, object], List[Dict[str, object]]]] = None
        self.latest: Optional[Tuple[Dict[str, object], List[Dict[str, object]]]] = None
        self.frames_seen = 0
        self.corrupt_lines = 0

    def poll(self) -> int:
        """Consume appended bytes; returns newly completed frame count."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return 0
        if size < self.offset:  # truncated/rotated: start over
            self.offset = 0
            self._open = None
        if size == self.offset:
            return 0
        with open(self.path, "r", encoding="utf-8") as handle:
            handle.seek(self.offset)
            data = handle.read()
        completed = 0
        consumed = 0
        for line in data.splitlines(keepends=True):
            if not line.endswith("\n"):
                break  # partial tail: wait for the writer to finish it
            consumed += len(line.encode("utf-8"))
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                self.corrupt_lines += 1
                self._open = None
                continue
            completed += self._feed(record)
        self.offset += consumed
        return completed

    def _feed(self, record: Dict[str, object]) -> int:
        kind = record.get("type")
        if kind == "frame":
            if int(record.get("version", -1)) != WIRE_VERSION:
                _LOGGER.warning(
                    kv(
                        "skipping frame with unknown wire version",
                        path=str(self.path),
                        version=record.get("version"),
                    )
                )
                self._open = None
                return 0
            self._open = (record, [])
            return 0
        if self._open is None:
            return 0
        header, records = self._open
        if kind == "frame_end":
            self._open = None
            if record.get("seq") != header.get("seq"):
                self.corrupt_lines += 1
                return 0
            if len(records) != int(header.get("n_records", -1)):
                self.corrupt_lines += 1
                return 0
            self.latest = (header, records)
            self.frames_seen += 1
            return 1
        records.append(record)
        return 0


# ----------------------------------------------------------------------
# Collector
# ----------------------------------------------------------------------
class TelemetryCollector:
    """Tails a spool directory and merges frames to fleet-level state.

    Every :meth:`collect` call polls each ``*.jsonl`` spool, then
    rebuilds the merged view **from scratch** out of the newest complete
    frame per process (frames carry cumulative state, so rebuilding is
    idempotent and late or lost frames can never double-count).  The
    merged view is a fresh :class:`~repro.obs.metrics.MetricsRegistry`,
    :class:`~repro.obs.quality.QualityMonitor` and
    :class:`~repro.obs.slo.SLOTracker`; :meth:`evaluate` re-runs the SLO
    burn-rate/budget rules and quality alert rules against it.

    Staleness: a process whose newest frame is older than
    ``stale_after`` seconds is listed in :attr:`stale_processes` (and
    counted by the ``collector.stale_processes`` gauge) but stays in the
    merge — its last shipped state remains the best known truth; it is
    flagged, never silently dropped.
    """

    def __init__(
        self,
        spool_dir: Union[str, Path],
        stale_after: float = 30.0,
    ) -> None:
        if stale_after <= 0:
            raise ValueError(f"stale_after must be > 0, got {stale_after}")
        self.spool_dir = Path(spool_dir)
        self.stale_after = float(stale_after)
        self._tails: Dict[str, _SpoolTail] = {}
        self.collections = 0
        # Merged view, rebuilt by collect().
        self.registry = MetricsRegistry()
        self.monitor: Optional[QualityMonitor] = None
        self.slo = SLOTracker(slos=(), evaluate_every=0)
        self.processes: Dict[str, Dict[str, object]] = {}
        self.stale_processes: List[str] = []

    # ------------------------------------------------------------------
    def _poll_spools(self) -> int:
        if not self.spool_dir.is_dir():
            return 0
        fresh = 0
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            key = path.name
            tail = self._tails.get(key)
            if tail is None:
                tail = self._tails[key] = _SpoolTail(path)
            fresh += tail.poll()
        return fresh

    @staticmethod
    def _monitor_for(state: Dict[str, object]) -> QualityMonitor:
        """A fleet monitor shaped like the first shipped quality state."""
        auc = state["auc"]
        ece = state["ece"]
        return QualityMonitor(
            auc_bins=int(auc["n_bins"]),  # type: ignore[index]
            ece_bins=int(ece["n_bins"]),  # type: ignore[index]
            min_outcomes=int(state.get("min_outcomes", 200)),  # type: ignore[arg-type]
        )

    def collect(self, now: Optional[float] = None) -> Dict[str, object]:
        """Poll spools, rebuild the merged view, return a summary dict."""
        if now is None:
            now = time.time()
        self._poll_spools()
        self.collections += 1
        # Newest complete frame per process, oldest frame first so
        # last-writer-wins gauges resolve to the freshest process.
        frames = [
            tail.latest for tail in self._tails.values() if tail.latest is not None
        ]
        frames.sort(key=lambda frame: float(frame[0].get("at_unix", 0.0)))
        registry = MetricsRegistry()
        monitor: Optional[QualityMonitor] = None
        slo = SLOTracker(slos=(), evaluate_every=0)
        processes: Dict[str, Dict[str, object]] = {}
        stale: List[str] = []
        tracer_dropped_total = 0
        for header, records in frames:
            process = str(header.get("process", "unknown"))
            at_unix = float(header.get("at_unix", 0.0))
            age = now - at_unix
            info: Dict[str, object] = {
                "pid": header.get("pid"),
                "shard": header.get("shard"),
                "seq": header.get("seq"),
                "at_unix": at_unix,
                "age_seconds": age,
                "stale": age > self.stale_after,
            }
            for record in records:
                kind = record.get("type")
                if kind == "metric":
                    registry.merge_state(record)
                elif kind == "quality":
                    state = record["state"]
                    if monitor is None:
                        monitor = self._monitor_for(state)  # type: ignore[arg-type]
                    monitor.merge_state(state)  # type: ignore[arg-type]
                elif kind == "slo":
                    slo.merge_state(record["state"])  # type: ignore[arg-type]
                elif kind == "tracer":
                    state = record["state"]
                    dropped = int(state.get("events_dropped", 0))  # type: ignore[union-attr]
                    info["tracer_dropped"] = dropped
                    info["tracer_recorded"] = state.get("events_recorded")  # type: ignore[union-attr]
                    tracer_dropped_total += dropped
            processes[process] = info
            if info["stale"]:
                stale.append(process)
        # Collector-owned fleet metrics (literal names; the per-process
        # drop gauges use the documented dynamic tracer.dropped.* family).
        registry.counter(
            "tracer.dropped",
            help="fleet-wide tracer events dropped across every shipped process",
        ).inc(tracer_dropped_total)
        for process, info in sorted(processes.items()):
            if "tracer_dropped" in info:
                registry.gauge(f"tracer.dropped.{process}").set(
                    float(info["tracer_dropped"])  # type: ignore[arg-type]
                )
        registry.counter("collector.collections").inc(self.collections)
        registry.gauge("collector.processes").set(float(len(processes)))
        registry.gauge("collector.stale_processes").set(float(len(stale)))
        self.registry = registry
        self.monitor = monitor
        self.slo = slo
        self.processes = processes
        self.stale_processes = stale
        return {
            "processes": len(processes),
            "stale": list(stale),
            "tracer_dropped": tracer_dropped_total,
            "metrics": len(registry),
            "slos": sorted(self.slo.windows),
        }

    # ------------------------------------------------------------------
    # Evaluation and export over the merged view
    # ------------------------------------------------------------------
    def evaluate(self) -> List[Alert]:
        """Re-run SLO and quality alert rules against the merged view.

        Runs with the merged registry active, so burn-rate/budget and
        quality gauges land in it exactly as they would in-process.
        """
        alerts: List[Alert] = []
        with use_registry(self.registry):
            alerts.extend(self.slo.evaluate())
            if self.monitor is not None:
                alerts.extend(self.monitor.evaluate())
        return alerts

    def fleet_snapshot(self) -> Dict[str, Optional[float]]:
        """Flat merged metric mapping (slo.* plus quality.*)."""
        out: Dict[str, Optional[float]] = {}
        out.update(self.slo.snapshot())
        if self.monitor is not None:
            out.update(self.monitor.snapshot())
        return out

    def iter_records(self) -> Iterator[Dict[str, object]]:
        """JSONL report: fleet summary, per-process lines, merged state."""
        yield {
            "type": "fleet",
            "processes": sorted(self.processes),
            "stale_processes": list(self.stale_processes),
            "collections": self.collections,
        }
        for process, info in sorted(self.processes.items()):
            record: Dict[str, object] = {"type": "process", "process": process}
            record.update(info)
            yield record
        for record in self.registry.iter_records():
            yield {"type": "metric", **record}
        for record in self.slo.iter_records():
            yield record
        if self.monitor is not None:
            for name, value in self.monitor.snapshot().items():
                yield {"type": "quality", "name": name, "value": value}

    def to_text(self) -> str:
        """Human-readable fleet summary."""
        lines = [
            f"fleet telemetry: {len(self.processes)} process(es), "
            f"{len(self.stale_processes)} stale"
        ]
        for process, info in sorted(self.processes.items()):
            flags = " STALE" if info.get("stale") else ""
            dropped = info.get("tracer_dropped", 0)
            lines.append(
                f"  {process}: shard={info.get('shard')} pid={info.get('pid')} "
                f"seq={info.get('seq')} age={info.get('age_seconds', 0.0):.1f}s "
                f"tracer_dropped={dropped}{flags}"
            )
        if len(self.slo.windows):
            lines.append(self.slo.to_text())
        if self.monitor is not None:
            lines.append(self.monitor.to_text())
        metrics_text = self.registry.to_text()
        if metrics_text:
            lines.append("merged metrics")
            lines.extend(f"  {line}" for line in metrics_text.splitlines())
        return "\n".join(lines)

    def to_prometheus_text(self) -> str:
        """Merged registry in Prometheus exposition format."""
        return self.registry.to_prometheus_text()

    def write_jsonl(self, destination: Union[str, Path]) -> None:
        with open(destination, "w", encoding="utf-8") as handle:
            for record in self.iter_records():
                handle.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# Cross-process trace stitching
# ----------------------------------------------------------------------
def load_bundle_requests(bundle_dir: Union[str, Path]) -> List[Dict[str, object]]:
    """The request records of one flight-recorder bundle (rendered form)."""
    path = Path(bundle_dir) / "requests.jsonl"
    records: List[Dict[str, object]] = []
    if not path.is_file():
        return records
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _find_bundles(roots: Sequence[Union[str, Path]]) -> List[Path]:
    """Bundle dirs under ``roots`` (a root may itself be a bundle)."""
    bundles: List[Path] = []
    for root in roots:
        root = Path(root)
        if (root / "requests.jsonl").is_file():
            bundles.append(root)
            continue
        bundles.extend(
            sorted(
                candidate.parent
                for candidate in root.glob("**/requests.jsonl")
            )
        )
    return bundles


def stitch_request_records(
    records: Sequence[Dict[str, object]],
) -> Dict[str, List[Dict[str, object]]]:
    """Join request records (possibly from many processes) into trees.

    Returns ``{trace_id: [root_tree, ...]}`` where each tree node is the
    original record plus a ``children`` list; a child is any record of
    the same trace whose ``parent_id`` equals the node's ``span_id``
    (the identity :meth:`~repro.obs.context.TraceContext.inject`
    carries over a process hop).  Records whose parent never shipped
    stay roots of their trace rather than disappearing.
    """
    by_trace: Dict[str, List[Dict[str, object]]] = {}
    for record in records:
        trace_id = str(record.get("trace_id"))
        by_trace.setdefault(trace_id, []).append(record)
    out: Dict[str, List[Dict[str, object]]] = {}
    for trace_id, members in sorted(by_trace.items()):
        nodes = [dict(member, children=[]) for member in members]
        by_span: Dict[str, Dict[str, object]] = {
            str(node["span_id"]): node
            for node in nodes
            if node.get("span_id") is not None
        }
        roots: List[Dict[str, object]] = []
        for node in nodes:
            parent_id = node.get("parent_id")
            parent = by_span.get(str(parent_id)) if parent_id is not None else None
            if parent is None or parent is node:
                roots.append(node)
            else:
                parent["children"].append(node)
        for node in nodes:
            node["children"].sort(
                key=lambda child: float(child.get("started_unix", 0.0))
            )
        roots.sort(key=lambda node: float(node.get("started_unix", 0.0)))
        out[trace_id] = roots
    return out


def stitched_chrome_trace(
    records: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Chrome Trace Event Format JSON over unix-aligned request records.

    Request records carry ``started_unix`` anchors and render their
    spans relative to the request start, so records from different
    processes land on one shared timeline without perf-counter
    alignment.  Each real process (pid) becomes one Chrome-trace
    process row, labelled with its shard when known.
    """
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms", "metadata": {}}
    origin = min(float(record.get("started_unix", 0.0)) for record in records)
    events: List[Dict[str, object]] = []
    seen_pids: Dict[int, Optional[str]] = {}
    for record in records:
        pid = int(record.get("pid") or 0)
        shard = record.get("shard")
        seen_pids.setdefault(pid, shard if isinstance(shard, str) else None)
        start = float(record.get("started_unix", 0.0)) - origin
        args = {
            "trace_id": record.get("trace_id"),
            "span_id": record.get("span_id"),
            "parent_id": record.get("parent_id"),
            "shard": shard,
            "status": record.get("status"),
        }
        events.append(
            {
                "name": str(record.get("kind", "request")),
                "cat": "request",
                "ph": "X",
                "ts": start * 1e6,
                "dur": float(record.get("duration_seconds", 0.0)) * 1e6,
                "pid": pid,
                "tid": 1,
                "args": args,
            }
        )
        for span in record.get("spans", ()):  # type: ignore[union-attr]
            events.append(
                {
                    "name": str(span["path"]).rsplit("/", 1)[-1],
                    "cat": "span",
                    "ph": "X",
                    "ts": (start + float(span["start_seconds"])) * 1e6,
                    "dur": float(span["duration_seconds"]) * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": {
                        "path": span["path"],
                        "trace_id": record.get("trace_id"),
                    },
                }
            )
    for pid, shard in sorted(seen_pids.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": shard if shard else f"pid {pid}"},
            }
        )
    traces = stitch_request_records(records)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "origin_unix": origin,
            "processes": len(seen_pids),
            "traces": len(traces),
            "stitched_traces": sum(
                1
                for roots in traces.values()
                if len({int(r.get("pid") or 0) for r in _walk(roots)}) > 1
            ),
        },
    }


def _walk(nodes: Sequence[Dict[str, object]]) -> Iterator[Dict[str, object]]:
    for node in nodes:
        yield node
        yield from _walk(node.get("children", ()))  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# CLI: one-shot merge or live watch
# ----------------------------------------------------------------------
def _render(collector: TelemetryCollector, fmt: str) -> str:
    if fmt == "prom":
        return collector.to_prometheus_text()
    if fmt == "jsonl":
        return "".join(
            json.dumps(record) + "\n" for record in collector.iter_records()
        )
    return collector.to_text()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.agg",
        description=(
            "Merge per-process telemetry spools into a fleet view, "
            "re-evaluate SLO/alert rules on it, and optionally stitch "
            "flight-recorder bundles into one cross-process trace."
        ),
    )
    parser.add_argument("spool_dir", help="directory of <process>.jsonl spools")
    parser.add_argument(
        "--bundles",
        nargs="*",
        default=(),
        help="flight-recorder bundle dirs (or parents) to stitch by trace_id",
    )
    parser.add_argument(
        "--format",
        choices=("text", "jsonl", "prom"),
        default="text",
        help="merged-view rendering (default: text)",
    )
    parser.add_argument("--out", help="write the rendering here instead of stdout")
    parser.add_argument(
        "--trace-out", help="write the stitched Chrome trace JSON here"
    )
    parser.add_argument(
        "--stale-after",
        type=float,
        default=30.0,
        help="seconds before a process's newest frame counts as stale",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="keep polling and re-printing the summary",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="watch polling interval in seconds",
    )
    args = parser.parse_args(argv)

    collector = TelemetryCollector(args.spool_dir, stale_after=args.stale_after)
    try:
        while True:
            collector.collect()
            alerts = collector.evaluate()
            rendering = _render(collector, args.format)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(rendering if rendering.endswith("\n") else rendering + "\n")
            else:
                print(rendering)
            if alerts:
                for alert in alerts:
                    print(
                        f"alert {alert.kind}: {alert.rule} "
                        f"({alert.metric}={alert.value:.6g})"
                    )
            if not args.watch:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass

    if args.trace_out:
        records: List[Dict[str, object]] = []
        for bundle in _find_bundles(args.bundles):
            records.extend(load_bundle_requests(bundle))
        trace = stitched_chrome_trace(records)
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
        print(
            f"stitched trace: {trace['metadata'].get('traces', 0)} trace(s), "
            f"{trace['metadata'].get('stitched_traces', 0)} spanning multiple "
            f"processes -> {args.trace_out}"
        )
    if not collector.processes:
        print(f"no complete frames found under {args.spool_dir}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
