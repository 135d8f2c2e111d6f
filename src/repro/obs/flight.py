"""Serving flight recorder: recent request traces + postmortem bundles.

The aggregated tracer answers "where does time go"; the flight recorder
answers "what exactly happened around *this* incident".  While active
(:class:`use_flight_recorder`) it receives every completed root request
from :mod:`repro.obs.context` and keeps

* a bounded **ring buffer** of the most recent
  :class:`~repro.obs.context.RequestRecord`s (span tree + engine
  decisions: scores served, top-k order-cache hit/miss, slots
  rescored), and
* **tail exemplars** — the slowest requests seen over the whole run,
  retained even after the ring has wrapped many times, so the p99
  outlier that fired an alert an hour ago is still inspectable.

When an alert fires (any :class:`~repro.obs.alerts.AlertEngine` — the
quality monitor's or the SLO tracker's) or an exception escapes a
request scope, the recorder dumps a **postmortem bundle**: a directory
with

* ``META.json`` — reason, timestamps, counts;
* ``requests.jsonl`` — every retained request (ring + exemplars);
* ``trace.json`` — the retained requests as a Chrome/Perfetto trace,
  one thread lane per request;
* ``snapshot.json`` — the monitor/SLO/alert/registry state at dump time.

Replay a bundle from the shell::

    python -m repro.obs.flight results/postmortems/postmortem-001-alert-...

which prints the slowest exemplars with their span trees and names each
request's hottest span by *self* time — usually all that is needed to
attribute the outlier.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import re
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.obs.alerts import (
    Alert,
    register_alert_observer,
    unregister_alert_observer,
)
from repro.obs.context import (
    RequestRecord,
    register_request_observer,
    unregister_request_observer,
)
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import get_active_registry

__all__ = [
    "FlightRecorder",
    "get_active_flight_recorder",
    "use_flight_recorder",
    "load_bundle",
    "render_bundle",
    "main",
]

_LOGGER = get_logger("obs.flight")


def _slug(text: str, max_length: int = 48) -> str:
    return re.sub(r"[^a-zA-Z0-9_.-]+", "-", text).strip("-")[:max_length] or "dump"


class FlightRecorder:
    """Bounded request history with tail-exemplar sampling.

    Parameters
    ----------
    capacity:
        Ring-buffer size (most recent requests).
    tail_exemplars:
        How many of the slowest requests to retain beyond the ring.
    postmortem_dir:
        Where automatic bundles land; None disables automatic dumps
        (explicit :meth:`dump_postmortem` still works with an explicit
        directory).
    auto_dump:
        Dump a bundle when an alert fires or a request errors.
    dump_debounce:
        Minimum completed requests between automatic dumps — an alert
        storm produces one bundle per traffic window, not one per
        transition.
    max_dumps:
        Hard cap on automatic bundles per recorder.
    """

    def __init__(
        self,
        capacity: int = 512,
        tail_exemplars: int = 16,
        postmortem_dir: Optional[Union[str, Path]] = None,
        auto_dump: bool = True,
        dump_debounce: int = 64,
        max_dumps: int = 8,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if tail_exemplars < 0:
            raise ValueError(
                f"tail_exemplars must be >= 0, got {tail_exemplars}"
            )
        self.capacity = capacity
        self.tail_exemplars = tail_exemplars
        self.postmortem_dir = (
            Path(postmortem_dir) if postmortem_dir is not None else None
        )
        self.auto_dump = auto_dump
        self.dump_debounce = dump_debounce
        self.max_dumps = max_dumps
        self._ring: List[RequestRecord] = []
        self._ring_next = 0  # insertion cursor once the ring is full
        # Min-heap of (duration, seq, record): the root is the *fastest*
        # retained exemplar, evicted first when a slower request arrives.
        self._slowest: List[Tuple[float, int, RequestRecord]] = []
        self._seq = itertools.count()
        self.requests_recorded = 0
        self.requests_failed = 0
        self.dumps: List[Path] = []
        self._last_dump_at = None  # requests_recorded at the last auto dump

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def on_request(self, record: RequestRecord) -> None:
        """Request-observer hook: retain one completed root request."""
        self.requests_recorded += 1
        if len(self._ring) < self.capacity:
            self._ring.append(record)
        else:
            self._ring[self._ring_next] = record
            self._ring_next = (self._ring_next + 1) % self.capacity
        if self.tail_exemplars:
            slowest = self._slowest
            if len(slowest) < self.tail_exemplars:
                heapq.heappush(
                    slowest, (record.duration_seconds, next(self._seq), record)
                )
            elif record.duration_seconds > slowest[0][0]:
                heapq.heapreplace(
                    slowest, (record.duration_seconds, next(self._seq), record)
                )
        registry = get_active_registry()
        if registry is not None:
            registry.counter("flight.requests_recorded").inc()
        if record.status != "ok":
            self.requests_failed += 1
            if registry is not None:
                registry.counter("flight.requests_failed").inc()
            self._maybe_auto_dump(f"exception-{record.kind}", error=record.error)

    def on_alert(self, alert: Alert) -> None:
        """Fired-alert observer hook: snapshot the surrounding traffic."""
        self._maybe_auto_dump(f"alert-{alert.rule}", alert=alert)

    def _maybe_auto_dump(self, reason: str, alert=None, error=None) -> None:
        if not self.auto_dump or self.postmortem_dir is None:
            return
        if len(self.dumps) >= self.max_dumps:
            return
        if (
            self._last_dump_at is not None
            and self.requests_recorded - self._last_dump_at < self.dump_debounce
        ):
            return
        self._last_dump_at = self.requests_recorded
        self.dump_postmortem(reason, alert=alert, error=error)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def recent(self) -> List[RequestRecord]:
        """Ring-buffer contents, oldest first."""
        return self._ring[self._ring_next:] + self._ring[: self._ring_next]

    def slowest_requests(self, n: Optional[int] = None) -> List[RequestRecord]:
        """Tail exemplars ordered slowest first."""
        ordered = [
            entry[2]
            for entry in sorted(self._slowest, key=lambda e: -e[0])
        ]
        return ordered if n is None else ordered[:n]

    def retained(self) -> List[RequestRecord]:
        """Ring plus exemplars (deduplicated), oldest first."""
        seen = set()
        out: List[RequestRecord] = []
        for record in self.recent() + self.slowest_requests():
            key = id(record)
            if key not in seen:
                seen.add(key)
                out.append(record)
        out.sort(key=lambda record: record.started_perf)
        return out

    def iter_records(self) -> Iterator[Dict[str, object]]:
        """One JSON-friendly ``request`` record per retained request."""
        exemplars = {id(record) for record in self.slowest_requests()}
        for record in self.retained():
            out: Dict[str, object] = {"type": "request"}
            out.update(record.as_dict())
            out["tail_exemplar"] = id(record) in exemplars
            yield out

    def to_text(self) -> str:
        """Short human-readable recorder summary."""
        lines = [
            "flight recorder: "
            f"{self.requests_recorded} requests seen, "
            f"{len(self._ring)} in ring, "
            f"{len(self._slowest)} tail exemplars, "
            f"{self.requests_failed} failed, "
            f"{len(self.dumps)} postmortem(s)"
        ]
        for record in self.slowest_requests(5):
            hottest = record.hottest_span()
            lines.append(
                f"  slowest {record.kind} {record.trace_id}: "
                f"{record.duration_seconds * 1e3:.3f} ms"
                + (f" (hottest span: {hottest})" if hottest else "")
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Postmortem bundles
    # ------------------------------------------------------------------
    def chrome_trace_events(self) -> List[Dict[str, object]]:
        """Retained requests as Trace Event Format events, one lane each."""
        retained = self.retained()
        if not retained:
            return []
        origin = min(record.started_perf for record in retained)
        events: List[Dict[str, object]] = []
        for tid, record in enumerate(retained, start=1):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        "name": f"{record.kind} {record.trace_id} "
                        f"[{record.status}]"
                    },
                }
            )
            events.append(
                {
                    "name": f"request:{record.kind}",
                    "cat": "request",
                    "ph": "X",
                    "ts": (record.started_perf - origin) * 1e6,
                    "dur": record.duration_seconds * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        "trace_id": record.trace_id,
                        "status": record.status,
                        "decisions": {
                            key: repr(value)
                            for key, value in record.decisions.items()
                        },
                    },
                }
            )
            for path, start, elapsed in record.spans:
                events.append(
                    {
                        "name": path.rsplit("/", 1)[-1],
                        "cat": "span",
                        "ph": "X",
                        "ts": (start - origin) * 1e6,
                        "dur": elapsed * 1e6,
                        "pid": 1,
                        "tid": tid,
                        "args": {"path": path, "trace_id": record.trace_id},
                    }
                )
        return events

    def dump_postmortem(
        self,
        reason: str,
        directory: Optional[Union[str, Path]] = None,
        alert: Optional[Alert] = None,
        error: Optional[str] = None,
    ) -> Path:
        """Write a bundle directory and return its path.

        The surrounding monitor/SLO/registry state is resolved from the
        ambient scopes at dump time, so the snapshot reflects exactly
        what the alert rules saw.
        """
        # Imported here so the flight recorder has no import-time
        # dependency on the quality/SLO modules (they are optional at
        # dump time anyway).
        from repro.obs.quality import get_active_monitor
        from repro.obs.slo import get_active_slo_tracker

        base = Path(directory) if directory is not None else self.postmortem_dir
        if base is None:
            raise ValueError(
                "no directory given and the recorder has no postmortem_dir"
            )
        # The name carries the pid, so processes sharing a directory
        # never collide; recorders within one process take the next free
        # sequence number, so a dump never overwrites another's bundle.
        base.mkdir(parents=True, exist_ok=True)
        sequence = len(self.dumps) + 1
        while True:
            bundle = base / (
                f"postmortem-{sequence:03d}-{_slug(reason)}-p{os.getpid()}"
            )
            try:
                bundle.mkdir()
                break
            except FileExistsError:
                sequence += 1

        retained = self.retained()
        slowest = self.slowest_requests()
        meta: Dict[str, object] = {
            "reason": reason,
            "created_unix": time.time(),
            "requests_recorded": self.requests_recorded,
            "requests_failed": self.requests_failed,
            "requests_retained": len(retained),
            "tail_exemplars": [record.trace_id for record in slowest],
            "slowest_trace_id": slowest[0].trace_id if slowest else None,
            "alert": None if alert is None else alert.as_dict(),
            "error": error,
        }
        (bundle / "META.json").write_text(
            json.dumps(meta, indent=2), encoding="utf-8"
        )
        with open(bundle / "requests.jsonl", "w", encoding="utf-8") as handle:
            for record in self.iter_records():
                handle.write(json.dumps(record) + "\n")
        (bundle / "trace.json").write_text(
            json.dumps(
                {
                    "traceEvents": self.chrome_trace_events(),
                    "displayTimeUnit": "ms",
                    "metadata": {"reason": reason},
                }
            ),
            encoding="utf-8",
        )
        snapshot: Dict[str, object] = {}
        monitor = get_active_monitor()
        if monitor is not None:
            snapshot["quality"] = monitor.snapshot()
            snapshot["alerts"] = [dict(r) for r in monitor.alerts.iter_records()]
            snapshot["active_alerts"] = monitor.alerts.active_alerts()
            if monitor.cold_start is not None:
                snapshot["cold_start"] = monitor.cold_start.summary()
        tracker = get_active_slo_tracker()
        if tracker is not None:
            snapshot["slo"] = list(tracker.iter_records())
            snapshot["slo_alerts"] = [
                dict(r) for r in tracker.alerts.iter_records()
            ]
            snapshot["slo_exhausted"] = tracker.exhausted()
        registry = get_active_registry()
        if registry is not None:
            snapshot["metrics"] = registry.as_dict()
        (bundle / "snapshot.json").write_text(
            json.dumps(snapshot, indent=2), encoding="utf-8"
        )
        self.dumps.append(bundle)
        registry = get_active_registry()
        if registry is not None:
            registry.counter("flight.postmortems_dumped").inc()
        _LOGGER.warning(kv("postmortem bundle dumped", reason=reason, path=str(bundle)))
        return bundle


# ----------------------------------------------------------------------
# Active-recorder scoping (mirrors use_registry / use_monitor)
# ----------------------------------------------------------------------
_ACTIVE_RECORDERS: List[FlightRecorder] = []


def get_active_flight_recorder() -> Optional[FlightRecorder]:
    """The innermost active recorder, or None when recording is off."""
    return _ACTIVE_RECORDERS[-1] if _ACTIVE_RECORDERS else None


class use_flight_recorder:
    """Activate ``recorder``: request feed + fired-alert postmortems."""

    def __init__(self, recorder: FlightRecorder) -> None:
        self._recorder = recorder

    def __enter__(self) -> FlightRecorder:
        _ACTIVE_RECORDERS.append(self._recorder)
        register_request_observer(self._recorder)
        register_alert_observer(self._recorder.on_alert)
        return self._recorder

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        unregister_alert_observer(self._recorder.on_alert)
        unregister_request_observer(self._recorder)
        for position in range(len(_ACTIVE_RECORDERS) - 1, -1, -1):
            if _ACTIVE_RECORDERS[position] is self._recorder:
                del _ACTIVE_RECORDERS[position]
                break


# ----------------------------------------------------------------------
# Bundle replay (python -m repro.obs.flight <bundle>)
# ----------------------------------------------------------------------
def load_bundle(path: Union[str, Path]) -> Dict[str, object]:
    """Load a postmortem bundle directory back into dicts."""
    bundle = Path(path)
    if not bundle.is_dir():
        raise FileNotFoundError(f"not a bundle directory: {bundle}")
    meta = json.loads((bundle / "META.json").read_text(encoding="utf-8"))
    requests = [
        json.loads(line)
        for line in (bundle / "requests.jsonl")
        .read_text(encoding="utf-8")
        .splitlines()
        if line.strip()
    ]
    snapshot_path = bundle / "snapshot.json"
    snapshot = (
        json.loads(snapshot_path.read_text(encoding="utf-8"))
        if snapshot_path.exists()
        else {}
    )
    return {"meta": meta, "requests": requests, "snapshot": snapshot}


def _request_self_times(request: Dict[str, object]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    child: Dict[str, float] = {}
    for span in request.get("spans", ()):
        path = span["path"]
        elapsed = span["duration_seconds"]
        totals[path] = totals.get(path, 0.0) + elapsed
        if "/" in path:
            parent = path.rsplit("/", 1)[0]
            child[parent] = child.get(parent, 0.0) + elapsed
    return {p: t - child.get(p, 0.0) for p, t in totals.items()}


def render_bundle(bundle: Dict[str, object], slowest: int = 5) -> str:
    """Human-readable replay of a loaded bundle."""
    meta = bundle["meta"]
    requests = bundle["requests"]
    snapshot = bundle["snapshot"]
    lines = [
        f"postmortem bundle: reason={meta.get('reason')!r} "
        f"requests_retained={meta.get('requests_retained')} "
        f"requests_recorded={meta.get('requests_recorded')}",
    ]
    if meta.get("alert"):
        alert = meta["alert"]
        lines.append(
            f"  triggering alert: {alert.get('rule')} "
            f"({alert.get('severity')}) {alert.get('metric')}="
            f"{alert.get('value')} threshold={alert.get('threshold')} "
            f"trace_id={alert.get('trace_id')}"
        )
    if meta.get("error"):
        lines.append(f"  triggering error: {meta['error']}")
    ordered = sorted(
        requests, key=lambda r: -float(r.get("duration_seconds", 0.0))
    )
    lines.append(f"  slowest {min(slowest, len(ordered))} request(s):")
    for request in ordered[:slowest]:
        self_times = _request_self_times(request)
        hottest = (
            max(self_times.items(), key=lambda item: item[1])[0]
            if self_times
            else None
        )
        flag = " [tail exemplar]" if request.get("tail_exemplar") else ""
        lines.append(
            f"    {request['kind']} {request['trace_id']} "
            f"{float(request['duration_seconds']) * 1e3:.3f} ms "
            f"status={request['status']}{flag}"
        )
        if hottest is not None:
            lines.append(
                f"      hottest span (self time): {hottest} "
                f"{self_times[hottest] * 1e3:.3f} ms"
            )
        ordered_spans = sorted(
            request.get("spans", ()),
            key=lambda s: (s.get("start_seconds", 0.0), s["path"].count("/")),
        )
        for span in ordered_spans:
            depth = span["path"].count("/")
            lines.append(
                "      " + "  " * depth
                + f"{span['path'].rsplit('/', 1)[-1]} "
                f"{span['duration_seconds'] * 1e3:.3f} ms"
            )
        if request.get("decisions"):
            rendered = ", ".join(
                f"{key}={value}"
                for key, value in sorted(request["decisions"].items())
            )
            lines.append(f"      decisions: {rendered}")
    fired = [
        alert
        for alert in snapshot.get("alerts", []) + snapshot.get("slo_alerts", [])
        if alert.get("kind") == "fired"
    ]
    lines.append(f"  alerts fired at dump time: {len(fired)}")
    for alert in fired:
        lines.append(
            f"    {alert['rule']} ({alert['severity']}): "
            f"{alert['metric']}={alert['value']:.6g} "
            f"trace_id={alert.get('trace_id')}"
        )
    for record in snapshot.get("slo", []):
        remaining = record.get("budget_remaining")
        lines.append(
            f"  slo {record['name']} ({record['kind']}): "
            f"budget_remaining="
            f"{'n/a' if remaining is None else format(remaining, '.3f')}"
        )
    exhausted = snapshot.get("slo_exhausted") or []
    if exhausted:
        lines.append(f"  exhausted budgets: {', '.join(exhausted)}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.obs.flight <bundle> [--slowest N]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.flight",
        description="Replay a serving postmortem bundle.",
    )
    parser.add_argument("bundle", type=Path, help="bundle directory")
    parser.add_argument(
        "--slowest",
        type=int,
        default=5,
        help="how many of the slowest requests to expand (default 5)",
    )
    args = parser.parse_args(argv)
    try:
        bundle = load_bundle(args.bundle)
    except (FileNotFoundError, json.JSONDecodeError) as error:
        print(f"error: {error}")
        return 2
    print(render_bundle(bundle, slowest=args.slowest))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    import sys

    sys.exit(main())
