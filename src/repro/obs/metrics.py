"""Metric instruments and the registry that owns them.

The registry is the heart of the telemetry layer: every instrumented code
path (trainers, the serving engine, the statistics store, named
:class:`~repro.utils.timer.Timer` blocks) reports into the registry of
the ambient :class:`~repro.obs.context.Telemetry`.  Activation is scoped
— :class:`~repro.obs.context.use_telemetry` blocks nest — so a test or a
CLI run can capture exactly the metrics produced inside its own block:

>>> from repro.obs import MetricsRegistry, Telemetry, current_telemetry, use_telemetry
>>> registry = MetricsRegistry()
>>> with use_telemetry(Telemetry(registry=registry)):
...     current_telemetry().registry.counter("demo.requests").inc()
>>> registry.counter("demo.requests").value
1.0

Three instrument kinds are provided, following the Prometheus vocabulary:

* :class:`Counter` — monotonically increasing totals (events, batches);
* :class:`Gauge` — a value that can go up and down (learning rate, epoch);
* :class:`Histogram` — observation distributions with fixed buckets *and*
  exact-or-sampled p50/p90/p99 quantile summaries.

When the ambient telemetry has no registry the instrumented code paths
skip reporting entirely, so production hot loops pay nothing for unused telemetry.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Dict, IO, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "prometheus_metric_name",
]

# Geometric latency-style buckets (seconds) covering microseconds to minutes.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self._value += float(amount)

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._value -= float(amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Observation distribution with fixed buckets and quantile summaries.

    Bucket counts are cumulative-free (each bucket counts observations in
    ``(previous_bound, bound]``; an implicit ``+inf`` bucket catches the
    rest).  Quantiles come from a bounded sample of the raw observations:
    while fewer than ``sample_capacity`` values have been observed the
    quantiles are **exact** (they match ``numpy.percentile`` on the full
    observation stream); beyond that the sample is decimated by a
    deterministic stride, giving approximate quantiles with bounded memory.
    """

    __slots__ = (
        "name", "help", "bounds", "bucket_counts", "count", "sum",
        "min", "max", "_sample", "_sample_capacity", "_stride", "_since_kept",
    )

    def __init__(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        help: str = "",
        sample_capacity: int = 8192,
    ) -> None:
        if sample_capacity < 2:
            raise ValueError(f"sample_capacity must be >= 2, got {sample_capacity}")
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if len(bounds) != len(set(bounds)):
            raise ValueError(f"histogram {name!r} has duplicate bucket bounds")
        self.name = name
        self.help = help
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last slot is +inf
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._sample: List[float] = []
        self._sample_capacity = sample_capacity
        self._stride = 1  # keep every _stride-th observation in the sample
        self._since_kept = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        # Find the first bound >= value (linear scan; bucket lists are short).
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[position] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        # Bounded quantile sample with deterministic stride decimation.
        self._since_kept += 1
        if self._since_kept >= self._stride:
            self._since_kept = 0
            self._sample.append(value)
            if len(self._sample) >= self._sample_capacity:
                self._sample = self._sample[::2]
                self._stride *= 2

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile (``q`` in [0, 1]) of the sample.

        Matches ``numpy.percentile``'s default linear interpolation; exact
        while the observation count is below the sample capacity.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._sample:
            raise ValueError(f"histogram {self.name!r} has no observations")
        return float(np.percentile(self._sample, 100.0 * q))

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative bucket counts (last equals ``count``).

        Entry ``i`` counts every observation ``<= bounds[i]``; the final
        entry is the implicit ``+inf`` bucket and always equals the total
        observation count.  Both exporters (:meth:`summary` and
        :meth:`MetricsRegistry.to_prometheus_text`) derive their
        cumulative views from this single method so they cannot drift
        apart.
        """
        out: List[int] = []
        running = 0
        for count in self.bucket_counts:
            running += count
            out.append(running)
        return out

    def summary(self) -> Dict[str, object]:
        """JSON-friendly snapshot with p50/p90/p99 and bucket counts.

        Each bucket entry carries both the per-bin ``count`` and the
        Prometheus-convention ``cumulative`` count (observations
        ``<= le``).
        """
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.sum,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "p50": None if empty else self.quantile(0.50),
            "p90": None if empty else self.quantile(0.90),
            "p99": None if empty else self.quantile(0.99),
            "buckets": [
                {"le": bound, "count": count, "cumulative": cumulative}
                for bound, count, cumulative in zip(
                    self.bounds + (math.inf,),
                    self.bucket_counts,
                    self.cumulative_counts(),
                )
            ],
        }


Instrument = Union[Counter, Gauge, Histogram]


def prometheus_metric_name(name: str) -> str:
    """Sanitise a dotted metric name into a valid Prometheus identifier.

    Prometheus names must match ``[a-zA-Z_:][a-zA-Z0-9_:]*``; every other
    character (the registry's dots, dashes in cohort names, ...) becomes
    an underscore, and a leading digit gains a ``_`` prefix.
    """
    sanitised = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not sanitised or not re.match(r"[a-zA-Z_:]", sanitised[0]):
        sanitised = "_" + sanitised
    return sanitised


class MetricsRegistry:
    """Named instruments plus text and JSONL exporters.

    Instruments are get-or-create: asking twice for the same name returns
    the same object; asking for an existing name with a different
    instrument kind raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._instruments: "Dict[str, Instrument]" = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind, factory) -> Instrument:
        if not name:
            raise ValueError("metric name must be non-empty")
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} is a {type(existing).__name__}, "
                        f"not a {kind.__name__}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        help: str = "",
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets=buckets, help=help)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Snapshot of every instrument, keyed by name."""
        out: Dict[str, Dict[str, object]] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                payload: Dict[str, object] = {"type": "histogram"}
                payload.update(instrument.summary())
            elif isinstance(instrument, Counter):
                payload = {"type": "counter", "value": instrument.value}
            else:
                payload = {"type": "gauge", "value": instrument.value}
            out[name] = payload
        return out

    def iter_records(self) -> Iterator[Dict[str, object]]:
        """Yield one JSON-friendly record per instrument."""
        for name, payload in self.as_dict().items():
            record = {"name": name}
            record.update(payload)
            yield record

    def to_text(self) -> str:
        """Human-readable dump, one instrument per line."""
        lines: List[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                if instrument.count:
                    lines.append(
                        f"{name} histogram count={instrument.count} "
                        f"sum={instrument.sum:.6g} p50={instrument.quantile(0.5):.6g} "
                        f"p90={instrument.quantile(0.9):.6g} "
                        f"p99={instrument.quantile(0.99):.6g}"
                    )
                else:
                    lines.append(f"{name} histogram count=0")
            elif isinstance(instrument, Counter):
                lines.append(f"{name} counter value={instrument.value:.6g}")
            else:
                lines.append(f"{name} gauge value={instrument.value:.6g}")
        return "\n".join(lines)

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Metric names are sanitised with :func:`prometheus_metric_name`
        (dots become underscores, invalid leading characters are
        prefixed), histograms emit the conventional cumulative
        ``_bucket{le="..."}`` series plus ``_sum`` and ``_count``, and
        every metric carries ``# HELP``/``# TYPE`` headers.
        """
        lines: List[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            metric = prometheus_metric_name(name)
            help_text = instrument.help or name
            if isinstance(instrument, Histogram):
                lines.append(f"# HELP {metric} {help_text}")
                lines.append(f"# TYPE {metric} histogram")
                bounds = instrument.bounds + (math.inf,)
                for bound, cumulative in zip(
                    bounds, instrument.cumulative_counts()
                ):
                    label = "+Inf" if math.isinf(bound) else repr(float(bound))
                    lines.append(
                        f'{metric}_bucket{{le="{label}"}} {cumulative}'
                    )
                lines.append(f"{metric}_sum {instrument.sum!r}")
                lines.append(f"{metric}_count {instrument.count}")
            elif isinstance(instrument, Counter):
                lines.append(f"# HELP {metric} {help_text}")
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {instrument.value!r}")
            else:
                lines.append(f"# HELP {metric} {help_text}")
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {instrument.value!r}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, destination: Union[str, "IO[str]"], *, extra=()) -> None:
        """Write one JSON object per line: ``extra`` records then metrics."""
        def _write(handle: "IO[str]") -> None:
            for record in extra:
                handle.write(json.dumps(record) + "\n")
            for record in self.iter_records():
                handle.write(json.dumps(record) + "\n")

        if hasattr(destination, "write"):
            _write(destination)
        else:
            with open(destination, "w", encoding="utf-8") as handle:
                _write(handle)
