"""Run-wide metrics registry: counters, gauges and histograms.

The registry is the numeric companion of the span tracer: spans say *where
time went*, metrics say *how much of everything happened* — bytes by codec
and tier, payloads lost/corrupted, straggler/dropout counts, fold-latency
histograms, checkpoint sizes and durations.

Instruments are created on first use and keyed by ``(name, labels)``, in the
Prometheus style::

    registry.counter("repro_tier_bytes_total", tier="tier0").inc(4096)
    registry.histogram("repro_fold_seconds").observe(0.012)

Everything is plain Python floats/ints, snapshot-able to JSON
(:meth:`MetricsRegistry.snapshot`) and restorable
(:meth:`MetricsRegistry.restore`), which is how a resumed run's registry
continues exactly where the interrupted run's counters stood (the
:class:`~repro.obs.run.RunTelemetry` layer replays the last surviving
per-round snapshot from the JSONL event log).  The Prometheus text rendering
lives in :mod:`repro.obs.export`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: default histogram buckets: latencies from 100µs to ~2 minutes (seconds)
DEFAULT_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
                   1.0, 5.0, 15.0, 60.0, 120.0)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge for deltas")
        self.value += amount


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``counts[i]`` counts observations ``<= bounds[i]``; the implicit last
    bucket is ``+Inf``.  ``sum``/``count`` support mean queries.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bucket bounds must be sorted and unique")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, float(value))] += 1
        self.sum += float(value)
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative bucket counts (``+Inf`` last)."""
        out, total = [], 0
        for c in self.counts:
            total += c
            out.append(total)
        return out


class MetricsRegistry:
    """Lazily-created instruments keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._counters: Dict[str, Dict[LabelKey, Counter]] = {}
        self._gauges: Dict[str, Dict[LabelKey, Gauge]] = {}
        self._histograms: Dict[str, Dict[LabelKey, Histogram]] = {}

    # ------------------------------------------------------------ instruments
    def counter(self, name: str, **labels) -> Counter:
        return self._counters.setdefault(name, {}).setdefault(
            _label_key(labels), Counter())

    def gauge(self, name: str, **labels) -> Gauge:
        return self._gauges.setdefault(name, {}).setdefault(
            _label_key(labels), Gauge())

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        series = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        hist = series.get(key)
        if hist is None:
            hist = series[key] = Histogram(buckets)
        return hist

    def counter_value(self, name: str, **labels) -> float:
        """Current total of a counter (0.0 if it was never incremented)."""
        series = self._counters.get(name, {})
        entry = series.get(_label_key(labels))
        return entry.value if entry is not None else 0.0

    # -------------------------------------------------------------- durability
    def snapshot(self) -> Dict:
        """The whole registry as a JSON-safe dict (labels as sorted pairs)."""
        return {
            "counters": [
                {"name": name, "labels": list(key), "value": counter.value}
                for name, series in sorted(self._counters.items())
                for key, counter in sorted(series.items())
            ],
            "gauges": [
                {"name": name, "labels": list(key), "value": gauge.value}
                for name, series in sorted(self._gauges.items())
                for key, gauge in sorted(series.items())
            ],
            "histograms": [
                {"name": name, "labels": list(key), "bounds": list(hist.bounds),
                 "counts": list(hist.counts), "sum": hist.sum, "count": hist.count}
                for name, series in sorted(self._histograms.items())
                for key, hist in sorted(series.items())
            ],
        }

    def restore(self, snapshot: Optional[Dict]) -> None:
        """Replace the registry contents with a :meth:`snapshot` (resume path)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        if not snapshot:
            return
        for entry in snapshot.get("counters", []):
            labels = dict(tuple(pair) for pair in entry["labels"])
            self.counter(entry["name"], **labels).value = float(entry["value"])
        for entry in snapshot.get("gauges", []):
            labels = dict(tuple(pair) for pair in entry["labels"])
            self.gauge(entry["name"], **labels).value = float(entry["value"])
        for entry in snapshot.get("histograms", []):
            labels = dict(tuple(pair) for pair in entry["labels"])
            hist = self.histogram(entry["name"], buckets=entry["bounds"], **labels)
            hist.counts = [int(c) for c in entry["counts"]]
            hist.sum = float(entry["sum"])
            hist.count = int(entry["count"])

    # -------------------------------------------------------------- iteration
    def iter_counters(self):
        for name, series in sorted(self._counters.items()):
            for key, counter in sorted(series.items()):
                yield name, dict(key), counter

    def iter_gauges(self):
        for name, series in sorted(self._gauges.items()):
            for key, gauge in sorted(series.items()):
                yield name, dict(key), gauge

    def iter_histograms(self):
        for name, series in sorted(self._histograms.items()):
            for key, hist in sorted(series.items()):
                yield name, dict(key), hist
