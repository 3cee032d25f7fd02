"""Run-level telemetry: one object tying tracer, registry and exporters together.

:class:`RunTelemetry` is what the orchestrator instantiates when
``RunConfig(telemetry=True)``:

* every finished :class:`~repro.obs.trace.Span` is appended to the JSONL
  event log (and profile/train/transfer/fold/checkpoint spans feed latency
  histograms);
* :meth:`end_round` folds one :class:`RoundResult`'s wire accounting into the
  counters — per-tier byte counters are incremented *from the round result
  itself*, so they match ``RoundResult.tier_bytes`` exactly rather than
  re-deriving traffic from instrumentation — and writes a cumulative
  registry snapshot event for that round;
* :meth:`begin` makes resume safe: given the resumed run's start round it
  prunes the event log of every round about to be re-executed and restores
  the registry from the last surviving snapshot, so the continuation appends
  to the same trace without duplicating rounds;
* :meth:`finish` renders the Chrome trace JSON and Prometheus text from the
  final event log and registry.

:class:`NullTelemetry` is the telemetry-off twin: a :class:`NullTracer` and
no-op lifecycle methods, so instrumentation sites never branch on a flag.
"""

from __future__ import annotations

import os
from typing import Optional

from .export import (
    CHROME_TRACE_FILE,
    JSONL_FILE,
    PROMETHEUS_FILE,
    append_event,
    last_metrics_snapshot,
    load_events,
    prune_events_for_resume,
    write_chrome_trace,
    write_prometheus,
)
from .metrics import MetricsRegistry
from .trace import NULL_TRACER, Span, Tracer

#: span categories whose durations feed a ``repro_<cat>_seconds`` histogram
_TIMED_CATEGORIES = frozenset({"profile", "train", "fold", "transfer", "checkpoint"})


class NullTelemetry:
    """Telemetry-off: a null tracer and no-op lifecycle (the default)."""

    enabled = False
    tracer = NULL_TRACER
    registry: Optional[MetricsRegistry] = None
    directory: Optional[str] = None

    def begin(self, resume_round: Optional[int] = None) -> None:  # noqa: ARG002
        pass

    def end_round(self, round_result, codec: Optional[str] = None) -> None:  # noqa: ARG002
        pass

    def record_checkpoint(self, path: str, duration_s: float,
                          mode: str = "full") -> None:  # noqa: ARG002
        pass

    def finish(self) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()


def _tree_size(path: str) -> int:
    """Total bytes under ``path`` (a snapshot directory) or of a plain file."""
    try:
        if not os.path.isdir(path):
            return os.path.getsize(path)
        total = 0
        for root, _, files in os.walk(path):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(root, name))
                except OSError:
                    pass
        return total
    except OSError:
        return 0


class RunTelemetry:
    """Live telemetry for one run directory (see module docstring)."""

    enabled = True

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.registry = MetricsRegistry()
        self.tracer = Tracer(sink=self._on_span)
        self._handle = None
        self._pid = os.getpid()

    # ------------------------------------------------------------- lifecycle
    @property
    def jsonl_path(self) -> str:
        return os.path.join(self.directory, JSONL_FILE)

    @property
    def chrome_trace_path(self) -> str:
        return os.path.join(self.directory, CHROME_TRACE_FILE)

    @property
    def prometheus_path(self) -> str:
        return os.path.join(self.directory, PROMETHEUS_FILE)

    def begin(self, resume_round: Optional[int] = None) -> None:
        """Open the event log — truncating for a fresh run, pruning + appending
        for a resumed one (``resume_round`` = first round to be re-executed)."""
        os.makedirs(self.directory, exist_ok=True)
        if resume_round is not None and os.path.exists(self.jsonl_path):
            prune_events_for_resume(self.jsonl_path, resume_round)
            self.registry.restore(
                last_metrics_snapshot(load_events(self.jsonl_path),
                                      before_round=resume_round))
            mode = "a"
        else:
            self.registry.restore(None)
            mode = "w"
        self._handle = open(self.jsonl_path, mode, encoding="utf-8")
        self._pid = os.getpid()

    def finish(self) -> None:
        """Close the event log and render the derived exports."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if os.path.exists(self.jsonl_path):
            write_chrome_trace(self.chrome_trace_path, load_events(self.jsonl_path))
        write_prometheus(self.prometheus_path, self.registry)

    # ----------------------------------------------------------------- sinks
    def _writable(self) -> bool:
        return self._handle is not None and os.getpid() == self._pid

    def _on_span(self, span: Span) -> None:
        if span.category in _TIMED_CATEGORIES:
            self.registry.histogram(
                f"repro_{span.category}_seconds").observe(span.duration_s)
        if self._writable():
            append_event(self._handle, span.as_event())

    def end_round(self, round_result, codec: Optional[str] = None) -> None:
        """Fold one round's accounting into the registry and snapshot it.

        Counters are incremented straight from the :class:`RoundResult`
        fields — the same numbers the tracker and examples report — so the
        per-tier byte counters match ``tier_bytes`` exactly by construction.
        """
        reg = self.registry
        reg.counter("repro_rounds_total").inc()
        reg.gauge("repro_simulated_time_seconds").set(round_result.simulated_time)
        reg.histogram("repro_round_sim_seconds").observe(round_result.round_duration)
        if round_result.wire_bytes:
            reg.counter("repro_wire_bytes_total",
                        codec=codec or "analytic").inc(round_result.wire_bytes)
        if round_result.wire_seconds:
            reg.counter("repro_wire_seconds_total").inc(round_result.wire_seconds)
        for tier, tier_bytes in enumerate(round_result.tier_bytes):
            reg.counter("repro_tier_bytes_total", tier=f"tier{tier}").inc(tier_bytes)
        for tier, tier_payloads in enumerate(round_result.tier_payloads):
            reg.counter("repro_tier_payloads_total",
                        tier=f"tier{tier}").inc(tier_payloads)
        if round_result.edge_bytes:
            reg.counter("repro_edge_bytes_total").inc(round_result.edge_bytes)
        reg.counter("repro_payloads_lost_total").inc(round_result.payloads_lost)
        reg.counter("repro_payloads_corrupted_total").inc(
            round_result.payloads_corrupted)
        reg.counter("repro_stragglers_total").inc(round_result.num_stragglers)
        reg.counter("repro_dropouts_total").inc(round_result.num_dropped)
        reg.counter("repro_participants_aggregated_total").inc(
            round_result.num_aggregated)
        if self._writable():
            append_event(self._handle, {
                "type": "metrics",
                "round": round_result.round_index,
                "registry": reg.snapshot(),
            })

    def record_checkpoint(self, path: str, duration_s: float,
                          mode: str = "full") -> None:
        """Account one snapshot write.

        ``mode`` ("full" | "delta") labels the byte and count series so
        reports can show how much the delta encoding saved.
        """
        size = _tree_size(path)
        self.registry.counter("repro_checkpoint_bytes_total", mode=mode).inc(size)
        self.registry.gauge("repro_checkpoint_last_bytes").set(size)
        self.registry.counter("repro_checkpoints_total", mode=mode).inc()
        self.registry.histogram("repro_checkpoint_seconds").observe(duration_s)


def make_telemetry(config) -> "RunTelemetry | NullTelemetry":
    """Build the telemetry object a :class:`RunConfig` asks for."""
    return RunTelemetry(config.telemetry_dir) if config.telemetry else NULL_TELEMETRY
