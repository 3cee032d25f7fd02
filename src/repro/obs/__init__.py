"""Observability for the aggregation plane: tracing, metrics, exporters.

The run loop, topology tree, aggregator servers, wire channels and
checkpointer all emit into one substrate:

* :mod:`repro.obs.trace` — nested spans (``run > round >
  select/profile/train/transmit/fold/checkpoint``) with simulated *and* real
  clocks;
* :mod:`repro.obs.metrics` — counters/gauges/histograms keyed by labels;
* :mod:`repro.obs.export` — JSONL event log, Chrome trace-event JSON
  (Perfetto-loadable), Prometheus text, all resume-safe;
* :mod:`repro.obs.run` — :class:`RunTelemetry` wiring the three together
  behind ``RunConfig(telemetry=True, telemetry_dir=...)``;
* :mod:`repro.obs.report` — per-round/per-tier breakdown tables
  (``scripts/run_report.py``).

Telemetry is off by default: the :class:`NullTracer`/:class:`NullTelemetry`
pair makes every instrumentation site a constant-time no-op (gated by
``benchmarks/perf_harness.py --suite telemetry``).
"""

from .export import (
    CHROME_TRACE_FILE,
    JSONL_FILE,
    PROMETHEUS_FILE,
    chrome_trace,
    last_metrics_snapshot,
    load_events,
    prometheus_text,
    prune_events_for_resume,
    write_chrome_trace,
    write_prometheus,
)
from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .report import (
    category_table,
    format_table,
    round_table,
    service_table,
    tier_table,
    totals_table,
)
from .run import NULL_TELEMETRY, NullTelemetry, RunTelemetry, make_telemetry
from .trace import NULL_TRACER, NullTracer, Span, Tracer, span_record

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "span_record",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "JSONL_FILE",
    "CHROME_TRACE_FILE",
    "PROMETHEUS_FILE",
    "load_events",
    "prune_events_for_resume",
    "last_metrics_snapshot",
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "write_prometheus",
    "RunTelemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "make_telemetry",
    "round_table",
    "tier_table",
    "service_table",
    "totals_table",
    "category_table",
    "format_table",
]
