"""Trace and metrics exporters: JSONL event log, Chrome trace JSON, Prometheus text.

Three formats, one source of truth:

* **JSONL event log** (``trace.jsonl``) — the live, append-only record.  One
  JSON object per line: ``span`` events (from :class:`~repro.obs.trace.Span`)
  and per-round ``metrics`` events (cumulative
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`'s).  Each line is
  flushed as written, so a hard-killed run loses at most the event being
  written — which is what makes resume-safe appending possible.
* **Chrome trace-event JSON** (``trace_chrome.json``) — rendered *from* the
  JSONL at the end of a run, loadable in ``chrome://tracing`` and Perfetto.
  Because it is always regenerated from the full (pruned + appended) event
  log, a resumed run's Chrome trace covers the whole logical run with no
  duplicate rounds.
* **Prometheus text snapshot** (``metrics.prom``) — the registry rendered in
  the exposition format at the end of a run.

Resume safety: :func:`prune_events_for_resume` rewrites the JSONL dropping
every event of rounds the resumed run will re-execute (the interrupted
process may have traced a round whose checkpoint never landed), and
:func:`last_metrics_snapshot` recovers the registry state the continuation
should resume counting from.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

from .metrics import MetricsRegistry

JSONL_FILE = "trace.jsonl"
CHROME_TRACE_FILE = "trace_chrome.json"
PROMETHEUS_FILE = "metrics.prom"


# --------------------------------------------------------------------- JSONL
def append_event(handle, event: Dict) -> None:
    """Write one event line and flush it (hard kills lose at most one line)."""
    handle.write(json.dumps(event, separators=(",", ":")) + "\n")
    handle.flush()


def load_events(path: str) -> List[Dict]:
    """Read a JSONL event log; a torn final line (crash mid-write) is skipped."""
    events: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail of a killed run
    return events


def prune_events_for_resume(path: str, start_round: int) -> int:
    """Drop events of rounds ``>= start_round`` from a JSONL log, in place.

    The resumed run re-executes those rounds and will re-emit their spans and
    metrics; keeping the killed run's copies would duplicate them.  Events
    with no ``round`` (run-level spans of the *finished* prefix, if any) are
    kept.  Returns the number of events dropped.
    """
    if not os.path.exists(path):
        return 0
    events = load_events(path)
    kept = [event for event in events
            if event.get("round") is None or int(event["round"]) < start_round]
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        for event in kept:
            handle.write(json.dumps(event, separators=(",", ":")) + "\n")
    os.replace(tmp_path, path)
    return len(events) - len(kept)


def last_metrics_snapshot(events: Iterable[Dict],
                          before_round: Optional[int] = None) -> Optional[Dict]:
    """The newest cumulative metrics snapshot (optionally of rounds ``< before_round``)."""
    best: Optional[Dict] = None
    best_round = -1
    for event in events:
        if event.get("type") != "metrics" or event.get("round") is None:
            continue
        round_index = int(event["round"])
        if before_round is not None and round_index >= before_round:
            continue
        if round_index > best_round:
            best_round = round_index
            best = event.get("registry")
    return best


# -------------------------------------------------------------- Chrome trace
def _chrome_tid(event: Dict) -> int:
    """A Chrome/Perfetto thread id keeping concurrent spans on separate rows.

    Complete (``ph: "X"``) events on one tid must nest strictly by time, so
    spans that can overlap — per-participant training, per-shard and per-node
    service folds — are fanned out to their own rows; the sequential run
    structure (run/round/select/fold/transfer/checkpoint) stays on row 0.
    """
    attrs = event.get("attrs", {})
    if "participant" in attrs:
        return 1 + int(attrs["participant"])
    if "shard" in attrs:
        return 2000 + int(attrs["shard"])
    if "node" in attrs:
        return 3000 + 100 * int(attrs.get("tier", 0)) + int(attrs["node"])
    return 0


def chrome_trace(events: Iterable[Dict]) -> Dict:
    """Render span events as a Chrome trace-event JSON object.

    Timestamps are microseconds relative to the earliest span's wall start,
    so traces stitched across a kill+resume (two processes, one host clock)
    stay on one coherent timeline.  Span/parent ids, round indices and the
    simulated-clock values ride along in ``args``.
    """
    spans = [event for event in events if event.get("type") == "span"]
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(float(span["wall_start"]) for span in spans)
    trace_events = [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": "repro federated run"}},
    ]
    for span in spans:
        args = dict(span.get("attrs", {}))
        args["span_id"] = span.get("span_id")
        args["parent_id"] = span.get("parent_id")
        if span.get("round") is not None:
            args["round"] = span["round"]
        if span.get("sim_time") is not None:
            args["sim_time_s"] = span["sim_time"]
        if span.get("sim_duration") is not None:
            args["sim_duration_s"] = span["sim_duration"]
        trace_events.append({
            "name": span.get("name", "span"),
            "cat": span.get("cat", "run"),
            "ph": "X",
            "pid": 1,
            "tid": _chrome_tid(span),
            "ts": (float(span["wall_start"]) - origin) * 1e6,
            "dur": max(float(span.get("duration_s", 0.0)), 0.0) * 1e6,
            "args": args,
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, events: Iterable[Dict]) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(events), handle, indent=1)
        handle.write("\n")
    return path


# ---------------------------------------------------------------- Prometheus
def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus exposition format (counters, gauges,
    cumulative-bucket histograms with ``_sum``/``_count``)."""
    lines: List[str] = []
    seen_types = set()

    def header(name: str, kind: str) -> None:
        if name not in seen_types:
            lines.append(f"# TYPE {name} {kind}")
            seen_types.add(name)

    for name, labels, counter in registry.iter_counters():
        header(name, "counter")
        lines.append(f"{name}{_prom_labels(labels)} {counter.value:g}")
    for name, labels, gauge in registry.iter_gauges():
        header(name, "gauge")
        lines.append(f"{name}{_prom_labels(labels)} {gauge.value:g}")
    for name, labels, hist in registry.iter_histograms():
        header(name, "histogram")
        cumulative = hist.cumulative_counts()
        for bound, count in zip(hist.bounds, cumulative):
            bucket_labels = dict(labels, le=f"{bound:g}")
            lines.append(f"{name}_bucket{_prom_labels(bucket_labels)} {count}")
        lines.append(
            f"{name}_bucket{_prom_labels(dict(labels, le='+Inf'))} {cumulative[-1]}")
        lines.append(f"{name}_sum{_prom_labels(labels)} {hist.sum:g}")
        lines.append(f"{name}_count{_prom_labels(labels)} {hist.count}")
    return "\n".join(lines) + "\n"


def write_prometheus(path: str, registry: MetricsRegistry) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(registry))
    return path
