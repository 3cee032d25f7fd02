"""Breakdown tables computed from a JSONL trace — backing ``scripts/run_report.py``.

Pure functions from an event list (see :func:`repro.obs.export.load_events`)
to ``(headers, rows)`` tables, plus a plain-text renderer.  Everything is
derived from the trace alone so reports can be produced long after a run —
or for a run that was killed and resumed — without any live objects.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from .export import last_metrics_snapshot

Table = Tuple[List[str], List[List[str]]]


def _spans(events: Iterable[Dict]) -> List[Dict]:
    return [event for event in events if event.get("type") == "span"]


def _fmt_seconds(value: float) -> str:
    return f"{value:.4f}"


def _fmt_bytes(value: float) -> str:
    if value >= 1 << 20:
        return f"{value / (1 << 20):.2f} MiB"
    if value >= 1 << 10:
        return f"{value / (1 << 10):.2f} KiB"
    return f"{value:.0f} B"


def round_table(events: Iterable[Dict]) -> Table:
    """Per-round wall/simulated time and phase breakdown.

    The phase columns sum the wall durations of each round's ``select``,
    ``profile`` (Flux's one shared profiling pass over the round's
    participants, before any of them trains), ``train``, ``transfer``,
    ``fold`` (including server-ingested folds) and ``checkpoint`` spans,
    which is the trace-level analogue of the paper's overhead-breakdown
    figure.
    """
    per_round: Dict[int, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    participants: Dict[int, int] = defaultdict(int)
    for span in _spans(events):
        round_index = span.get("round")
        if round_index is None:
            continue
        round_index = int(round_index)
        cat = span.get("cat", "run")
        if cat == "round":
            per_round[round_index]["wall"] += float(span.get("duration_s", 0.0))
            if span.get("sim_duration") is not None:
                per_round[round_index]["sim"] += float(span["sim_duration"])
        elif cat in ("train", "fold", "transfer", "select", "profile", "checkpoint"):
            per_round[round_index][cat] += float(span.get("duration_s", 0.0))
            if cat == "train":
                participants[round_index] += 1
    headers = ["round", "wall_s", "sim_s", "select_s", "profile_s", "train_s",
               "transfer_s", "fold_s", "checkpoint_s", "train_spans"]
    rows = []
    for round_index in sorted(per_round):
        data = per_round[round_index]
        rows.append([
            str(round_index),
            _fmt_seconds(data["wall"]),
            _fmt_seconds(data["sim"]),
            _fmt_seconds(data["select"]),
            _fmt_seconds(data["profile"]),
            _fmt_seconds(data["train"]),
            _fmt_seconds(data["transfer"]),
            _fmt_seconds(data["fold"]),
            _fmt_seconds(data["checkpoint"]),
            str(participants[round_index]),
        ])
    return headers, rows


def tier_table(events: Iterable[Dict]) -> Table:
    """Per-tier backhaul bytes/payloads from the final metrics snapshot."""
    snapshot = last_metrics_snapshot(events)
    tiers: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    if snapshot:
        for entry in snapshot.get("counters", []):
            labels = dict(tuple(pair) for pair in entry["labels"])
            tier = labels.get("tier")
            if tier is None:
                continue
            if entry["name"] == "repro_tier_bytes_total":
                tiers[tier]["bytes"] += entry["value"]
            elif entry["name"] == "repro_tier_payloads_total":
                tiers[tier]["payloads"] += entry["value"]
    headers = ["tier", "bytes", "payloads"]
    rows = [[tier, _fmt_bytes(data["bytes"]), f"{data['payloads']:.0f}"]
            for tier, data in sorted(tiers.items())]
    return headers, rows


def service_table(events: Iterable[Dict]) -> Table:
    """Aggregation-service fold-plane counters from the final snapshot.

    Surfaces every ``repro_service_*`` counter: per-tier fold counts
    (``repro_service_tier_folds_total{tier=...}`` — inner-tier routing made
    visible), per-codec wire payload bytes
    (``repro_service_frame_bytes_total{codec=...}`` — what the compressed
    service wire saves), reference-shipping overhead and the per-server
    transport totals.
    """
    snapshot = last_metrics_snapshot(events)
    headers = ["metric", "value"]
    rows: List[List[str]] = []
    if snapshot:
        for entry in snapshot.get("counters", []):
            if not entry["name"].startswith("repro_service_"):
                continue
            labels = dict(tuple(pair) for pair in entry["labels"])
            suffix = "".join(f"{{{k}={v}}}" for k, v in sorted(labels.items()))
            value = entry["value"]
            rendered = (_fmt_bytes(value) if "bytes" in entry["name"]
                        else f"{value:g}")
            rows.append([entry["name"] + suffix, rendered])
    rows.sort()
    return headers, rows


def totals_table(events: Iterable[Dict]) -> Table:
    """Run-wide counter/gauge totals from the final metrics snapshot."""
    snapshot = last_metrics_snapshot(events)
    headers = ["metric", "value"]
    rows: List[List[str]] = []
    if snapshot:
        for entry in snapshot.get("counters", []) + snapshot.get("gauges", []):
            labels = dict(tuple(pair) for pair in entry["labels"])
            if entry["name"].startswith("repro_service_"):
                continue  # covered by service_table
            if "tier" in labels:
                continue  # covered by tier_table
            suffix = "".join(f"{{{k}={v}}}" for k, v in sorted(labels.items()))
            value = entry["value"]
            rendered = (_fmt_bytes(value) if entry["name"].endswith("_bytes_total")
                        or entry["name"].endswith("_bytes") else f"{value:g}")
            rows.append([entry["name"] + suffix, rendered])
    return headers, rows


def category_table(events: Iterable[Dict]) -> Table:
    """Total wall seconds and span counts per span category."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span in _spans(events):
        entry = totals[span.get("cat", "run")]
        entry[0] += float(span.get("duration_s", 0.0))
        entry[1] += 1
    headers = ["category", "wall_s", "spans"]
    rows = [[cat, _fmt_seconds(total), str(count)]
            for cat, (total, count) in sorted(totals.items())]
    return headers, rows


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render a table as aligned plain text."""
    if not rows:
        return "(no data)"
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), rule] + [line(row) for row in rows])
