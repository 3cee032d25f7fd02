#!/usr/bin/env python
"""Render per-round / per-tier breakdown tables from a telemetry trace.

Reads the JSONL event log a run wrote under ``RunConfig(telemetry=True,
telemetry_dir=...)`` and prints:

* a **per-round** table — wall/simulated duration and the
  select/profile/train/transfer/fold/checkpoint wall-time breakdown (the
  trace-level analogue of the paper's overhead-breakdown figure; ``profile``
  is the ``profile_round`` span in which a Flux round profiles all its
  participants before any of them trains);
* a **per-tier** table — backhaul bytes/payloads per aggregation tier;
* an **aggregation service** table — ``repro_service_*`` fold-plane counters
  (per-tier service folds, per-codec wire frame bytes, reference bytes,
  transport totals), for runs with ``aggregation_executor="service"``;
* run-wide **totals** and a per-span-**category** summary.

Usage::

    python scripts/run_report.py <telemetry-dir-or-trace.jsonl> [--tables round,tier]

The argument may be the telemetry directory itself (``trace.jsonl`` is found
inside) or a direct path to the JSONL file.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs import (  # noqa: E402
    JSONL_FILE,
    category_table,
    format_table,
    load_events,
    round_table,
    service_table,
    tier_table,
    totals_table,
)

TABLES = {
    "round": ("Per-round breakdown", round_table),
    "tier": ("Per-tier backhaul", tier_table),
    "service": ("Aggregation service", service_table),
    "totals": ("Run totals", totals_table),
    "category": ("Span categories", category_table),
}


def resolve_trace_path(path: str) -> str:
    if os.path.isdir(path):
        path = os.path.join(path, JSONL_FILE)
    if not os.path.exists(path):
        raise SystemExit(f"no trace found at {path!r} — run with "
                         "RunConfig(telemetry=True, telemetry_dir=...) first")
    return path


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("trace", help="telemetry directory or trace.jsonl path")
    parser.add_argument("--tables", default="round,tier,service,totals,category",
                        help="comma-separated subset of: "
                             + ", ".join(TABLES))
    args = parser.parse_args(argv)

    wanted = [name.strip() for name in args.tables.split(",") if name.strip()]
    unknown = [name for name in wanted if name not in TABLES]
    if unknown:
        parser.error(f"unknown table(s) {unknown} (expected {sorted(TABLES)})")

    events = load_events(resolve_trace_path(args.trace))
    for name in wanted:
        title, builder = TABLES[name]
        headers, rows = builder(events)
        print(f"== {title} ==")
        print(format_table(headers, rows))
        print()


if __name__ == "__main__":
    main()
