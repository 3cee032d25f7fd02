"""repro.obs: span tracing, metrics registry, exporters, and run telemetry.

Unit layer: tracer nesting/round inheritance/worker ingest, counter/gauge/
histogram semantics, snapshot/restore durability, JSONL torn-line tolerance,
resume pruning, Chrome-trace and Prometheus rendering.

Integration layer: a pooled sharded 3-tier wire run with telemetry on must
produce a Chrome trace whose run/round/train/fold/transfer spans nest
correctly, per-tier byte counters that match ``RoundResult.tier_bytes``
exactly, and bit-identical run results to the same run with telemetry off;
a checkpointed run resumed mid-flight must append to the same trace without
duplicating round spans.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.federated import RunConfig
from repro.obs import (
    CHROME_TRACE_FILE,
    JSONL_FILE,
    PROMETHEUS_FILE,
    Histogram,
    MetricsRegistry,
    NULL_TELEMETRY,
    NULL_TRACER,
    RunTelemetry,
    Tracer,
    category_table,
    chrome_trace,
    format_table,
    last_metrics_snapshot,
    load_events,
    prometheus_text,
    prune_events_for_resume,
    round_table,
    span_record,
    tier_table,
)
from repro.runtime import latest_checkpoint

from test_runtime import ConstantMethod, build_federation

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ------------------------------------------------------------------- tracer
class TestTracer:
    def test_nesting_parent_ids_and_round_inheritance(self):
        finished = []
        tracer = Tracer(sink=finished.append)
        with tracer.span("run", category="run") as run:
            with tracer.span("round", category="round", round=3) as rnd:
                with tracer.span("train", category="train", participant=1) as train:
                    pass
        assert [s.name for s in finished] == ["train", "round", "run"]
        assert train.parent_id == rnd.span_id
        assert rnd.parent_id == run.span_id
        assert run.parent_id is None
        assert train.round == 3  # inherited from the enclosing round span
        assert run.round is None

    def test_exception_unwinds_the_stack(self):
        finished = []
        tracer = Tracer(sink=finished.append)
        with pytest.raises(RuntimeError):
            with tracer.span("run"):
                with tracer.span("round", round=0):
                    raise RuntimeError("boom")
        assert {s.name for s in finished} == {"run", "round"}
        assert tracer.current_round() is None  # stack fully unwound

    def test_ingest_adopts_worker_record(self):
        finished = []
        tracer = Tracer(sink=finished.append)
        record = span_record("participant_round", "train", wall_start=123.0,
                             duration_s=0.5, sim_duration=7.0, participant=4)
        with tracer.span("round", category="round", round=2) as rnd:
            tracer.ingest(record)
        adopted = finished[0]
        assert adopted.name == "participant_round"
        assert adopted.parent_id == rnd.span_id
        assert adopted.round == 2          # inherited at ingest time
        assert adopted.wall_start == 123.0  # worker-measured clocks survive
        assert adopted.duration_s == 0.5
        assert adopted.sim_duration == 7.0
        assert adopted.attributes["participant"] == 4

    def test_span_set_attaches_sim_clock_and_attrs(self):
        tracer = Tracer()
        with tracer.span("uplink", category="transfer") as span:
            span.set(sim_duration=2.5, bytes=1024)
        assert span.sim_duration == 2.5
        assert span.attributes["bytes"] == 1024
        assert span.duration_s >= 0.0

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", category="fold") as span:
            span.set(sim_duration=1.0, bytes=5)  # discarded, no error
        assert span.attributes == {}
        NULL_TRACER.ingest({"name": "x"})
        assert NULL_TRACER.current_round() is None


# ------------------------------------------------------------------ metrics
class TestMetricsRegistry:
    def test_counter_series_by_labels(self):
        reg = MetricsRegistry()
        reg.counter("bytes_total", tier="tier0").inc(100)
        reg.counter("bytes_total", tier="tier1").inc(7)
        reg.counter("bytes_total", tier="tier0").inc(1)
        assert reg.counter_value("bytes_total", tier="tier0") == 101
        assert reg.counter_value("bytes_total", tier="tier1") == 7
        assert reg.counter_value("bytes_total", tier="tier9") == 0.0

    def test_counter_rejects_negative_increment(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_histogram_bucket_semantics(self):
        hist = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        # counts[i] holds observations <= bounds[i]; last bucket is +Inf
        assert hist.counts == [2, 1, 1]
        assert hist.cumulative_counts() == [2, 3, 4]
        assert hist.count == 4
        assert hist.sum == pytest.approx(106.5)
        assert hist.mean() == pytest.approx(106.5 / 4)

    def test_snapshot_restore_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("rounds_total").inc(3)
        reg.gauge("sim_seconds").set(42.5)
        reg.histogram("fold_seconds").observe(0.02)
        restored = MetricsRegistry()
        restored.restore(json.loads(json.dumps(reg.snapshot())))
        assert prometheus_text(restored) == prometheus_text(reg)
        restored.restore(None)
        assert restored.snapshot() == MetricsRegistry().snapshot()


# ---------------------------------------------------------------- exporters
class TestExporters:
    def test_load_events_skips_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type":"span","round":0}\n{"type":"sp')  # killed mid-write
        events = load_events(str(path))
        assert events == [{"type": "span", "round": 0}]

    def test_prune_drops_resumed_rounds_keeps_round_less(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [{"type": "span", "cat": "run", "round": None},
                 {"type": "span", "cat": "round", "round": 0},
                 {"type": "metrics", "round": 1, "registry": {}},
                 {"type": "span", "cat": "round", "round": 2}]
        path.write_text("".join(json.dumps(e) + "\n" for e in lines))
        dropped = prune_events_for_resume(str(path), start_round=1)
        assert dropped == 2
        rounds = [e.get("round") for e in load_events(str(path))]
        assert rounds == [None, 0]

    def test_last_metrics_snapshot_honours_before_round(self):
        events = [{"type": "metrics", "round": 0, "registry": {"mark": 0}},
                  {"type": "metrics", "round": 2, "registry": {"mark": 2}}]
        assert last_metrics_snapshot(events) == {"mark": 2}
        assert last_metrics_snapshot(events, before_round=2) == {"mark": 0}
        assert last_metrics_snapshot(events, before_round=0) is None

    def test_chrome_trace_layout(self):
        events = [
            {"type": "span", "name": "round", "cat": "round", "span_id": 1,
             "parent_id": None, "round": 0, "wall_start": 100.0,
             "duration_s": 2.0, "attrs": {}},
            {"type": "span", "name": "train", "cat": "train", "span_id": 2,
             "parent_id": 1, "round": 0, "wall_start": 100.5,
             "duration_s": 1.0, "sim_duration": 30.0, "attrs": {"participant": 3}},
        ]
        trace = chrome_trace(events)
        meta, rnd, train = trace["traceEvents"]
        assert meta["ph"] == "M"
        assert rnd["ts"] == 0.0 and rnd["dur"] == pytest.approx(2e6)
        assert train["ts"] == pytest.approx(0.5e6)
        assert train["tid"] == 1 + 3  # per-participant row
        assert train["args"]["parent_id"] == 1
        assert train["args"]["sim_duration_s"] == 30.0

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_rounds_total").inc(2)
        reg.histogram("repro_fold_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = prometheus_text(reg)
        assert "# TYPE repro_rounds_total counter" in text
        assert "repro_rounds_total 2" in text
        assert 'repro_fold_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_fold_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_fold_seconds_count 1" in text


# ------------------------------------------------------------- run telemetry
#: worker/coordinator wall-clock skew allowance for interval-nesting checks
NEST_EPS_US = 5_000.0


def _telemetry_federation(vocab, tiny_config, trace_dir, **extra):
    knobs = dict(num_shards=2, edge_tiers=(3, 2), transport="wire",
                 aggregation_executor="service", service_transport="socketpair",
                 aggregation_workers=2,
                 participants_per_round=4,
                 telemetry=True, telemetry_dir=str(trace_dir))
    knobs.update(extra)
    return build_federation(vocab, tiny_config, num_clients=6, **knobs)


@pytest.fixture(scope="module")
def telemetry_run(vocab, tiny_config, tmp_path_factory):
    """One service-folded sharded 3-tier wire run with telemetry on (2 rounds)."""
    trace_dir = str(tmp_path_factory.mktemp("obs-trace"))
    server, participants, test, config = _telemetry_federation(
        vocab, tiny_config, trace_dir)
    tuner = ConstantMethod(server, participants, test, config=config)
    result = tuner.run(2)
    return result, tuner, trace_dir


class TestRunTelemetry:
    def test_config_requires_directory(self):
        with pytest.raises(ValueError):
            RunConfig(telemetry=True)

    def test_off_by_default_null_everything(self, vocab, tiny_config):
        server, participants, test, config = build_federation(vocab, tiny_config)
        tuner = ConstantMethod(server, participants, test, config=config)
        assert tuner.telemetry is NULL_TELEMETRY
        assert tuner.server.tracer is NULL_TRACER

    def test_exports_written(self, telemetry_run):
        _, _, trace_dir = telemetry_run
        for name in (JSONL_FILE, CHROME_TRACE_FILE, PROMETHEUS_FILE):
            assert os.path.getsize(os.path.join(trace_dir, name)) > 0

    def test_chrome_trace_spans_nest_correctly(self, telemetry_run):
        """Every child span's interval lies inside its parent's."""
        _, _, trace_dir = telemetry_run
        with open(os.path.join(trace_dir, CHROME_TRACE_FILE)) as handle:
            trace = json.load(handle)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        by_id = {e["args"]["span_id"]: e for e in spans}
        assert {e["cat"] for e in spans} >= {"run", "round", "train",
                                             "fold", "transfer"}
        checked = 0
        for event in spans:
            parent_id = event["args"].get("parent_id")
            if parent_id is None:
                continue
            parent = by_id[parent_id]
            assert event["ts"] >= parent["ts"] - NEST_EPS_US, event
            assert (event["ts"] + event["dur"]
                    <= parent["ts"] + parent["dur"] + NEST_EPS_US), event
            checked += 1
        assert checked > 10  # the trace is genuinely nested, not flat

    def test_round_and_worker_span_census(self, telemetry_run):
        result, _, trace_dir = telemetry_run
        events = load_events(os.path.join(trace_dir, JSONL_FILE))
        spans = [e for e in events if e.get("type") == "span"]
        rounds = sorted(e["round"] for e in spans if e["cat"] == "round")
        assert rounds == [0, 1]
        train = [e for e in spans if e["cat"] == "train"]
        assert len(train) == sum(r.num_aggregated for r in result.rounds)
        assert all(e["round"] in (0, 1) for e in train)
        # tier pre-folds and shard folds come back from the aggregator servers
        assert any(e["name"] == "prefold_node" for e in spans)
        assert any(e["name"] == "fold_shard" for e in spans)
        # the metered uplink + tier hops produce transfer spans with airtime
        transfer = [e for e in spans if e["cat"] == "transfer"]
        assert transfer and all(e.get("sim_duration") is not None
                                for e in transfer)

    def test_uplink_spans_carry_wire_density(self, telemetry_run, vocab,
                                             tiny_config, tmp_path):
        """Uplink spans record payload bytes as a fraction of raw fp64."""
        def uplink_densities(trace_dir):
            events = load_events(os.path.join(trace_dir, JSONL_FILE))
            return [e["attrs"]["wire_density"] for e in events
                    if e.get("type") == "span" and e.get("name") == "uplink"
                    and "wire_density" in e.get("attrs", {})]

        _, _, trace_dir = telemetry_run
        dense = uplink_densities(trace_dir)
        # fp64 frames cost a hair more than the raw tensors (frame headers)
        assert dense and all(density >= 1.0 for density in dense)

        sparse_dir = str(tmp_path / "sparse-trace")
        server, participants, test, config = _telemetry_federation(
            vocab, tiny_config, sparse_dir, codec="topk:0.25:int4")
        ConstantMethod(server, participants, test, config=config).run(1)
        sparse = uplink_densities(sparse_dir)
        assert sparse and all(density < 0.2 for density in sparse)

    def test_tier_byte_counters_match_round_results_exactly(self, telemetry_run):
        result, _, trace_dir = telemetry_run
        events = load_events(os.path.join(trace_dir, JSONL_FILE))
        reg = MetricsRegistry()
        reg.restore(last_metrics_snapshot(events))
        num_tiers = len(result.rounds[0].tier_bytes)
        assert num_tiers == 2
        for tier in range(num_tiers):
            expected_bytes = sum(r.tier_bytes[tier] for r in result.rounds)
            expected_payloads = sum(r.tier_payloads[tier] for r in result.rounds)
            assert reg.counter_value("repro_tier_bytes_total",
                                     tier=f"tier{tier}") == expected_bytes
            assert reg.counter_value("repro_tier_payloads_total",
                                     tier=f"tier{tier}") == expected_payloads
        assert reg.counter_value("repro_rounds_total") == len(result.rounds)
        assert reg.counter_value("repro_edge_bytes_total") == sum(
            r.edge_bytes for r in result.rounds)

    def test_results_identical_with_telemetry_off(self, vocab, tiny_config,
                                                  telemetry_run, tmp_path):
        traced_result, traced_tuner, _ = telemetry_run
        server, participants, test, config = _telemetry_federation(
            vocab, tiny_config, tmp_path, telemetry=False, telemetry_dir=None)
        plain_tuner = ConstantMethod(server, participants, test, config=config)
        plain = plain_tuner.run(2)
        assert plain.tracker.as_series() == traced_result.tracker.as_series()
        for a, b in zip(plain.rounds, traced_result.rounds):
            assert a.tier_bytes == b.tier_bytes
            assert a.simulated_time == b.simulated_time

    def test_process_executor_train_spans_ingested(self, vocab, tiny_config,
                                                   tmp_path):
        """Worker-side train spans travel back through the training pool."""
        server, participants, test, config = build_federation(
            vocab, tiny_config, participants_per_round=3,
            executor="process", executor_workers=2,
            telemetry=True, telemetry_dir=str(tmp_path))
        tuner = ConstantMethod(server, participants, test, config=config)
        tuner.run(1)
        events = load_events(os.path.join(str(tmp_path), JSONL_FILE))
        train = [e for e in events
                 if e.get("type") == "span" and e["cat"] == "train"]
        assert len(train) == 3
        coordinator = os.getpid()
        assert all(e["attrs"]["worker_pid"] != coordinator for e in train)
        assert all(e.get("sim_duration") is not None for e in train)

    def test_resume_appends_without_duplicate_round_spans(self, vocab,
                                                          tiny_config, tmp_path):
        trace_dir = tmp_path / "trace"
        knobs = dict(checkpoint_every=2, checkpoint_dir=str(tmp_path / "ckpt"))
        server, participants, test, config = _telemetry_federation(
            vocab, tiny_config, trace_dir, **knobs)
        ConstantMethod(server, participants, test, config=config).run(3)

        snapshot = latest_checkpoint(str(tmp_path / "ckpt"))
        assert snapshot is not None and snapshot.endswith("round_00002")
        server, participants, test, config = _telemetry_federation(
            vocab, tiny_config, trace_dir, **knobs)
        resumed_tuner = ConstantMethod(server, participants, test, config=config)
        resumed = resumed_tuner.run(4, resume_from=snapshot)
        assert len(resumed.rounds) == 4

        events = load_events(os.path.join(str(trace_dir), JSONL_FILE))
        round_spans = sorted(e["round"] for e in events
                             if e.get("type") == "span" and e["cat"] == "round")
        # round 2 was traced by the interrupted run AND re-executed by the
        # resume; the prune must keep exactly one copy of it
        assert round_spans == [0, 1, 2, 3]
        metric_rounds = sorted(e["round"] for e in events
                               if e.get("type") == "metrics")
        assert metric_rounds == [0, 1, 2, 3]

    def test_telemetry_survives_pickling_without_handle(self, tmp_path):
        import pickle

        telemetry = RunTelemetry(str(tmp_path))
        telemetry.begin()
        telemetry.registry.counter("repro_rounds_total").inc()
        clone = pickle.loads(pickle.dumps(telemetry))
        assert clone._handle is None
        assert not clone._writable()  # same pid but no handle
        assert clone.registry.counter_value("repro_rounds_total") == 1
        telemetry.finish()


# ------------------------------------------------------------------- report
class TestReportTables:
    def test_round_table_from_real_trace(self, telemetry_run):
        result, _, trace_dir = telemetry_run
        events = load_events(os.path.join(trace_dir, JSONL_FILE))
        headers, rows = round_table(events)
        assert headers[0] == "round"
        assert [row[0] for row in rows] == ["0", "1"]
        for row, round_result in zip(rows, result.rounds):
            assert float(row[headers.index("sim_s")]) == pytest.approx(
                round_result.round_duration, abs=1e-4)
            assert row[headers.index("train_spans")] == str(
                round_result.num_aggregated)

    def test_tier_and_category_tables(self, telemetry_run):
        _, _, trace_dir = telemetry_run
        events = load_events(os.path.join(trace_dir, JSONL_FILE))
        headers, rows = tier_table(events)
        assert [row[0] for row in rows] == ["tier0", "tier1"]
        cat_headers, cat_rows = category_table(events)
        assert "round" in [row[0] for row in cat_rows]

    def test_format_table_alignment_and_empty(self):
        rendered = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = rendered.splitlines()
        assert lines[0].startswith("a")
        assert lines[1] == "---  --"
        assert format_table(["a"], []) == "(no data)"

    def test_run_report_cli(self, telemetry_run):
        _, _, trace_dir = telemetry_run
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "scripts", "run_report.py"),
             trace_dir], capture_output=True, text=True, cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stderr
        assert "Per-round breakdown" in proc.stdout
        assert "tier0" in proc.stdout
        assert "repro_rounds_total" in proc.stdout
