"""The ``RunConfig`` surface: which knobs exist, and what became of retired ones."""

from __future__ import annotations

import dataclasses

import pytest

from repro.federated import RunConfig

#: every knob a run has.  A new one has to be added here, next to the reason
#: two existing callers need different values for it.
RUN_CONFIG_FIELDS = {
    "batch_size", "local_iterations", "learning_rate", "max_local_batches",
    "participants_per_round", "eval_batch_size", "eval_max_samples",
    "target_relative_accuracy", "seed",
    "scheduler", "deadline_seconds", "deadline_quantile", "buffer_size",
    "staleness_exponent", "async_concurrency",
    "sampler", "availability_trace",
    "dropout_prob", "straggler_prob", "straggler_slowdown",
    "executor", "executor_workers",
    "transport", "codec", "channel_loss_prob", "channel_corrupt_prob",
    "channel_latency_s",
    "aggregation", "trim_ratio", "num_shards", "edge_tiers", "edge_grouping",
    "edge_latency_s",
    "aggregation_executor", "aggregation_workers",
    "service_transport", "service_retry_attempts", "service_retry_delay_s",
    "service_timeout_s", "service_log_dir",
    "checkpoint_every", "checkpoint_dir", "checkpoint_keep_last",
    "checkpoint_delta_every", "checkpoint_async",
    "telemetry", "telemetry_dir",
}


def test_the_exact_set_of_fields():
    assert {field.name for field in dataclasses.fields(RunConfig)} == RUN_CONFIG_FIELDS
    assert len(RUN_CONFIG_FIELDS) == 47


class TestRetiredKeywords:
    def test_values_naming_todays_behaviour_are_accepted_and_not_stored(self):
        """``benchmarks/e2e/workloads.py`` passes exactly these."""
        config = RunConfig(streaming_aggregation=True, service_codec="wire")
        assert config == RunConfig()
        saved = dataclasses.asdict(config)
        assert "streaming_aggregation" not in saved and "service_codec" not in saved
        assert dataclasses.replace(config, seed=3).seed == 3

    def test_values_naming_deleted_behaviour_say_what_replaced_it(self):
        with pytest.raises(ValueError, match="streaming fold is the only fold"):
            RunConfig(streaming_aggregation=False)
        with pytest.raises(ValueError, match="always forwards the frame"):
            RunConfig(service_codec="fp64")
        with pytest.raises(ValueError, match="'serial' or 'service'"):
            RunConfig(aggregation_executor="process")

    def test_knobs_deleted_outright_are_unknown_keywords(self):
        with pytest.raises(TypeError, match="num_edge_aggregators"):
            RunConfig(num_edge_aggregators=2)
        with pytest.raises(TypeError, match="service_window"):
            RunConfig(service_window=3)
