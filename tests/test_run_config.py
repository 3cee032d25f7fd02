"""The ``RunConfig`` surface: which knobs exist, and what became of retired ones."""

from __future__ import annotations

import dataclasses

import pytest

from repro.federated import RunConfig

#: every knob a run has.  A new one has to be added here, next to the reason
#: two existing callers need different values for it.
RUN_CONFIG_FIELDS = {
    "batch_size", "learning_rate", "max_local_batches",
    "participants_per_round", "eval_batch_size", "eval_max_samples",
    "target_relative_accuracy", "seed",
    "scheduler", "deadline_quantile", "buffer_size",
    "dropout_prob", "straggler_prob",
    "transport", "codec", "channel_loss_prob", "channel_corrupt_prob",
    "num_shards", "edge_tiers", "edge_latency_s",
    "aggregation_executor", "aggregation_workers",
    "service_transport", "service_retry_attempts", "service_retry_delay_s",
    "service_timeout_s", "service_log_dir",
    "checkpoint_every", "checkpoint_dir", "checkpoint_keep_last",
    "checkpoint_delta_every",
    "telemetry", "telemetry_dir",
}


def test_the_exact_set_of_fields():
    assert {field.name for field in dataclasses.fields(RunConfig)} == RUN_CONFIG_FIELDS
    assert len(RUN_CONFIG_FIELDS) == 33


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
        # FedAvg is the only fold: no reduction to select, none to tune
        for retired in ("fedavg", "trimmed_mean", "median", "staleness_fedavg"):
            with pytest.raises(TypeError, match="aggregation"):
                RunConfig(aggregation=retired)
        with pytest.raises(TypeError, match="trim_ratio"):
            RunConfig(trim_ratio=0.2)
        with pytest.raises(TypeError, match="'executor'"):
            RunConfig(executor="process")
        with pytest.raises(TypeError, match="executor_workers"):
            RunConfig(executor_workers=2)

    @pytest.mark.parametrize("keyword, value", [
        ("sampler", "uniform"),
        ("availability_trace", {0: [0]}),
        ("deadline_seconds", 2.5),
        ("async_concurrency", 2),
        ("edge_grouping", "cost_aware"),
        ("channel_latency_s", 0.0),
        ("checkpoint_async", True),
    ])
    def test_selection_and_policy_knobs_are_unknown_keywords(self, keyword, value):
        """One uniform draw of ``participants_per_round`` (which also bounds
        async concurrency), the quantile deadline, cost-aware grouping and
        foreground snapshot writes are all there is."""
        with pytest.raises(TypeError, match=f"'{keyword}'"):
            RunConfig(**{keyword: value})

    @pytest.mark.parametrize("keyword, value", [
        ("local_iterations", 1),
        ("staleness_exponent", 0.5),
        ("straggler_slowdown", 4.0),
    ])
    def test_constants_no_entry_point_varied_are_unknown_keywords(self, keyword, value):
        """One local pass per round, the square-root staleness discount and a 4x
        straggler are constants where they are used, not knobs."""
        with pytest.raises(TypeError, match=f"'{keyword}'"):
            RunConfig(**{keyword: value})
