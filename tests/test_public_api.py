"""Tests of the top-level public API surface."""

import importlib
import os
import subprocess
import sys

import pytest

import repro


#: public functions that nothing but tests called, by the modules that
#: defined or exported them
TEST_ONLY_HELPERS = {
    "repro.autograd": ["apply_gradients", "collect_gradients", "flatten_parameters",
                       "parameter_delta", "clip_grad_norm"],
    "repro.autograd.grad_utils": ["apply_gradients", "collect_gradients",
                                  "flatten_parameters", "parameter_delta"],
    "repro.autograd.optim": ["clip_grad_norm"],
    "repro.data": ["partition_iid", "partition_statistics"],
    "repro.data.partition": ["partition_iid", "partition_statistics"],
    "repro.federated": ["make_server"],
    "repro.federated.server": ["make_server"],
    "repro.quantization": ["quantized_model_bytes", "dequantize_array",
                           "dequantize_state_dict", "quantization_error",
                           "quantize_state_dict", "quantized_nbytes", "state_dict_nbytes"],
    "repro.quantization.qmodel": ["quantized_model_bytes"],
    "repro.quantization.quantizer": ["dequantize_array", "dequantize_state_dict",
                                     "quantization_error", "quantize_state_dict",
                                     "quantized_nbytes", "state_dict_nbytes"],
    "repro.runtime": ["save_run_checkpoint"],
    "repro.runtime.checkpoint": ["save_run_checkpoint"],
    "repro.systems": ["expert_memory_bytes", "model_memory_bytes"],
    "repro.systems.memory": ["expert_memory_bytes", "model_memory_bytes"],
}


#: public names deleted with what only tests reached (the activation knob, the
#: autograd ops and optimizers no model family calls, the logging adapter,
#: the codec tags no run selects, the grouping ABC), by the module that
#: defined or exported them
DELETED_NAMES = {
    "repro": ["get_logger", "enable_console_logging", "available_codecs"],
    "repro.autograd": ["LayerNorm", "Sequential", "SGD", "AdamW", "stack", "concatenate",
                       "expand_rows", "index_add", "where"],
    "repro.models.experts": ["ACTIVATIONS"],
    "repro.obs": ["get_logger", "enable_console_logging", "StructuredLogger"],
    "repro.comm": ["TopKDeltaCodec", "available_codecs"],
    "repro.comm.codecs": ["TopKDeltaCodec", "available_codecs"],
    "repro.federated": ["GroupingPolicy", "CallableGrouping"],
    "repro.federated.topology": ["GroupingPolicy", "CallableGrouping"],
    "repro.metrics": ["relative_accuracy", "RoundMetric"],
    "repro.metrics.tracker": ["RoundMetric"],
    "repro.systems": ["RunTimeline"],
    "repro.systems.timeline": ["RunTimeline"],
    "repro.data": ["make_piqa_like", "DATASET_FACTORIES"],
    "repro.metrics.evaluation": ["relative_accuracy"],
}

#: methods and properties deleted with what only tests reached, by class
DELETED_ATTRIBUTES = {
    "repro.comm.codecs.Codec": ["encode_array", "decode_array", "wire_bytes_per_param"],
    "repro.comm.codecs.CastCodec": ["encode_array", "decode_array"],
    "repro.comm.codecs.GroupQuantCodec": ["encode_array", "decode_array"],
    "repro.comm.codecs.TopKQuantCodec": ["encode_array", "decode_array", "_row_values"],
    "repro.comm.codecs.SparseDeltaCodec": ["encode_array", "decode_array"],
    "repro.comm.aggregator.StreamingAggregator": ["__len__", "num_updates"],
    "repro.federated.communication.ExchangePlan": [
        "for_bits", "for_codec", "total_bytes", "payload_bytes"],
    "repro.federated.server.ParameterServer": [
        "global_state", "expert_states", "experts_per_layer", "num_experts",
        "untouched_experts"],
    "repro.federated.server.ShardedParameterServer": ["shard_keys"],
    "repro.federated.topology.CostAwareGrouping": ["group_loads"],
    "repro.federated.topology.AggregationTree": ["channels"],
    "repro.federated.client.Participant": ["num_samples"],
    "repro.federated.orchestrator.RunResult": ["time_to_target"],
    "repro.federated.orchestrator.FederatedFineTuner": ["run_round"],
    "repro.federated.privacy.GaussianMechanism": ["noise_stddev"],
    "repro.metrics.tracker.PerformanceTracker": [
        "reached_target", "total_comm_bytes", "total_edge_bytes", "total_payloads_lost",
        "total_payloads_corrupted", "relative_accuracies", "record"],
    "repro.runtime.events.EventQueue": ["peek", "peek_time"],
    "repro.runtime.faults.FaultInjector": ["outcomes"],
    "repro.service.client.ServiceClient": ["ping", "server_stats"],
    "repro.service.pool.ServiceAggregationPool": ["server_stats"],
    "repro.service.server.InProcessServer": ["name"],
    "repro.obs.trace.Tracer": ["current_round"],
    "repro.obs.trace.NullTracer": ["current_round"],
    "repro.obs.metrics.Gauge": ["inc"],
    "repro.obs.metrics.Histogram": ["mean"],
    "repro.analysis.activation.ActivationProfile": ["frequency_matrix", "flat_frequencies"],
    "repro.core.clustering.ClusteringResult": ["cluster_of"],
    "repro.core.profiling.QuantizedProfiler": ["reference_profile"],
    "repro.core.profiling.StaleProfiler": ["bits"],
    "repro.core.utility.UtilityTracker": ["get", "top_experts", "stale_experts"],
    "repro.data.datasets.SyntheticDataset": ["__getitem__", "mean_length"],
    "repro.data.synthetic.Sample": ["prompt_ids"],
    "repro.data.vocab.Vocabulary": [
        "content_start", "choice_from_token", "digit_from_token", "topic_of_token"],
    "repro.quantization.quantizer.QuantizedArray": ["nbytes"],
    "repro.systems.timeline.SimulatedClock": ["reset"],
    "repro.systems.timeline.RoundTimeline": ["duration_override"],
}


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_subpackages_importable(self):
        for module in ("autograd", "models", "quantization", "data", "federated",
                       "systems", "core", "baselines", "metrics", "analysis"):
            imported = importlib.import_module(f"repro.{module}")
            assert imported is not None

    def test_subpackage_all_exports_resolve(self):
        for module_name in ("repro.autograd", "repro.models", "repro.data", "repro.core",
                            "repro.federated", "repro.systems", "repro.quantization",
                            "repro.baselines", "repro.metrics", "repro.analysis"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"

    def test_no_participant_executor(self):
        """Participants train in one in-process loop that no option selects."""
        import repro.runtime

        for name in ("ParticipantExecutor", "SerialExecutor",
                     "ProcessPoolParticipantExecutor", "make_executor"):
            assert not hasattr(repro, name) and not hasattr(repro.runtime, name)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.runtime.executor")

    def test_no_aggregation_strategies(self):
        """Weighted FedAvg is the only fold: no strategy, registry or accumulator."""
        import repro.comm
        import repro.federated

        for name in ("AggregationStrategy", "FedAvgStrategy", "TrimmedMeanStrategy",
                     "MedianStrategy", "StalenessFedAvgStrategy", "UpdateAccumulator",
                     "register_strategy", "get_strategy", "available_strategies",
                     "picklable_strategy", "strategy_from_config", "staleness_discount"):
            for module in (repro, repro.federated, repro.comm):
                assert not hasattr(module, name), (module.__name__, name)
                assert name not in getattr(module, "__all__", ())
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.federated.strategies")

    def test_no_client_samplers(self):
        """``FederatedFineTuner.select_participants`` is the one (uniform) draw."""
        import repro.runtime

        for name in ("ClientSampler", "UniformSampler", "ResourceAwareSampler",
                     "AvailabilityTraceSampler", "AvailabilityTrace", "make_sampler"):
            for module in (repro, repro.runtime):
                assert not hasattr(module, name), (module.__name__, name)
                assert name not in getattr(module, "__all__", ())
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.runtime.sampling")

    @pytest.mark.parametrize("module_name", sorted(TEST_ONLY_HELPERS))
    def test_no_test_only_helpers(self, module_name):
        """Functions only tests ever called are gone, exports included."""
        module = importlib.import_module(module_name)
        for name in TEST_ONLY_HELPERS[module_name]:
            assert not hasattr(module, name), (module_name, name)
            assert not hasattr(repro, name), name
            assert name not in getattr(module, "__all__", ())

    @pytest.mark.parametrize("module_name", sorted(DELETED_NAMES))
    def test_deleted_names_stay_deleted(self, module_name):
        module = importlib.import_module(module_name)
        for name in DELETED_NAMES[module_name]:
            assert not hasattr(module, name), (module_name, name)
            assert name not in getattr(module, "__all__", ())

    @pytest.mark.parametrize("class_path", sorted(DELETED_ATTRIBUTES))
    def test_deleted_methods_stay_deleted(self, class_path):
        module_name, class_name = class_path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), class_name)
        for name in DELETED_ATTRIBUTES[class_path]:
            assert not hasattr(cls, name), (class_path, name)

    def test_the_logging_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.obs.log")

    def test_one_framing_implementation(self):
        """FrameStream is the only length-prefixed framing: no asyncio twins."""
        import repro.comm
        import repro.comm.stream

        for name in ("read_frame", "write_frame"):
            assert name not in repro.comm.__all__
            assert not hasattr(repro.comm, name)
            assert not hasattr(repro.comm.stream, name)

    def test_importing_the_package_loads_no_asyncio(self):
        """Both ends of the fold service block on sockets on plain threads."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro, repro.service; print('asyncio' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120, check=True)
        assert done.stdout.strip() == "False"

    def test_method_names_are_distinct(self):
        names = {repro.FluxFineTuner.name, repro.FMDFineTuner.name,
                 repro.FMQFineTuner.name, repro.FMESFineTuner.name}
        assert names == {"flux", "fmd", "fmq", "fmes"}

    def test_quickstart_docstring_snippet_runs(self):
        """The README/package-docstring quickstart must stay executable."""
        config = repro.tiny_moe(vocab_size=256)   # match the default dataset vocabulary
        dataset = repro.make_gsm8k_like(num_samples=60, seed=0)
        train, test = dataset.split()
        shards = repro.partition_dirichlet(train, num_clients=2, alpha=0.5)
        participants = [
            repro.Participant(i, train.subset(shard),
                              resources=repro.ParticipantResources(max_experts=8,
                                                                   max_tuning_experts=4))
            for i, shard in enumerate(shards)
        ]
        server = repro.ParameterServer(repro.MoETransformer(config))
        tuner = repro.FluxFineTuner(server, participants, test,
                                    config=repro.RunConfig(batch_size=8, max_local_batches=1,
                                                           eval_max_samples=12))
        result = tuner.run(num_rounds=1)
        assert len(result.tracker.as_series()) == 1
