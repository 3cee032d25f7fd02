"""Tests of the top-level public API surface."""

import importlib

import pytest

import repro


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

    def test_no_staleness_strategy(self):
        """Staleness discounts weights in the async scheduler, not in a strategy."""
        import repro.federated
        import repro.federated.strategies

        for name in ("StalenessFedAvgStrategy", "staleness_discount"):
            assert not hasattr(repro, name) and not hasattr(repro.federated, name)
            assert name not in repro.federated.__all__
            assert not hasattr(repro.federated.strategies, name)

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
        assert len(result.tracker.history) == 1
