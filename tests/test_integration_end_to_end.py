"""End-to-end integration tests: multi-round federated runs across methods/datasets."""

import pytest

from repro import (
    FMDFineTuner,
    FMESFineTuner,
    FMQFineTuner,
    FluxConfig,
    FluxFineTuner,
    MoETransformer,
    ParameterServer,
    Participant,
    ParticipantResources,
    RunConfig,
    make_dolly_like,
    make_gsm8k_like,
    make_mmlu_like,
    partition_dirichlet,
    tiny_moe,
)
from repro.data import Vocabulary
from repro.models.presets import ARCHITECTURE_DESCRIPTORS
from repro.runtime import SyncScheduler
from repro.systems import CONSUMER_GPU, CostModel, MemoryModel, heterogeneous_fleet


def build_federation(dataset, num_clients=3, max_experts=6, max_tuning=3, seed=0,
                     heterogeneous=False):
    train, test = dataset.split(seed=seed)
    shards = partition_dirichlet(train, num_clients, alpha=0.5, seed=seed)
    devices = (heterogeneous_fleet(num_clients, seed=seed)
               if heterogeneous else [CONSUMER_GPU] * num_clients)
    memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"])
    participants, cost_models = [], {}
    for i, shard in enumerate(shards):
        participants.append(Participant(
            i, train.subset(shard), device=devices[i],
            resources=ParticipantResources(max_experts=max_experts, max_tuning_experts=max_tuning),
            seed=seed + i))
        cost_models[i] = CostModel(devices[i], memory)
    return participants, test, cost_models


@pytest.fixture(scope="module")
def shared_setup():
    vocab = Vocabulary(size=96, num_topics=4)
    config = tiny_moe(vocab_size=vocab.size)
    dataset = make_gsm8k_like(vocab=vocab, num_samples=120, seed=21)
    participants, test, cost_models = build_federation(dataset)
    run_config = RunConfig(batch_size=8, max_local_batches=2, learning_rate=5e-3,
                           eval_max_samples=24, seed=0)
    return config, participants, test, cost_models, run_config


class TestMultiRoundRuns:
    def test_flux_three_round_run_progresses(self, shared_setup):
        config, participants, test, cost_models, run_config = shared_setup
        server = ParameterServer(MoETransformer(config))
        tuner = FluxFineTuner(server, participants, test, cost_models=cost_models,
                              config=run_config, flux_config=FluxConfig(seed=0))
        result = tuner.run(num_rounds=3)
        assert len(result.rounds) == 3
        times = result.tracker.times()
        assert all(b > a for a, b in zip(times, times[1:]))
        assert result.rounds[-1].train_loss > 0

    def test_simulated_time_ordering_between_methods(self, shared_setup):
        """Per-round cost ordering: FMD (offloading) slowest, Flux cheaper."""
        config, participants, test, cost_models, run_config = shared_setup
        durations = {}
        for cls in (FluxFineTuner, FMDFineTuner, FMQFineTuner, FMESFineTuner):
            server = ParameterServer(MoETransformer(config))
            tuner = cls(server, participants, test, cost_models=cost_models, config=run_config)
            result = tuner.run(num_rounds=1)
            durations[tuner.name] = result.total_time
        assert durations["fmd"] > durations["flux"]
        assert durations["fmd"] > durations["fmes"]

    def test_flux_phase_breakdown_dominated_by_training(self, shared_setup):
        config, participants, test, cost_models, run_config = shared_setup
        server = ParameterServer(MoETransformer(config))
        tuner = FluxFineTuner(server, participants, test, cost_models=cost_models,
                              config=run_config)
        result = tuner.run(num_rounds=2)
        totals = result.phase_totals()
        overhead = totals.get("merging", 0) + totals.get("assignment", 0)
        assert totals["training"] > overhead

    def test_heterogeneous_devices_round_time_set_by_slowest(self):
        vocab = Vocabulary(size=96, num_topics=4)
        config = tiny_moe(vocab_size=vocab.size)
        dataset = make_gsm8k_like(vocab=vocab, num_samples=90, seed=5)
        participants, test, cost_models = build_federation(dataset, heterogeneous=True, seed=3)
        run_config = RunConfig(batch_size=8, max_local_batches=1, eval_max_samples=12)
        server = ParameterServer(MoETransformer(config))
        tuner = FMDFineTuner(server, participants, test, cost_models=cost_models, config=run_config)
        round_result, _ = SyncScheduler().run_round(tuner, 0)
        slowest = max(round_result.timeline.participant_times.values())
        assert round_result.round_duration >= slowest

    def test_other_datasets_work_end_to_end(self):
        vocab = Vocabulary(size=96, num_topics=4)
        config = tiny_moe(vocab_size=vocab.size)
        for factory in (make_dolly_like, make_mmlu_like):
            dataset = factory(vocab=vocab, num_samples=80, seed=9)
            participants, test, cost_models = build_federation(dataset, seed=9)
            run_config = RunConfig(batch_size=8, max_local_batches=1, eval_max_samples=12)
            server = ParameterServer(MoETransformer(config))
            tuner = FluxFineTuner(server, participants, test, cost_models=cost_models,
                                  config=run_config)
            result = tuner.run(num_rounds=1)
            assert 0.0 <= result.final_metric() <= 1.0

    def test_more_participants_reduce_per_round_data_per_client(self, shared_setup):
        """Scalability harness: participant subsampling works with larger federations."""
        vocab = Vocabulary(size=96, num_topics=4)
        config = tiny_moe(vocab_size=vocab.size)
        dataset = make_gsm8k_like(vocab=vocab, num_samples=150, seed=13)
        participants, test, cost_models = build_federation(dataset, num_clients=6, seed=13)
        run_config = RunConfig(batch_size=8, max_local_batches=1, eval_max_samples=12,
                               participants_per_round=3)
        server = ParameterServer(MoETransformer(config))
        tuner = FluxFineTuner(server, participants, test, cost_models=cost_models,
                              config=run_config)
        round_result, results = SyncScheduler().run_round(tuner, 0)
        assert len(results) == 3

    @pytest.mark.slow
    def test_federated_training_improves_over_initial_model(self):
        """Several Flux rounds should beat the untrained model on the test split."""
        vocab = Vocabulary(size=96, num_topics=4)
        config = tiny_moe(vocab_size=vocab.size)
        dataset = make_dolly_like(vocab=vocab, num_samples=150, seed=31)
        participants, test, cost_models = build_federation(dataset, num_clients=3,
                                                           max_experts=8, max_tuning=4, seed=31)
        run_config = RunConfig(batch_size=8, max_local_batches=3, learning_rate=1e-2,
                               eval_max_samples=40, seed=1)
        server = ParameterServer(MoETransformer(config))
        from repro.metrics import evaluate_model
        initial = evaluate_model(server.global_model, test, max_samples=40, seed=1)
        tuner = FluxFineTuner(server, participants, test, cost_models=cost_models,
                              config=run_config)
        result = tuner.run(num_rounds=4)
        assert result.tracker.best_metric() > initial
