"""Tests for the federated substrate: aggregation, clients, server, round loop."""

import numpy as np
import pytest

from repro.analysis import profile_activation
from repro.data import make_gsm8k_like, partition_dirichlet, partition_iid, partition_statistics
from repro.federated import (
    ExpertUpdate,
    FederatedFineTuner,
    ParameterServer,
    Participant,
    ParticipantResources,
    ParticipantRoundResult,
    RunConfig,
)
from repro.federated.communication import ExchangePlan
from repro.federated.strategies import FedAvgStrategy
from repro.models import MoETransformer
from repro.models.presets import ARCHITECTURE_DESCRIPTORS
from repro.systems import CONSUMER_GPU, CostModel, MemoryModel, RoundCostBreakdown


class TestFedAvg:
    """The per-key FedAvg reduction (the buffered reference it replaced is
    tested, and compared to it, in ``test_fold_oracle.py``)."""

    def test_weighted_average(self):
        states = [{"w": np.zeros((2, 2))}, {"w": np.ones((2, 2))}]
        averaged = FedAvgStrategy().aggregate(states, [1.0, 3.0])
        assert np.allclose(averaged["w"], 0.75)

    def test_zero_weights_rejected(self):
        states = [{"w": np.zeros(2)}, {"w": np.ones(2) * 2}]
        with pytest.raises(ValueError, match="non-positive total weight"):
            FedAvgStrategy().aggregate(states, [0.0, 0.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            FedAvgStrategy().aggregate([{"w": np.zeros(2)}], [-1.0])

    def test_empty_states_rejected(self):
        with pytest.raises(ValueError):
            FedAvgStrategy().aggregate([], [])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            FedAvgStrategy().aggregate([{"w": np.zeros(2)}], [1.0, 2.0])

    def test_aggregate_loads_into_model(self, tiny_model):
        zero_state = {k: np.zeros_like(v) for k, v in tiny_model.expert_state(0, 0).items()}
        updates = [ExpertUpdate(0, 0, 0, zero_state, 2.0)]
        contributions = ParameterServer(tiny_model).aggregate(updates)
        assert contributions == {(0, 0): 1}
        assert np.allclose(tiny_model.get_expert(0, 0).w_gate.weight.data, 0.0)


class TestParticipantResources:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParticipantResources(max_experts=0, max_tuning_experts=1)
        with pytest.raises(ValueError):
            ParticipantResources(max_experts=4, max_tuning_experts=5)

    def test_non_tuning_budget(self):
        resources = ParticipantResources(max_experts=10, max_tuning_experts=4)
        assert resources.max_non_tuning_experts == 6

    def test_from_device_produces_positive_budgets(self):
        memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["deepseek-moe"])
        resources = ParticipantResources.from_device(memory, CONSUMER_GPU)
        assert resources.max_experts >= resources.max_tuning_experts >= 1


class TestParticipant:
    @pytest.fixture()
    def dataset(self, vocab):
        return make_gsm8k_like(vocab=vocab, num_samples=40, seed=2)

    @pytest.fixture()
    def participant(self, dataset):
        return Participant(3, dataset, resources=ParticipantResources(8, 4), seed=1)

    def test_empty_dataset_rejected(self, dataset):
        with pytest.raises(ValueError):
            Participant(0, dataset.subset([]))

    def test_local_batches_respects_limits(self, participant, tiny_config):
        batches = participant.local_batches(8, max_batches=2, max_seq_len=tiny_config.max_seq_len)
        assert len(batches) == 2
        assert all(b.batch_size <= 8 for b in batches)

    def test_local_batches_filter_by_sample_ids(self, participant, dataset, tiny_config):
        wanted = [dataset.samples[0].sample_id, dataset.samples[1].sample_id]
        batches = participant.local_batches(8, sample_ids=wanted, max_seq_len=tiny_config.max_seq_len)
        seen = {int(s) for b in batches for s in b.sample_ids}
        assert seen == set(wanted)

    def test_local_batches_reshuffle_between_rounds(self, participant, tiny_config):
        a = participant.local_batches(8, max_seq_len=tiny_config.max_seq_len)
        b = participant.local_batches(8, max_seq_len=tiny_config.max_seq_len)
        assert not np.array_equal(a[0].sample_ids, b[0].sample_ids)

    def test_local_finetune_all_experts(self, participant, tiny_model, tiny_config):
        batches = participant.local_batches(8, max_batches=2, max_seq_len=tiny_config.max_seq_len)
        result = participant.local_finetune(tiny_model, batches, learning_rate=1e-2)
        assert result.mean_loss > 0
        assert result.num_batches == 2
        assert result.expert_grad_norms
        assert result.expert_token_counts

    def test_local_finetune_selected_experts_only(self, participant, tiny_model, tiny_config):
        before = {key: tiny_model.expert_state(*key) for key in tiny_model.iter_expert_ids()}
        batches = participant.local_batches(8, max_batches=2, max_seq_len=tiny_config.max_seq_len)
        selected = {(0, 0), (1, 1)}
        participant.local_finetune(tiny_model, batches, learning_rate=5e-2,
                                   trainable_experts=selected)
        for key in tiny_model.iter_expert_ids():
            after = tiny_model.expert_state(*key)
            changed = any(not np.allclose(before[key][k], after[k]) for k in after)
            if key in selected:
                assert changed, f"selected expert {key} did not move"
            else:
                assert not changed, f"frozen expert {key} moved"

    def test_local_finetune_builds_no_sample_sets_and_loses_nothing(
            self, dataset, tiny_config, monkeypatch):
        """Training forwards pass no ``sample_ids``: same result, same weights."""
        def finetune(model):
            trainer = Participant(3, dataset, resources=ParticipantResources(8, 4), seed=1)
            batches = trainer.local_batches(8, max_batches=2,
                                            max_seq_len=tiny_config.max_seq_len)
            return batches, trainer.local_finetune(model, batches, learning_rate=1e-2,
                                                   iterations=2)

        lean_model = MoETransformer(tiny_config)
        batches, lean = finetune(lean_model)
        assert not any(samples for layer in lean_model.moe_layers()
                       for samples in layer.last_routing.sample_ids)

        # the forward local_finetune used to issue: every batch with its sample ids
        ids_by_input = {batch.input_ids.tobytes(): batch.sample_ids for batch in batches}
        compute_loss = MoETransformer.compute_loss
        monkeypatch.setattr(
            MoETransformer, "compute_loss",
            lambda self, input_ids, **kwargs: compute_loss(
                self, input_ids, sample_ids=ids_by_input[input_ids.tobytes()], **kwargs))
        recording_model = MoETransformer(tiny_config)
        _, recording = finetune(recording_model)
        assert any(samples for layer in recording_model.moe_layers()
                   for samples in layer.last_routing.sample_ids)

        assert any(samples for layer_sets in profile_activation(lean_model, batches).sample_sets
                   for samples in layer_sets)   # the one reader still gets its sets
        assert lean == recording                # losses, grad norms, token counts: exact
        for name, value in recording_model.state_dict().items():
            assert lean_model.state_dict()[name].tobytes() == value.tobytes(), name

    def test_local_finetune_requires_batches(self, participant, tiny_model):
        with pytest.raises(ValueError):
            participant.local_finetune(tiny_model, [])

    def test_local_finetune_requires_trainable_experts(self, participant, tiny_model, tiny_config):
        batches = participant.local_batches(8, max_batches=1, max_seq_len=tiny_config.max_seq_len)
        with pytest.raises(ValueError):
            participant.local_finetune(tiny_model, batches, trainable_experts=set())


class TestPartitioning:
    @pytest.fixture()
    def dataset(self, vocab):
        return make_gsm8k_like(vocab=vocab, num_samples=100, seed=3)

    def test_dirichlet_partition_covers_everything(self, dataset):
        parts = partition_dirichlet(dataset, 5, alpha=0.5, seed=0)
        all_indices = sorted(i for part in parts for i in part)
        assert all_indices == list(range(len(dataset)))

    def test_dirichlet_partition_disjoint(self, dataset):
        parts = partition_dirichlet(dataset, 5, alpha=0.5, seed=0)
        seen = set()
        for part in parts:
            assert not (seen & set(part))
            seen |= set(part)

    def test_min_samples_guaranteed(self, dataset):
        parts = partition_dirichlet(dataset, 8, alpha=0.1, seed=1, min_samples=3)
        assert all(len(part) >= 3 for part in parts)

    def test_low_alpha_more_skewed_than_iid(self, dataset):
        skewed = partition_dirichlet(dataset, 5, alpha=0.1, seed=0)
        iid = partition_iid(dataset, 5, seed=0)
        skewed_entropy = partition_statistics(skewed, dataset)["topic_entropy_mean"]
        iid_entropy = partition_statistics(iid, dataset)["topic_entropy_mean"]
        assert skewed_entropy < iid_entropy

    def test_invalid_parameters(self, dataset):
        with pytest.raises(ValueError):
            partition_dirichlet(dataset, 0)
        with pytest.raises(ValueError):
            partition_dirichlet(dataset, 2, alpha=0.0)
        with pytest.raises(ValueError):
            partition_dirichlet(dataset, 80, min_samples=5)


class TestParameterServer:
    def test_snapshot_is_independent_copy(self, tiny_model):
        server = ParameterServer(tiny_model)
        snapshot = server.model_snapshot()
        snapshot.get_expert(0, 0).w_gate.weight.data[...] = 0.0
        assert not np.allclose(server.global_model.get_expert(0, 0).w_gate.weight.data, 0.0)

    def test_snapshot_copies_every_parameter_once(self, tiny_model):
        snapshot = ParameterServer(tiny_model).model_snapshot()
        copies = list(snapshot.named_parameters())
        sources = list(tiny_model.named_parameters())
        assert [name for name, _ in copies] == [name for name, _ in sources]
        for (name, copy), (_, source) in zip(copies, sources):
            assert np.array_equal(copy.data, source.data), name
            assert not np.shares_memory(copy.data, source.data), name

    def test_aggregate_updates_round_counter_and_contributions(self, tiny_model):
        server = ParameterServer(tiny_model)
        state = {k: np.zeros_like(v) for k, v in tiny_model.expert_state(0, 0).items()}
        server.aggregate([ExpertUpdate(0, 0, 0, state, 1.0)])
        assert server.round_index == 1
        assert server.contribution_counts[(0, 0)] == 1
        assert (0, 0) not in server.untouched_experts()

    def test_expert_states_bulk_access(self, tiny_model):
        server = ParameterServer(tiny_model)
        states = server.expert_states([(0, 0), (1, 1)])
        assert set(states) == {(0, 0), (1, 1)}


class ConstantMethod(FederatedFineTuner):
    """A minimal method used to exercise the shared round loop."""

    name = "constant"

    def participant_round(self, participant, round_index):
        model = self.server.model_snapshot()
        batches = participant.local_batches(self.config.batch_size, max_batches=1,
                                            max_seq_len=model.config.max_seq_len)
        result = participant.local_finetune(model, batches,
                                            learning_rate=self.config.learning_rate)
        updates = [ExpertUpdate(participant.participant_id, 0, 0, model.expert_state(0, 0), 1.0)]
        return ParticipantRoundResult(
            updates=updates,
            breakdown=RoundCostBreakdown(training=1.0),
            train_loss=result.mean_loss,
        )


class TestRoundLoop:
    @pytest.fixture()
    def setup(self, vocab, tiny_config):
        dataset = make_gsm8k_like(vocab=vocab, num_samples=60, seed=5)
        train, test = dataset.split(seed=5)
        parts = partition_dirichlet(train, 3, alpha=0.5, seed=0)
        participants = [
            Participant(i, train.subset(part), resources=ParticipantResources(8, 4), seed=i)
            for i, part in enumerate(parts)
        ]
        server = ParameterServer(MoETransformer(tiny_config))
        config = RunConfig(batch_size=8, max_local_batches=1, eval_max_samples=12)
        return server, participants, test, config

    def test_requires_participants(self, setup):
        server, _, test, config = setup
        with pytest.raises(ValueError):
            ConstantMethod(server, [], test, config=config)

    def test_run_produces_history_and_time(self, setup):
        server, participants, test, config = setup
        method = ConstantMethod(server, participants, test, config=config)
        result = method.run(num_rounds=2)
        assert len(result.rounds) == 2
        assert result.total_time == pytest.approx(2.0)  # slowest participant 1s per round
        assert len(result.tracker.history) == 2
        assert result.method == "constant"

    def test_participant_subsampling(self, setup):
        server, participants, test, config = setup
        config.participants_per_round = 2
        method = ConstantMethod(server, participants, test, config=config)
        selected = method.select_participants(0)
        assert len(selected) == 2

    def test_stop_at_target(self, setup):
        server, participants, test, config = setup
        method = ConstantMethod(server, participants, test, config=config)
        result = method.run(num_rounds=5, stop_at_target=True, target_metric=0.0)
        assert len(result.rounds) == 1

    def test_invalid_round_count(self, setup):
        server, participants, test, config = setup
        method = ConstantMethod(server, participants, test, config=config)
        with pytest.raises(ValueError):
            method.run(num_rounds=0)

    def test_exchange_plan_costs(self):
        memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"])
        cost = CostModel(CONSUMER_GPU, memory)
        plan = ExchangePlan(download_experts=4, upload_experts=2)
        assert plan.communication_seconds(cost) > 0
        assert plan.total_bytes(cost) == pytest.approx(6 * memory.params_per_expert * 2)

    def test_exchange_plan_quantized_wire_precision(self):
        """Quantized exchanges charge bits/8 bytes per parameter, not FP16."""
        from repro.federated import bytes_per_param_for_bits

        memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"])
        cost = CostModel(CONSUMER_GPU, memory)
        fp16 = ExchangePlan(download_experts=4, upload_experts=4)
        int4 = ExchangePlan.for_bits(download_experts=4, upload_experts=4, bits=4)
        assert bytes_per_param_for_bits(4) == pytest.approx(0.5)
        assert int4.bytes_per_param == pytest.approx(0.5)
        assert int4.total_bytes(cost) == pytest.approx(fp16.total_bytes(cost) / 4)
        assert int4.communication_seconds(cost) == \
            pytest.approx(fp16.communication_seconds(cost) / 4)
        with pytest.raises(ValueError):
            bytes_per_param_for_bits(0)
