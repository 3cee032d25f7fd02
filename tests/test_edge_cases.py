"""Edge-case and failure-injection tests across the stack."""

import numpy as np

from repro.core import (
    ExpertRoleAssigner,
    FluxFineTuner,
    QuantizedProfiler,
    build_compact_model,
    plan_compact_model,
)
from repro.analysis import profile_activation
from repro.data import SyntheticTaskGenerator, TaskType, Vocabulary, collate, make_gsm8k_like
from repro.federated import (
    ExpertUpdate,
    ParameterServer,
    Participant,
    ParticipantResources,
    RunConfig,
)
from repro.models import MoEModelConfig, MoETransformer
from repro.quantization import quantize_model


class TestTinyFederations:
    def test_single_participant_single_round(self, vocab, tiny_config):
        dataset = make_gsm8k_like(vocab=vocab, num_samples=20, seed=2)
        train, test = dataset.split()
        participant = Participant(0, train,
                                  resources=ParticipantResources(max_experts=4,
                                                                 max_tuning_experts=2))
        server = ParameterServer(MoETransformer(tiny_config))
        tuner = FluxFineTuner(server, [participant], test,
                              config=RunConfig(batch_size=4, max_local_batches=1,
                                               eval_max_samples=4))
        result = tuner.run(num_rounds=1)
        assert len(result.rounds) == 1

    def test_budget_larger_than_total_experts(self, vocab, tiny_config):
        """A participant whose budgets exceed the model's expert count still works."""
        dataset = make_gsm8k_like(vocab=vocab, num_samples=20, seed=3)
        train, test = dataset.split()
        total = sum(tiny_config.experts_per_layer())
        participant = Participant(0, train,
                                  resources=ParticipantResources(max_experts=total * 2,
                                                                 max_tuning_experts=total * 2))
        server = ParameterServer(MoETransformer(tiny_config))
        tuner = FluxFineTuner(server, [participant], test,
                              config=RunConfig(batch_size=4, max_local_batches=1,
                                               eval_max_samples=4))
        result = tuner.run(num_rounds=1)
        assert result.tracker.history

    def test_participant_with_very_few_samples(self, vocab, tiny_config):
        dataset = make_gsm8k_like(vocab=vocab, num_samples=12, seed=4)
        shard = dataset.subset([0, 1, 2])
        participant = Participant(0, shard,
                                  resources=ParticipantResources(max_experts=4,
                                                                 max_tuning_experts=2))
        batches = participant.local_batches(8, max_seq_len=tiny_config.max_seq_len)
        assert batches and batches[0].batch_size == 3


class TestDegenerateModels:
    def test_single_expert_per_layer_model(self, vocab):
        config = MoEModelConfig(vocab_size=vocab.size, d_model=16, n_layers=2, n_heads=2,
                                d_ff=16, num_experts=1, top_k=1, max_seq_len=32)
        model = MoETransformer(config)
        ids = np.random.default_rng(0).integers(0, vocab.size, size=(2, 8))
        loss = model.compute_loss(ids)
        assert np.isfinite(loss.item())
        freq = model.activation_frequencies()
        assert all(np.allclose(f, [1.0]) for f in freq)

    def test_top1_routing_model(self, vocab):
        config = MoEModelConfig(vocab_size=vocab.size, d_model=16, n_layers=2, n_heads=2,
                                d_ff=16, num_experts=4, top_k=1, max_seq_len=32)
        model = MoETransformer(config)
        ids = np.random.default_rng(1).integers(0, vocab.size, size=(2, 8))
        model(ids)
        record = model.routing_records()[0]
        assert record.token_counts.sum() == record.total_tokens  # exactly one expert per token

    def test_compact_plan_when_everything_is_tuning(self, tiny_model, gsm_batches):
        profile = profile_activation(tiny_model, gsm_batches[:1])
        tuning = {layer: list(range(count))
                  for layer, count in enumerate(tiny_model.experts_per_layer())}
        plan = plan_compact_model(tiny_model, tuning, profile,
                                  max_non_tuning_slots=tiny_model.num_layers)
        assert plan.num_merged_inputs() == 0
        compact, tuning_slots, frozen = build_compact_model(MoETransformer.copy_of(tiny_model), plan,
                                                            profile)
        assert len(frozen) == 0
        assert sum(compact.local_experts_per_layer()) == sum(tiny_model.experts_per_layer())

    def test_quantize_model_with_extreme_bits(self, tiny_model, gsm_batches):
        lowest = quantize_model(tiny_model, 2)
        batch = gsm_batches[0]
        loss = lowest.compute_loss(batch.input_ids, labels=batch.labels,
                                   attention_mask=batch.attention_mask)
        assert np.isfinite(loss.item())


class TestRoleAssignerEdgeCases:
    def test_budget_of_one(self):
        experts = [(0, e) for e in range(4)]
        assigner = ExpertRoleAssigner(experts, seed=0)
        assignment = assigner.assign(0, {0: {(0, 2): 5.0}}, {0: 1})[0]
        assert len(assignment.candidates) == 1
        assert len(assignment.exploitation) == 1
        assert assignment.exploitation[0] == (0, 2)

    def test_budget_exceeding_expert_count(self):
        experts = [(0, e) for e in range(3)]
        assigner = ExpertRoleAssigner(experts, seed=0)
        assignment = assigner.assign(0, {}, {0: 10})[0]
        assert len(assignment.candidates) == 3

    def test_no_participants(self):
        experts = [(0, 0)]
        assigner = ExpertRoleAssigner(experts, seed=0)
        assert assigner.assign(0, {}, {}) == {}


class TestAggregationEdgeCases:
    def test_aggregate_empty_update_list(self, tiny_model):
        server = ParameterServer(tiny_model)
        contributions = server.aggregate([])
        assert contributions == {}
        assert server.round_index == 1

    def test_conflicting_updates_average(self, tiny_model):
        base = tiny_model.expert_state(0, 0)
        zeros = {k: np.zeros_like(v) for k, v in base.items()}
        ones = {k: np.ones_like(v) for k, v in base.items()}
        ParameterServer(tiny_model).aggregate([
            ExpertUpdate(0, 0, 0, zeros, 1.0),
            ExpertUpdate(1, 0, 0, ones, 1.0),
        ])
        assert np.allclose(tiny_model.get_expert(0, 0).w_gate.weight.data, 0.5)


class TestDataEdgeCases:
    def test_minimum_viable_vocabulary(self):
        vocab = Vocabulary(size=32, num_topics=2)
        generator = SyntheticTaskGenerator(vocab, TaskType.MULTIPLE_CHOICE, seed=0)
        sample = generator.sample()
        assert sample.length > 4

    def test_collate_single_sample(self, vocab):
        generator = SyntheticTaskGenerator(vocab, TaskType.GENERATION, seed=1)
        batch = collate([generator.sample(sample_id=0)], pad_id=vocab.PAD)
        assert batch.batch_size == 1
        assert batch.attention_mask.all()

    def test_profiler_with_more_max_batches_than_available(self, tiny_model, gsm_batches):
        profiler = QuantizedProfiler(bits=4, max_batches=100)
        outcome = profiler.profile(tiny_model, gsm_batches[:1])
        assert outcome.num_tokens == gsm_batches[0].num_tokens
