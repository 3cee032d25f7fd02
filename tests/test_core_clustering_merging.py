"""Tests for expert clustering and adaptive merging / compact-model construction."""

import numpy as np
import pytest

from repro.analysis import output_error, profile_activation
from repro.core import (
    build_compact_model,
    cluster_experts,
    merge_cluster,
    merge_weights,
    pca_reduce,
    plan_compact_model,
)
from repro.models import MoETransformer


@pytest.fixture()
def profile(tiny_model, gsm_batches):
    return profile_activation(tiny_model, gsm_batches)


def grams(features):
    """``cluster_experts`` reads each layer's weights through their Gram matrix."""
    return [matrix @ matrix.T for matrix in features]


class TestPCA:
    def test_reduces_dimensionality(self):
        matrix = np.random.default_rng(0).standard_normal((10, 50))
        reduced = pca_reduce(matrix @ matrix.T, 4)
        assert reduced.shape == (10, 4)

    def test_components_capped_by_matrix_size(self):
        matrix = np.random.default_rng(0).standard_normal((3, 5))
        assert pca_reduce(matrix @ matrix.T, 10).shape == (3, 3)

    def test_rejects_anything_but_a_square_matrix(self):
        with pytest.raises(ValueError):
            pca_reduce(np.zeros(5), 2)
        with pytest.raises(ValueError):
            pca_reduce(np.zeros((3, 5)), 2)

    def test_preserves_separation_of_distinct_groups(self):
        rng = np.random.default_rng(1)
        group_a = rng.standard_normal((5, 20)) + 10
        group_b = rng.standard_normal((5, 20)) - 10
        matrix = np.vstack([group_a, group_b])
        reduced = pca_reduce(matrix @ matrix.T, 2)
        dist_within = np.linalg.norm(reduced[0] - reduced[1])
        dist_across = np.linalg.norm(reduced[0] - reduced[7])
        assert dist_across > dist_within


class TestClusterExperts:
    def _features(self, rng, groups, dim=30):
        """Build features with known group structure and return (features, ids)."""
        rows = []
        for center in groups:
            rows.append(rng.standard_normal(dim) * 0.05 + center)
        return np.stack(rows)

    def test_every_expert_assigned_exactly_once(self):
        rng = np.random.default_rng(0)
        features = [rng.standard_normal((6, 30)), rng.standard_normal((5, 30))]
        ids = [[0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5]]
        result = cluster_experts(grams(features), ids, budgets=[2, 2], seed=0)
        for layer, layer_ids in enumerate(ids):
            assigned = [e for cluster in result.clusters_per_layer[layer] for e in cluster]
            assert sorted(assigned) == sorted(layer_ids)

    def test_budgets_respected(self):
        rng = np.random.default_rng(1)
        features = [rng.standard_normal((8, 30))]
        result = cluster_experts(grams(features), [[*range(8)]], budgets=[3], seed=0)
        assert len(result.clusters_per_layer[0]) <= 3

    def test_similar_experts_grouped_together(self):
        rng = np.random.default_rng(2)
        # two well-separated groups of experts
        features = [np.vstack([
            self._features(rng, [np.full(30, 5.0)] * 3),
            self._features(rng, [np.full(30, -5.0)] * 3),
        ])]
        result = cluster_experts(grams(features), [[0, 1, 2, 3, 4, 5]], budgets=[2], seed=0,
                                 pca_components=4)
        clusters = [set(c) for c in result.clusters_per_layer[0]]
        assert {0, 1, 2} in clusters and {3, 4, 5} in clusters

    def test_fused_and_per_layer_cover_same_experts(self):
        rng = np.random.default_rng(3)
        features = [rng.standard_normal((6, 20)), rng.standard_normal((6, 20))]
        ids = [[*range(6)], [*range(6)]]
        fused = cluster_experts(grams(features), ids, [2, 3], mode="fused", seed=1)
        per_layer = cluster_experts(grams(features), ids, [2, 3], mode="per_layer", seed=1)
        for layer in range(2):
            fused_members = sorted(e for c in fused.clusters_per_layer[layer] for e in c)
            layer_members = sorted(e for c in per_layer.clusters_per_layer[layer] for e in c)
            assert fused_members == layer_members == list(range(6))

    def test_empty_layers_handled(self):
        rng = np.random.default_rng(4)
        features = [np.zeros((0, 1)), rng.standard_normal((4, 10))]
        result = cluster_experts(grams(features), [[], [0, 1, 2, 3]], budgets=[0, 2], seed=0)
        assert result.clusters_per_layer[0] == []
        assert result.num_clusters() >= 1

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            cluster_experts(grams([np.zeros((2, 4))]), [[0, 1]], [1], mode="agglomerative")

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            cluster_experts(grams([np.zeros((2, 4))]), [[0, 1]], [1, 2])

    def test_elapsed_time_recorded(self):
        rng = np.random.default_rng(5)
        result = cluster_experts(grams([rng.standard_normal((4, 8))]), [[0, 1, 2, 3]], [2],
                                 seed=0)
        assert result.elapsed_seconds >= 0
        assert result.mode == "fused"


class TestMergeWeights:
    def test_average_strategy_uniform(self):
        weights = merge_weights([0, 1, 2], np.array([0.5, 0.3, 0.2]), np.zeros(3), "average")
        assert np.allclose(weights, 1.0)

    def test_frequency_strategy(self):
        weights = merge_weights([0, 2], np.array([0.6, 0.1, 0.3]), np.zeros(3), "frequency")
        assert np.allclose(weights, [0.6, 0.3])

    def test_attention_frequency_strategy(self):
        frequencies = np.array([0.5, 0.5])
        attentions = np.array([0.9, 0.1])
        weights = merge_weights([0, 1], frequencies, attentions, "attention_frequency")
        assert weights[0] > weights[1]

    def test_zero_scores_fall_back_to_uniform(self):
        weights = merge_weights([0, 1], np.zeros(2), np.zeros(2), "attention_frequency")
        assert np.allclose(weights, 1.0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            merge_weights([0], np.ones(1), np.ones(1), "median")


class TestMergeCluster:
    def test_merged_expert_is_weighted_average(self, tiny_model, profile):
        frequencies = np.array([0.4, 0.4, 0.1, 0.1])
        attentions = np.ones(4)
        merged = merge_cluster(tiny_model, 0, [0, 1], frequencies, attentions, "frequency")
        expected = 0.5 * (tiny_model.get_expert(0, 0).w_gate.weight.data
                          + tiny_model.get_expert(0, 1).w_gate.weight.data)
        assert np.allclose(merged.w_gate.weight.data, expected)

    def test_merged_expert_is_frozen(self, tiny_model, profile):
        merged = merge_cluster(tiny_model, 0, [0, 1], profile.frequencies[0],
                               profile.attention_scores[0], "attention_frequency")
        assert all(not p.requires_grad for p in merged.parameters())


class TestCompactModelPlan:
    def test_plan_covers_every_expert(self, tiny_model, profile):
        plan = plan_compact_model(tiny_model, {0: [0], 1: [2]}, profile, max_non_tuning_slots=4)
        for layer in range(tiny_model.num_layers):
            covered = set(plan.tuning_experts[layer]) | set(plan.preserved_frozen[layer])
            for cluster in plan.clusters[layer]:
                covered |= set(cluster)
            assert covered == set(range(tiny_model.experts_per_layer()[layer]))

    def test_plan_respects_preserved_frozen(self, tiny_model, profile):
        plan = plan_compact_model(tiny_model, {0: [0]}, profile, max_non_tuning_slots=4,
                                  preserved_frozen={0: [1], 1: [3]})
        assert plan.preserved_frozen[0] == [1]
        assert 1 not in [e for c in plan.clusters[0] for e in c]

    def test_plan_counts(self, tiny_model, profile):
        plan = plan_compact_model(tiny_model, {0: [0, 1], 1: [0]}, profile, max_non_tuning_slots=4)
        assert plan.num_local_experts() >= 3
        assert plan.num_merged_inputs() == sum(
            len(c) for layer in plan.clusters for c in layer)


class TestBuildCompactModel:
    def test_compact_model_runs_and_has_fewer_experts(self, tiny_model, profile, gsm_batches):
        plan = plan_compact_model(tiny_model, {0: [0], 1: [1]}, profile, max_non_tuning_slots=2)
        compact, tuning_slots, frozen_slots = build_compact_model(
            MoETransformer.copy_of(tiny_model), plan, profile)
        assert sum(compact.local_experts_per_layer()) < sum(tiny_model.local_experts_per_layer())
        batch = gsm_batches[0]
        loss = compact.compute_loss(batch.input_ids, labels=batch.labels,
                                    attention_mask=batch.attention_mask)
        assert np.isfinite(loss.item())

    def test_tuning_slot_mapping_points_to_original_weights(self, tiny_model, profile):
        plan = plan_compact_model(tiny_model, {0: [2], 1: [3]}, profile, max_non_tuning_slots=2)
        compact, tuning_slots, _ = build_compact_model(
            MoETransformer.copy_of(tiny_model), plan, profile)
        for (layer, slot), (_, original) in tuning_slots.items():
            assert np.allclose(compact.get_expert(layer, slot).weight_vector(),
                               tiny_model.get_expert(layer, original).weight_vector())

    def test_only_tuning_slots_are_trainable_targets(self, tiny_model, profile):
        plan = plan_compact_model(tiny_model, {0: [0], 1: [1]}, profile, max_non_tuning_slots=2,
                                  preserved_frozen={0: [1]})
        compact, tuning_slots, frozen_slots = build_compact_model(
            MoETransformer.copy_of(tiny_model), plan, profile)
        for key in frozen_slots:
            layer, slot = key
            assert all(not p.requires_grad for p in compact.get_expert(layer, slot).parameters())
        assert set(tuning_slots).isdisjoint(set(frozen_slots))

    def test_all_experts_tuning_keeps_model_identical(self, tiny_model, profile, gsm_batches):
        all_experts = {layer: list(range(count))
                       for layer, count in enumerate(tiny_model.experts_per_layer())}
        plan = plan_compact_model(tiny_model, all_experts, profile,
                                  max_non_tuning_slots=tiny_model.num_layers)
        compact, tuning_slots, _ = build_compact_model(
            MoETransformer.copy_of(tiny_model), plan, profile)
        assert len(tuning_slots) == sum(tiny_model.experts_per_layer())
        assert output_error(tiny_model, compact, gsm_batches[:1]) == pytest.approx(0.0, abs=1e-9)

    def test_merged_model_error_smaller_than_discarding(self, tiny_model, profile, gsm_batches):
        """Merging non-tuning experts hurts less than dropping them (the paper's Obs. 3)."""
        from repro.baselines import build_selected_model

        tuning = {0: [int(np.argmax(profile.frequencies[0]))],
                  1: [int(np.argmax(profile.frequencies[1]))]}
        plan = plan_compact_model(tiny_model, tuning, profile, max_non_tuning_slots=2)
        merged, _, _ = build_compact_model(
            MoETransformer.copy_of(tiny_model), plan, profile)
        selected_keys = [(layer, experts[0]) for layer, experts in tuning.items()]
        dropped, _ = build_selected_model(MoETransformer.copy_of(tiny_model), selected_keys)
        merged_error = output_error(tiny_model, merged, gsm_batches[:2])
        dropped_error = output_error(tiny_model, dropped, gsm_batches[:2])
        assert merged_error < dropped_error

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_clones_built_without_drawing_equal_the_drawn_ones(self, vocab, gsm_batches,
                                                               monkeypatch, dtype):
        """quantize_model, copy_of and spare experts allocate; drawing instead changes nothing."""
        import repro.models.experts as experts
        from repro.models import tiny_moe
        from repro.quantization import quantize_model

        model = MoETransformer(tiny_moe(vocab_size=vocab.size, dtype=dtype))
        profile = profile_activation(model, gsm_batches)
        plan = plan_compact_model(model, {0: [0], 1: [1]}, profile, max_non_tuning_slots=3,
                                  preserved_frozen={0: [2]})

        def build():
            compact, tuning_slots, frozen_slots = build_compact_model(
                MoETransformer.copy_of(model), plan, profile)
            return quantize_model(model, 4), compact, tuning_slots, frozen_slots

        allocated = build()
        monkeypatch.setattr(MoETransformer, "allocate", classmethod(lambda cls, c: cls(c)))
        monkeypatch.setattr(experts, "AllocationOnlyGenerator", np.random.Generator)
        drawn = build()

        assert allocated[2:] == drawn[2:]
        batch = gsm_batches[0]
        for mine, theirs in zip(allocated[:2], drawn[:2]):
            mine_state, their_state = mine.state_dict(), theirs.state_dict()
            assert list(mine_state) == list(their_state)
            for name, value in mine_state.items():
                assert value.dtype == their_state[name].dtype
                assert np.array_equal(value, their_state[name]), name
            assert np.array_equal(
                mine(batch.input_ids, attention_mask=batch.attention_mask).data,
                theirs(batch.input_ids, attention_mask=batch.attention_mask).data)
