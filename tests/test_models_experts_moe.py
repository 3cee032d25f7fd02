"""Tests for expert FFNs, the MoE layer and expert re-routing."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.models import ExpertFFN, ExpertRemap, GroupedRouting, MoELayer


def make_expert(seed=0, d_model=8, d_ff=16):
    return ExpertFFN(d_model, d_ff, rng=np.random.default_rng(seed))


class TestExpertFFN:
    def test_forward_shape(self):
        expert = make_expert()
        out = expert(Tensor(np.zeros((5, 8))))
        assert out.shape == (5, 8)

    def test_weight_vector_roundtrip(self):
        expert = make_expert(1)
        vector = expert.weight_vector()
        other = make_expert(2)
        other.load_weight_vector(vector)
        assert np.allclose(other.weight_vector(), vector)

    def test_load_weight_vector_validates_size(self):
        expert = make_expert()
        with pytest.raises(ValueError):
            expert.load_weight_vector(np.zeros(3))

    def test_state_roundtrip(self):
        expert = make_expert(3)
        state = expert.state()
        other = make_expert(4)
        other.load_state(state)
        x = Tensor(np.random.default_rng(0).standard_normal((3, 8)))
        assert np.allclose(expert(x).data, other(x).data)

    def test_forward_is_silu_gated(self):
        expert = ExpertFFN(4, 8, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 4))
        gate = x @ expert.w_gate.weight.data.T
        hidden = gate / (1.0 + np.exp(-gate)) * (x @ expert.w_up.weight.data.T)
        assert np.allclose(expert(Tensor(x)).data, hidden @ expert.w_down.weight.data.T)

    def test_activation_is_not_an_expert_argument(self):
        with pytest.raises(TypeError):
            ExpertFFN(4, 8, activation="gelu")

    def test_merge_weighted_average(self):
        a, b = make_expert(1), make_expert(2)
        merged = ExpertFFN.merge([a, b], [3.0, 1.0], d_model=8, d_ff=16)
        expected = 0.75 * a.w_gate.weight.data + 0.25 * b.w_gate.weight.data
        assert np.allclose(merged.w_gate.weight.data, expected)

    def test_merge_single_expert_is_identity(self):
        a = make_expert(5)
        merged = ExpertFFN.merge([a], [1.0], d_model=8, d_ff=16)
        assert np.allclose(merged.weight_vector(), a.weight_vector())

    def test_merge_zero_weights_falls_back_to_uniform(self):
        a, b = make_expert(1), make_expert(2)
        merged = ExpertFFN.merge([a, b], [0.0, 0.0], d_model=8, d_ff=16)
        expected = 0.5 * (a.w_up.weight.data + b.w_up.weight.data)
        assert np.allclose(merged.w_up.weight.data, expected)

    def test_merge_validations(self):
        a = make_expert(0)
        with pytest.raises(ValueError):
            ExpertFFN.merge([], [], d_model=8, d_ff=16)
        with pytest.raises(ValueError):
            ExpertFFN.merge([a], [1.0, 2.0], d_model=8, d_ff=16)
        with pytest.raises(ValueError):
            ExpertFFN.merge([a], [-1.0], d_model=8, d_ff=16)


class TestExpertRemap:
    def test_identity(self):
        remap = ExpertRemap.identity(4)
        assert remap.is_identity()
        assert remap[3] == 3

    def test_update_and_apply(self):
        remap = ExpertRemap(4, {2: 0, 3: 1})
        assert remap.apply(np.array([0, 2, 3])).tolist() == [0, 0, 1]
        assert remap.num_slots() == 2  # slots 0 and 1 (ids 0,1 map to 0,1 already)

    def test_out_of_range_rejected(self):
        with pytest.raises(KeyError):
            ExpertRemap(2, {5: 0})
        with pytest.raises(ValueError):
            ExpertRemap(2, {0: -1})

    def test_from_clusters(self):
        remap, tuning, clusters = ExpertRemap.from_clusters(
            6, tuning_experts=[0, 3], clusters=[[1, 2], [4, 5]])
        assert tuning == [0, 3]
        assert remap[0] == 0 and remap[3] == 1
        assert remap[1] == remap[2] == 2
        assert remap[4] == remap[5] == 3

    def test_from_clusters_requires_full_coverage(self):
        with pytest.raises(ValueError):
            ExpertRemap.from_clusters(4, tuning_experts=[0], clusters=[[1]])

    def test_from_clusters_rejects_double_assignment(self):
        with pytest.raises(ValueError):
            ExpertRemap.from_clusters(3, tuning_experts=[0, 1], clusters=[[1, 2]])


class TestMoELayer:
    def _layer(self, num_experts=4, top_k=2, shared=0):
        return MoELayer(d_model=8, d_ff=16, num_experts=num_experts, top_k=top_k,
                        num_shared_experts=shared, rng=np.random.default_rng(0))

    def _input(self, batch=2, seq=5, d_model=8, seed=0):
        return Tensor(np.random.default_rng(seed).standard_normal((batch, seq, d_model)))

    def test_forward_shape(self):
        layer = self._layer()
        assert layer(self._input()).shape == (2, 5, 8)

    def test_routing_record_counts(self):
        layer = self._layer()
        layer(self._input())
        record = layer.last_routing
        assert record.total_tokens == 10
        assert record.token_counts.sum() == 10 * layer.top_k

    def test_sample_ids_recorded(self):
        layer = self._layer()
        layer(self._input(), sample_ids=np.array([11, 22]))
        all_samples = set().union(*layer.last_routing.sample_ids)
        assert all_samples <= {11, 22}
        assert all_samples  # at least one expert saw a sample

    @pytest.mark.parametrize("sample_ids", [[11, 22], [3, 3], [0, 4000]],
                             ids=["dense-keys", "one-sample", "sparse-keys"])
    def test_sample_sets_equal_the_pair_by_pair_walk(self, sample_ids):
        layer = self._layer()
        mask = np.ones((2, 5), dtype=bool)
        mask[1, 2:] = False
        layer(self._input(), sample_ids=np.array(sample_ids), token_mask=mask)
        top_idx, _, _ = layer.gate(Tensor(self._input().data.reshape(10, 8)), with_probs=False)
        want = [set() for _ in range(layer.num_original_experts)]
        for token in np.flatnonzero(mask.reshape(-1)):
            for expert in top_idx[token]:
                want[int(expert)].add(sample_ids[token // 5])
        assert layer.last_routing.sample_ids == want
        assert all(type(sample) is int
                   for samples in layer.last_routing.sample_ids for sample in samples)

    def test_accumulation_across_passes(self):
        """A one-group ``routing_groups`` sums the passes it sees, which leave no ``last_routing``."""
        layer = self._layer()
        layer(self._input(seed=1))
        first = layer.last_routing
        layer(self._input(seed=2))
        second = layer.last_routing
        grouped = layer.routing_groups = GroupedRouting(1, layer.num_original_experts)
        grouped.rows = np.zeros(2, dtype=np.int64)
        layer(self._input(seed=1))
        layer(self._input(seed=2))
        layer.routing_groups = None
        total = grouped.record(0)
        assert total.total_tokens == 20
        assert np.array_equal(total.token_counts, first.token_counts + second.token_counts)
        assert np.allclose(total.gate_weight_sums,
                           first.gate_weight_sums + second.gate_weight_sums)
        assert layer.last_routing is None

    def test_grouped_routing_keeps_groups_apart(self):
        """Each group's record equals a pass over that group's rows alone."""
        layer = self._layer()
        x = self._input(batch=3)
        grouped = layer.routing_groups = GroupedRouting(2, layer.num_original_experts)
        grouped.rows = np.array([1, 0, 1])
        layer(x, sample_ids=np.array([7, 8, 9]))
        layer.routing_groups = None
        for group, rows in ((0, [1]), (1, [0, 2])):
            layer(Tensor(x.data[rows]), sample_ids=np.array([7, 8, 9])[rows])
            alone = layer.last_routing
            record = grouped.record(group)
            assert record.total_tokens == alone.total_tokens
            assert np.array_equal(record.token_counts, alone.token_counts)
            assert np.allclose(record.gate_weight_sums, alone.gate_weight_sums)
            assert record.sample_ids == alone.sample_ids

    def test_token_mask_excludes_padding_from_stats(self):
        layer = self._layer()
        mask = np.ones((2, 5), dtype=bool)
        mask[:, 3:] = False
        layer(self._input(), token_mask=mask)
        assert layer.last_routing.total_tokens == 6

    def test_shared_experts_always_applied(self):
        layer = self._layer(shared=1)
        with_shared = layer(self._input()).data
        layer.shared_experts[0].w_down.weight.data[...] = 0.0
        without_shared = layer(self._input()).data
        assert not np.allclose(with_shared, without_shared)

    def test_compact_experts_with_identity_remap_equivalent(self):
        layer = self._layer()
        x = self._input(seed=3)
        baseline = layer(x).data
        clones = []
        for expert in layer.experts:
            clone = ExpertFFN(8, 16)
            clone.load_state(expert.state())
            clones.append(clone)
        layer.set_compact_experts(clones, ExpertRemap.identity(4))
        assert np.allclose(layer(x).data, baseline)

    def test_compact_experts_merged_slots(self):
        layer = self._layer()
        x = self._input(seed=4)
        remap, _, _ = ExpertRemap.from_clusters(4, tuning_experts=[0], clusters=[[1, 2, 3]])
        kept = ExpertFFN(8, 16)
        kept.load_state(layer.experts[0].state())
        merged = ExpertFFN.merge([layer.experts[i] for i in (1, 2, 3)], [1, 1, 1],
                                 d_model=8, d_ff=16)
        layer.set_compact_experts([kept, merged], remap)
        out = layer(x)
        assert out.shape == (2, 5, 8)
        assert layer.num_local_experts == 2
        # routing statistics remain in original coordinates
        assert layer.last_routing.num_experts == 4

    def test_set_compact_experts_validates_slots(self):
        layer = self._layer()
        remap = ExpertRemap(4, {3: 5})
        with pytest.raises(ValueError):
            layer.set_compact_experts([ExpertFFN(8, 16)], remap)

    @pytest.mark.parametrize("d_model, d_ff", [(8, 12), (6, 16)])
    def test_set_compact_experts_rejects_other_dims(self, d_model, d_ff):
        layer = self._layer()
        experts = list(layer.experts)
        experts[2] = ExpertFFN(d_model, d_ff)
        with pytest.raises(ValueError, match="d_model, d_ff"):
            layer.set_compact_experts(experts, ExpertRemap.identity(4))
        assert layer.experts[2] is not experts[2]          # the layer is left as it was

    def test_gradients_reach_selected_experts_only(self):
        layer = self._layer()
        x = self._input(seed=5)
        out = layer(x)
        out.sum().backward()
        touched = [any(p.grad is not None for p in expert.parameters())
                   for expert in layer.experts]
        record = layer.last_routing
        for expert_idx, was_touched in enumerate(touched):
            if record.token_counts[expert_idx] > 0:
                assert was_touched
            else:
                assert not was_touched

    def test_expert_weight_matrix_shape(self):
        layer = self._layer()
        matrix = layer.expert_weight_matrix()
        assert matrix.shape[0] == 4
        assert matrix.shape[1] == layer.experts[0].weight_vector().size
