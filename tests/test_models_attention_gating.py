"""Tests for the attention layer and the top-k gating network."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.models import GatingNetwork, MultiHeadSelfAttention, RoutingRecord, causal_mask


class TestCausalMask:
    def test_lower_triangular(self):
        mask = causal_mask(4)
        assert mask.shape == (4, 4)
        assert mask[0, 0] and not mask[0, 1]
        assert mask[3].all()

    def test_diagonal_always_allowed(self):
        mask = causal_mask(6)
        assert np.all(np.diag(mask))


    def test_one_read_only_mask_per_length(self):
        mask = causal_mask(5)
        assert causal_mask(5) is mask and causal_mask(6) is not mask
        assert np.array_equal(mask, np.tril(np.ones((5, 5), dtype=bool)))
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 1] = True


class TestMultiHeadSelfAttention:
    def _layer(self, d_model=16, n_heads=4):
        return MultiHeadSelfAttention(d_model, n_heads, rng=np.random.default_rng(0))

    def test_output_shape(self):
        attn = self._layer()
        x = Tensor(np.random.default_rng(0).standard_normal((2, 5, 16)))
        assert attn(x).shape == (2, 5, 16)

    def test_invalid_head_count_rejected(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)

    def test_records_token_attention(self):
        attn = self._layer()
        x = Tensor(np.random.default_rng(1).standard_normal((2, 6, 16)))
        attn(x)
        received = attn.last_token_attention
        assert received.shape == (2, 6)
        assert np.all(received >= 0)

    def test_padding_mask_zeroes_attention_received(self):
        attn = self._layer()
        x = Tensor(np.random.default_rng(2).standard_normal((1, 5, 16)))
        mask = np.array([[True, True, True, False, False]])
        attn(x, attention_mask=mask)
        received = attn.last_token_attention
        assert np.allclose(received[0, 3:], 0.0)
        assert received[0, 0] > 0

    def test_padding_queries_count_toward_no_score(self):
        """Real tokens' attention received is an average over real queries only:
        what sits in the padding rows cannot move it."""
        attn = self._layer()
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 6, 16))
        mask = np.array([[True] * 6, [True] * 3 + [False] * 3])
        attn(Tensor(x), attention_mask=mask)
        before = attn.last_token_attention.copy()
        x[1, 3:] = rng.standard_normal((3, 16)) * 10.0
        attn(Tensor(x), attention_mask=mask)
        assert np.array_equal(attn.last_token_attention, before)
        # the padded row alone: token 0 is seen by queries 0-2, each averaging to 1 over keys
        attn(Tensor(x[1:, :3]))
        assert np.allclose(attn.last_token_attention[0], before[1, :3], rtol=1e-12)

    def test_causality_first_token_independent_of_future(self):
        attn = self._layer()
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal((1, 4, 16))
        x2 = x1.copy()
        x2[0, 2:] += 10.0  # change the future
        out1 = attn(Tensor(x1)).data
        out2 = attn(Tensor(x2)).data
        assert np.allclose(out1[0, 0], out2[0, 0], atol=1e-8)
        assert not np.allclose(out1[0, 3], out2[0, 3])

    def test_gradients_flow_through_attention(self):
        attn = self._layer()
        x = Tensor(np.random.default_rng(4).standard_normal((2, 4, 16)), requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None
        assert attn.q_proj.weight.grad is not None


class TestGatingNetwork:
    def _gate(self, num_experts=6, top_k=2):
        return GatingNetwork(8, num_experts, top_k, rng=np.random.default_rng(0))

    def test_topk_shapes(self):
        gate = self._gate()
        x = Tensor(np.random.default_rng(0).standard_normal((10, 8)))
        idx, weights, probs = gate(x)
        assert idx.shape == (10, 2)
        assert weights.shape == (10, 2)
        assert probs.shape == (10, 6)

    def test_topk_indices_valid_and_distinct(self):
        gate = self._gate()
        x = Tensor(np.random.default_rng(1).standard_normal((32, 8)))
        idx, _, _ = gate(x)
        assert idx.min() >= 0 and idx.max() < 6
        assert all(len(set(row)) == len(row) for row in idx)

    def test_topk_weights_normalised(self):
        gate = self._gate()
        x = Tensor(np.random.default_rng(2).standard_normal((16, 8)))
        _, weights, _ = gate(x)
        assert np.allclose(weights.data.sum(axis=-1), 1.0)

    def test_top_indices_are_highest_probability(self):
        gate = self._gate()
        x = Tensor(np.random.default_rng(3).standard_normal((8, 8)))
        idx, _, probs = gate(x)
        for row in range(8):
            top_probs = probs[row, idx[row]]
            assert np.all(top_probs >= np.sort(probs[row])[-2] - 1e-12)

    def test_top_k_cannot_exceed_experts(self):
        with pytest.raises(ValueError):
            GatingNetwork(8, 2, 3)

    def test_gradient_flows_to_gate_projection(self):
        gate = self._gate()
        x = Tensor(np.random.default_rng(4).standard_normal((4, 8)), requires_grad=True)
        _, weights, _ = gate(x)
        weights.sum().backward()
        assert gate.proj.weight.grad is not None

    def test_noise_only_in_training_mode(self):
        gate = GatingNetwork(8, 4, 1, noise_std=5.0, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(5).standard_normal((4, 8)))
        gate.eval()
        idx_a, _, _ = gate(x)
        idx_b, _, _ = gate(x)
        assert np.array_equal(idx_a, idx_b)


class TestRoutingRecord:
    def test_empty_record(self):
        record = RoutingRecord.empty(4)
        assert np.allclose(record.activation_frequency(), 0.0)
        assert record.total_tokens == 0

    def test_activation_frequency_sums_to_one(self):
        record = RoutingRecord.empty(3)
        record.token_counts = np.array([2, 6, 2])
        freq = record.activation_frequency()
        assert np.allclose(freq.sum(), 1.0)
        assert freq[1] == pytest.approx(0.6)

    def test_average_attention_handles_zero_counts(self):
        record = RoutingRecord.empty(2)
        record.attention_sums = np.array([1.0, 0.0])
        record.token_counts = np.array([4, 0])
        avg = record.average_attention()
        assert avg[0] == pytest.approx(0.25)
        assert avg[1] == 0.0

    def test_merge_accumulates(self):
        a = RoutingRecord.empty(2)
        a.token_counts = np.array([1, 2])
        a.total_tokens = 3
        a.sample_ids[0].add(7)
        b = RoutingRecord.empty(2)
        b.token_counts = np.array([3, 1])
        b.total_tokens = 4
        b.sample_ids[0].add(9)
        a.merge(b)
        assert a.token_counts.tolist() == [4, 3]
        assert a.total_tokens == 7
        assert a.sample_ids[0] == {7, 9}

    def test_merge_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError):
            RoutingRecord.empty(2).merge(RoutingRecord.empty(3))
