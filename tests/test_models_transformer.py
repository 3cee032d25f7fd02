"""Tests for the MoE transformer LM: forward, loss, expert access, routing."""

import numpy as np
import pytest

from repro.autograd import Adam
from repro.models import MoEModelConfig, MoETransformer


@pytest.fixture()
def model(tiny_config):
    return MoETransformer(tiny_config)


@pytest.fixture()
def token_batch(tiny_config, rng):
    input_ids = np.random.default_rng(0).integers(0, tiny_config.vocab_size, size=(3, 12))
    mask = np.ones((3, 12), dtype=bool)
    mask[0, 9:] = False
    return input_ids, mask


class TestForward:
    def test_logit_shape(self, model, token_batch, tiny_config):
        input_ids, mask = token_batch
        logits = model(input_ids, attention_mask=mask)
        assert logits.shape == (3, 12, tiny_config.vocab_size)

    def test_single_sequence_promoted_to_batch(self, model, tiny_config):
        ids = np.arange(8) % tiny_config.vocab_size
        assert model(ids).shape == (1, 8, tiny_config.vocab_size)

    def test_sequence_length_limit(self, model, tiny_config):
        too_long = np.zeros((1, tiny_config.max_seq_len + 1), dtype=np.int64)
        with pytest.raises(ValueError):
            model(too_long)

    def test_untied_lm_head(self, tiny_config):
        config = MoEModelConfig(**{**tiny_config.__dict__, "tie_embeddings": False})
        model = MoETransformer(config)
        assert model.lm_head is not None
        ids = np.zeros((1, 4), dtype=np.int64)
        assert model(ids).shape == (1, 4, config.vocab_size)

    def test_forward_hidden_shape(self, model, token_batch, tiny_config):
        input_ids, mask = token_batch
        hidden = model.forward_hidden(input_ids, attention_mask=mask)
        assert hidden.shape == (3, 12, tiny_config.d_model)

    def test_greedy_generate_appends_tokens(self, model):
        prompt = np.array([1, 2, 3])
        out = model.greedy_generate(prompt, max_new_tokens=5)
        assert out.shape == (8,)
        assert np.array_equal(out[:3], prompt)


class TestLoss:
    def test_loss_is_scalar_and_positive(self, model, token_batch):
        input_ids, mask = token_batch
        loss = model.compute_loss(input_ids, attention_mask=mask)
        assert loss.size == 1
        assert loss.item() > 0

    def test_loss_with_explicit_labels(self, model, token_batch):
        input_ids, mask = token_batch
        labels = np.full_like(input_ids, -100)
        labels[:, 0] = input_ids[:, 1]
        loss = model.compute_loss(input_ids, labels=labels, attention_mask=mask)
        assert np.isfinite(loss.item())

    def test_expert_only_training_reduces_loss(self, model, token_batch):
        input_ids, mask = token_batch
        model.freeze_non_expert_parameters()
        params = [p for p in model.parameters() if p.requires_grad]
        optimizer = Adam(params, lr=1e-2)
        initial = None
        for _ in range(8):
            optimizer.zero_grad()
            loss = model.compute_loss(input_ids, attention_mask=mask)
            if initial is None:
                initial = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < initial

    def test_non_expert_parameters_receive_no_gradient_when_frozen(self, model, token_batch):
        input_ids, mask = token_batch
        model.freeze_non_expert_parameters()
        loss = model.compute_loss(input_ids, attention_mask=mask)
        loss.backward()
        assert model.token_embedding.weight.grad is None
        for block in model.blocks:
            assert block.attn.q_proj.weight.grad is None


class TestExpertAccess:
    def test_iter_expert_ids_counts(self, model, tiny_config):
        keys = list(model.iter_expert_ids())
        assert len(keys) == tiny_config.total_experts

    def test_expert_state_roundtrip(self, model):
        state = model.expert_state(0, 1)
        state = {k: v * 0.0 for k, v in state.items()}
        model.load_expert_state(0, 1, state)
        assert np.allclose(model.get_expert(0, 1).w_gate.weight.data, 0.0)

    def test_set_expert_trainable(self, model):
        model.freeze_non_expert_parameters()
        model.set_expert_trainable(0, 0, False)
        assert all(not p.requires_grad for p in model.get_expert(0, 0).parameters())
        model.set_expert_trainable(0, 0, True)
        assert all(p.requires_grad for p in model.get_expert(0, 0).parameters())

    def test_parameter_breakdown_sums(self, model):
        breakdown = model.parameter_breakdown()
        assert breakdown["total"] == breakdown["experts"] + breakdown["non_expert"]
        assert breakdown["experts"] > breakdown["non_expert"]


class TestRoutingRecords:
    def test_records_available_after_forward(self, model, token_batch):
        input_ids, mask = token_batch
        model(input_ids, attention_mask=mask, sample_ids=np.array([5, 6, 7]))
        records = model.routing_records()
        assert len(records) == model.num_layers
        assert all(record.total_tokens > 0 for record in records)

    def test_activation_frequencies_are_distributions(self, model, token_batch):
        input_ids, mask = token_batch
        model(input_ids, attention_mask=mask)
        for freq in model.activation_frequencies():
            assert freq.shape[0] == model.experts_per_layer()[0]
            assert freq.sum() == pytest.approx(1.0)

    def test_accumulated_records(self, model, token_batch):
        input_ids, mask = token_batch
        model.set_routing_accumulation(True)
        model(input_ids, attention_mask=mask)
        model(input_ids, attention_mask=mask)
        accumulated = model.routing_records(accumulated=True)
        single = model.routing_records(accumulated=False)
        assert accumulated[0].total_tokens == 2 * single[0].total_tokens
        model.set_routing_accumulation(False)

    def test_empty_records_before_any_forward(self, tiny_config):
        fresh = MoETransformer(tiny_config)
        records = fresh.routing_records()
        assert all(record.total_tokens == 0 for record in records)


class TestDeterminism:
    def test_same_seed_same_parameters(self, tiny_config):
        a = MoETransformer(tiny_config)
        b = MoETransformer(tiny_config)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.allclose(pa.data, pb.data)

    def test_forward_is_deterministic(self, model, token_batch):
        input_ids, mask = token_batch
        out1 = model(input_ids, attention_mask=mask).data
        out2 = model(input_ids, attention_mask=mask).data
        assert np.allclose(out1, out2)


class TestAllocateWithoutDrawing:
    """``MoETransformer.allocate``: the tree of ``MoETransformer(config)``, no weights drawn."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_same_tree_as_the_constructor(self, tiny_config, dtype):
        from dataclasses import replace

        config = replace(tiny_config, dtype=dtype, num_shared_experts=1, tie_embeddings=False)
        built, allocated = MoETransformer(config), MoETransformer.allocate(config)
        assert allocated.config is config and allocated.training
        assert [name for name, _ in allocated.named_modules()] == \
            [name for name, _ in built.named_modules()]
        for (name, want), (other, got) in zip(built.named_parameters(),
                                              allocated.named_parameters()):
            assert name == other
            assert (got.data.shape, got.data.dtype, got.requires_grad) == \
                (want.data.shape, want.data.dtype, want.requires_grad), name

    def test_no_draw_and_no_constructor_call(self, tiny_config, monkeypatch):
        monkeypatch.setattr(MoETransformer, "__init__",
                            lambda self, config: pytest.fail("allocate must not draw weights"))
        allocated = MoETransformer.allocate(tiny_config)
        untouched = np.random.default_rng(tiny_config.seed).bit_generator.state
        for block in allocated.blocks:
            assert block.dropout._rng.bit_generator.state == untouched
            assert block.moe.gate._rng is block.dropout._rng

    def test_loaded_clone_computes_bit_identically(self, model, tiny_config, token_batch):
        input_ids, mask = token_batch
        clone = MoETransformer.allocate(tiny_config)
        clone.load_state_dict(model.state_dict())
        assert np.array_equal(clone(input_ids, attention_mask=mask).data,
                              model(input_ids, attention_mask=mask).data)
        loss, clone_loss = (m.compute_loss(input_ids, attention_mask=mask) for m in (model, clone))
        loss.backward()
        clone_loss.backward()
        for (name, want), (_, got) in zip(model.named_parameters(), clone.named_parameters()):
            assert (want.grad is None) == (got.grad is None), name
            if want.grad is not None:
                assert np.array_equal(want.grad, got.grad), name

    def test_dropout_of_a_clone_still_draws_real_noise(self, tiny_config, token_batch):
        from dataclasses import replace

        input_ids, mask = token_batch
        config = replace(tiny_config, dropout=0.5, gate_noise_std=0.1)
        clone = MoETransformer.allocate(config)
        clone.load_state_dict(MoETransformer(config).state_dict())
        first = clone(input_ids, attention_mask=mask).data
        second = clone(input_ids, attention_mask=mask).data
        assert np.isfinite(first).all() and not np.array_equal(first, second)
