"""Tests for the LoRA expert adapters and the differential-privacy upload hook."""

import dataclasses

import numpy as np
import pytest

from repro.autograd import Adam, Linear, Tensor
from repro.federated import ExpertUpdate, GaussianMechanism, epsilon_estimate
from repro.models import LoRALinear, MoETransformer, apply_lora_to_experts, lora_parameter_savings


class TestLoRALinear:
    def _layer(self, rank=2):
        base = Linear(8, 6, rng=np.random.default_rng(0))
        return LoRALinear(base, rank=rank, alpha=4.0, rng=np.random.default_rng(1))

    def test_initial_output_matches_base(self):
        layer = self._layer()
        x = Tensor(np.random.default_rng(2).standard_normal((5, 8)))
        assert np.allclose(layer(x).data, layer.base(x).data)

    def test_base_weights_frozen_adapters_trainable(self):
        layer = self._layer()
        trainable = [name for name, p in layer.named_parameters() if p.requires_grad]
        assert set(trainable) == {"lora_a", "lora_b"}

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            LoRALinear(Linear(4, 4), rank=0)

    def test_training_moves_only_adapters(self):
        layer = self._layer()
        base_before = layer.base.weight.data.copy()
        optimizer = Adam([p for p in layer.parameters() if p.requires_grad], lr=0.05)
        x = Tensor(np.random.default_rng(3).standard_normal((16, 8)))
        target = np.random.default_rng(4).standard_normal((16, 6))
        for _ in range(20):
            optimizer.zero_grad()
            loss = ((layer(x) + Tensor(-target)) ** 2).mean()
            loss.backward()
            optimizer.step()
        assert np.allclose(layer.base.weight.data, base_before)
        assert np.abs(layer.lora_b.data).sum() > 0


class TestLoRAExpert:
    def test_wrapping_preserves_output_initially(self, tiny_config, gsm_batches):
        # float64: atol=1e-9 is below float32 rounding of the wrapped sum
        model = MoETransformer(dataclasses.replace(tiny_config, dtype="float64"))
        batch = gsm_batches[0]
        before = model.forward(batch.input_ids, attention_mask=batch.attention_mask).data
        apply_lora_to_experts(model, rank=2, seed=0)
        after = model.forward(batch.input_ids, attention_mask=batch.attention_mask).data
        assert np.allclose(before, after, atol=1e-9)

    def test_parameter_savings_fraction(self, tiny_model):
        savings = lora_parameter_savings(tiny_model, rank=2)
        assert 0.0 < savings < 1.0

    def test_adapter_parameter_count_is_small(self, tiny_model, tiny_config):
        """Only the adapters train: rank x (in + out) per projection, three projections."""
        expert = apply_lora_to_experts(tiny_model, expert_keys=[(0, 1)], rank=2, seed=1)[(0, 1)]
        adapters = 3 * 2 * (tiny_config.d_model + tiny_config.d_ff)
        assert expert.num_parameters(trainable_only=True) == adapters
        assert sum(value.size for value in expert.adapter_state().values()) == adapters
        assert expert.num_parameters() == adapters + tiny_config.expert_parameter_count()

    def test_adapter_state_copies_every_adapter(self, tiny_model):
        """What a participant uploads: each projection's two adapters, by value."""
        wrapped = apply_lora_to_experts(tiny_model, expert_keys=[(0, 1)], rank=2, seed=1)
        expert = wrapped[(0, 1)]
        expert.w_gate.lora_b.data[...] = 0.5
        state = expert.adapter_state()
        assert set(state) == {f"{name}.lora_{ab}" for name in ("w_gate", "w_up", "w_down")
                              for ab in "ab"}
        assert np.allclose(state["w_gate.lora_b"], 0.5)
        expert.w_gate.lora_b.data[...] = 0.0
        assert np.allclose(state["w_gate.lora_b"], 0.5)

    def test_lora_expert_training_reduces_loss(self, tiny_model, gsm_batches):
        apply_lora_to_experts(tiny_model, rank=2, seed=3)
        params = [p for p in tiny_model.parameters() if p.requires_grad]
        assert params
        optimizer = Adam(params, lr=1e-2)
        batch = gsm_batches[0]
        first = None
        for _ in range(6):
            optimizer.zero_grad()
            loss = tiny_model.compute_loss(batch.input_ids, labels=batch.labels,
                                           attention_mask=batch.attention_mask)
            if first is None:
                first = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < first


class TestGaussianMechanism:
    def _state(self, scale=1.0):
        rng = np.random.default_rng(0)
        return {"w": rng.standard_normal((4, 4)) * scale, "b": rng.standard_normal(4) * scale}

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianMechanism(clip_norm=0.0)
        with pytest.raises(ValueError):
            GaussianMechanism(noise_multiplier=-1.0)

    def test_clipping_bounds_norm(self):
        mechanism = GaussianMechanism(clip_norm=1.0, noise_multiplier=0.0)
        state = self._state(scale=100.0)
        privatized = mechanism.privatize_state(state)
        norm = np.sqrt(sum((v ** 2).sum() for v in privatized.values()))
        assert norm <= 1.0 + 1e-9

    def test_small_updates_unchanged_without_noise(self):
        mechanism = GaussianMechanism(clip_norm=1e6, noise_multiplier=0.0)
        state = self._state()
        privatized = mechanism.privatize_state(state)
        for key in state:
            assert np.allclose(privatized[key], state[key])

    def test_noise_changes_values(self):
        mechanism = GaussianMechanism(clip_norm=1.0, noise_multiplier=1.0, seed=1)
        state = self._state()
        privatized = mechanism.privatize_state(state)
        assert not np.allclose(privatized["w"], state["w"])

    def test_reference_delta_mode(self):
        mechanism = GaussianMechanism(clip_norm=0.5, noise_multiplier=0.0)
        reference = self._state()
        state = {k: v + 10.0 for k, v in reference.items()}
        privatized = mechanism.privatize_state(state, reference=reference)
        delta_norm = np.sqrt(sum(((privatized[k] - reference[k]) ** 2).sum() for k in reference))
        assert delta_norm <= 0.5 + 1e-9

    def test_privatize_updates_preserves_metadata(self):
        mechanism = GaussianMechanism(clip_norm=1.0, noise_multiplier=0.1, seed=2)
        updates = [ExpertUpdate(3, 0, 1, self._state(), 7.0)]
        privatized = mechanism.privatize_updates(updates)
        assert privatized[0].participant_id == 3
        assert privatized[0].key == (0, 1)
        assert privatized[0].weight == 7.0

    def test_epsilon_estimate_behaviour(self):
        tight = epsilon_estimate(noise_multiplier=2.0, num_rounds=10)
        loose = epsilon_estimate(noise_multiplier=0.5, num_rounds=10)
        assert tight < loose
        assert epsilon_estimate(0.0, 10) == float("inf")
        with pytest.raises(ValueError):
            epsilon_estimate(1.0, 0)
        with pytest.raises(ValueError):
            epsilon_estimate(1.0, 10, sample_rate=2.0)
