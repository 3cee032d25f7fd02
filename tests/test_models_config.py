"""Tests for model configuration and full-scale architecture descriptors."""

import pytest

from repro.models import (
    ARCHITECTURE_DESCRIPTORS,
    MoEModelConfig,
    MoETransformer,
    get_preset,
    table1_rows,
)
from repro.models.presets import deepseek_moe_mini, llama_moe_mini, tiny_moe


class TestMoEModelConfig:
    def test_defaults_are_valid(self):
        config = MoEModelConfig()
        assert config.experts_per_layer() == [8, 8, 8, 8]

    def test_per_layer_expert_list(self):
        config = MoEModelConfig(n_layers=3, num_experts=[2, 4, 8])
        assert config.experts_per_layer() == [2, 4, 8]
        assert config.total_experts == 14

    def test_per_layer_list_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            MoEModelConfig(n_layers=3, num_experts=[2, 4])

    def test_d_model_head_divisibility(self):
        with pytest.raises(ValueError):
            MoEModelConfig(d_model=30, n_heads=4)

    def test_top_k_cannot_exceed_experts(self):
        with pytest.raises(ValueError):
            MoEModelConfig(num_experts=2, top_k=3)

    def test_top_k_checked_per_layer(self):
        with pytest.raises(ValueError):
            MoEModelConfig(n_layers=2, num_experts=[8, 1], top_k=2)

    def test_zero_experts_rejected(self):
        with pytest.raises(ValueError):
            MoEModelConfig(n_layers=2, num_experts=[4, 0])

    def test_with_experts_returns_new_config(self):
        config = MoEModelConfig()
        custom = config.with_experts([2, 2, 2, 2])
        assert custom.experts_per_layer() == [2, 2, 2, 2]
        assert config.experts_per_layer() == [8, 8, 8, 8]

    def test_expert_parameter_count(self):
        config = MoEModelConfig(d_model=32, d_ff=64)
        assert config.expert_parameter_count() == 3 * 32 * 64

    def test_activation_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            MoEModelConfig(activation="silu")

    def test_head_dim(self):
        assert MoEModelConfig(d_model=32, n_heads=4).head_dim == 8


class TestPresets:
    def test_llama_mini_shape(self):
        config = llama_moe_mini()
        assert config.num_shared_experts == 0
        assert config.top_k == 2

    def test_deepseek_mini_has_shared_expert(self):
        config = deepseek_moe_mini()
        assert config.num_shared_experts == 1
        assert config.experts_per_layer()[0] == 16

    def test_tiny_preset_trainable_size(self):
        assert MoETransformer(tiny_moe()).num_parameters() < 100_000

    def test_get_preset_lookup(self):
        assert get_preset("tiny-moe").name == "tiny-moe"
        with pytest.raises(KeyError):
            get_preset("gpt-5")

    def test_preset_kwargs_forwarded(self):
        config = get_preset("llama-moe-mini", num_experts=4, n_layers=2)
        assert config.experts_per_layer() == [4, 4]


class TestArchitectureDescriptors:
    def test_table1_contains_all_five_models(self):
        rows = table1_rows()
        assert len(rows) == 5
        names = {row["model"] for row in rows}
        assert "LLaMA-MoE" in names and "Qwen2-MoE" in names

    def test_llama_moe_row_matches_paper(self):
        row = ARCHITECTURE_DESCRIPTORS["llama-moe"].row()
        assert row["layers"] == 32
        assert row["experts"] == 16
        assert row["params_B"] == pytest.approx(6.7, abs=0.1)
        assert row["size_GB"] == pytest.approx(13.48, abs=1.0)

    def test_deepseek_row_matches_paper(self):
        row = ARCHITECTURE_DESCRIPTORS["deepseek-moe"].row()
        assert row["layers"] == 28
        assert row["experts"] == 64
        assert row["size_GB"] == pytest.approx(32.77, abs=2.5)

    def test_sizes_monotonic_in_params(self):
        rows = sorted(table1_rows(), key=lambda r: r["params_B"])
        sizes = [r["size_GB"] for r in rows]
        assert sizes == sorted(sizes)
