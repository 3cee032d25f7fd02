"""Tests for customized MoE construction and checkpoint save/load APIs."""

import json
import os

import numpy as np
import pytest

from repro.models import (
    MoETransformer,
    customized_moe,
    load_checkpoint,
    load_model,
    resolve_exps_config,
    save_checkpoint,
    tiny_moe,
)


class TestResolveExpsConfig:
    def test_int_broadcasts(self):
        assert resolve_exps_config(3, 4, [8, 8, 8, 8]) == [3, 3, 3, 3]

    def test_list_passthrough(self):
        assert resolve_exps_config([1, 2, 3], 3, [8, 8, 8]) == [1, 2, 3]

    def test_list_wrong_length(self):
        with pytest.raises(ValueError):
            resolve_exps_config([1, 2], 3, [8, 8, 8])

    def test_dict_overrides_defaults(self):
        assert resolve_exps_config({1: 2}, 3, [8, 8, 8]) == [8, 2, 8]

    def test_dict_bad_layer(self):
        with pytest.raises(KeyError):
            resolve_exps_config({7: 2}, 3, [8, 8, 8])

    def test_zero_experts_rejected(self):
        with pytest.raises(ValueError):
            resolve_exps_config(0, 2, [4, 4])


class TestCustomizedMoE:
    def test_expert_counts_change(self, tiny_model):
        custom = customized_moe(tiny_model, [2, 3])
        assert custom.local_experts_per_layer() == [2, 3]

    def test_non_expert_parameters_copied(self, tiny_model):
        custom = customized_moe(tiny_model, 2)
        assert np.allclose(custom.token_embedding.weight.data,
                           tiny_model.token_embedding.weight.data)
        assert np.allclose(custom.blocks[0].attn.q_proj.weight.data,
                           tiny_model.blocks[0].attn.q_proj.weight.data)

    def test_kept_experts_copied_in_order(self, tiny_model):
        custom = customized_moe(tiny_model, 2)
        for layer in range(tiny_model.num_layers):
            for expert in range(2):
                assert np.allclose(
                    custom.get_expert(layer, expert).weight_vector(),
                    tiny_model.get_expert(layer, expert).weight_vector(),
                )

    def test_gate_rows_transferred(self, tiny_model):
        custom = customized_moe(tiny_model, 2)
        original_gate = tiny_model.blocks[0].moe.gate.proj.weight.data
        assert np.allclose(custom.blocks[0].moe.gate.proj.weight.data, original_gate[:2])

    def test_growing_expert_count(self, tiny_model):
        grown = customized_moe(tiny_model, 6)
        assert grown.local_experts_per_layer() == [6, 6]
        # original experts preserved
        assert np.allclose(grown.get_expert(0, 0).weight_vector(),
                           tiny_model.get_expert(0, 0).weight_vector())

    def test_top_k_violation_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            customized_moe(tiny_model, 1)  # top_k=2 > 1 expert

    def test_custom_model_forward_and_loss(self, tiny_model, tiny_config):
        custom = customized_moe(tiny_model, [2, 4])
        ids = np.random.default_rng(0).integers(0, tiny_config.vocab_size, size=(2, 10))
        loss = custom.compute_loss(ids)
        assert np.isfinite(loss.item())


class TestCheckpoints:
    def test_save_load_roundtrip(self, tiny_model, tmp_path):
        path = os.path.join(tmp_path, "model.npz")
        save_checkpoint(tiny_model, path)
        loaded = load_checkpoint(path)
        for (_, a), (_, b) in zip(tiny_model.named_parameters(), loaded.named_parameters()):
            assert np.allclose(a.data, b.data)
        assert loaded.config.name == tiny_model.config.name

    def test_load_model_without_customization(self, tiny_model, tmp_path):
        path = os.path.join(tmp_path, "model.npz")
        save_checkpoint(tiny_model, path)
        loaded = load_model(path)
        assert loaded.local_experts_per_layer() == tiny_model.local_experts_per_layer()

    def test_load_model_with_exps_config(self, tiny_model, tmp_path):
        path = os.path.join(tmp_path, "model.npz")
        save_checkpoint(tiny_model, path)
        custom = load_model(path, exps_config=[2, 3])
        assert custom.local_experts_per_layer() == [2, 3]
        assert np.allclose(custom.get_expert(0, 0).weight_vector(),
                           tiny_model.get_expert(0, 0).weight_vector())

    def test_load_model_accepts_path_without_extension(self, tiny_model, tmp_path):
        path = os.path.join(tmp_path, "ckpt")
        save_checkpoint(tiny_model, path)
        loaded = load_model(path)
        assert loaded is not None

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(os.path.join(tmp_path, "nope.npz"))

    def test_checkpoint_preserves_per_layer_expert_lists(self, tmp_path, vocab):
        config = tiny_moe(vocab_size=vocab.size)
        config = config.with_experts([2, 4])
        model = MoETransformer(config)
        path = os.path.join(tmp_path, "custom.npz")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.local_experts_per_layer() == [2, 4]

    @staticmethod
    def _with_retired_field(model, tmp_path, key, value) -> str:
        """A checkpoint of ``model`` whose embedded config also carries ``key: value``."""
        path = save_checkpoint(model, os.path.join(tmp_path, "model.npz"))
        with np.load(path) as archive:
            arrays = dict(archive)
        config = json.loads(str(arrays["__config_json__"]))
        config[key] = value
        arrays["__config_json__"] = np.array(json.dumps(config))
        np.savez(path, **arrays)
        return path

    @pytest.mark.parametrize("key, value", [("dispatch", "loop"), ("activation", "silu")])
    def test_archive_embedding_a_retired_field_loads(self, tiny_model, tmp_path, key, value):
        """Archives written while ``MoEModelConfig`` had ``dispatch`` or ``activation``
        carry it; a value the model still computes is dropped."""
        loaded = load_checkpoint(self._with_retired_field(tiny_model, tmp_path, key, value))
        assert loaded.config == tiny_model.config
        for a, b in zip(tiny_model.parameters(), loaded.parameters(), strict=True):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("value", ["gelu", "relu"])
    def test_archive_of_a_retired_activation_refuses_by_name(self, tiny_model, tmp_path, value):
        """SiLU is the only nonlinearity left: a GELU/ReLU model would silently change."""
        path = self._with_retired_field(tiny_model, tmp_path, "activation", value)
        with pytest.raises(ValueError, match=f"activation='{value}'"):
            load_checkpoint(path)


class TestSaveCheckpointReturnPath:
    """Regression: the returned path must name the file np.savez actually wrote."""

    @pytest.mark.parametrize("name", ["model", "model.npz", "model.npz.bak",
                                      "model.NPZ"])
    def test_returned_path_exists_for_any_suffix(self, tiny_model, tmp_path, name):
        returned = save_checkpoint(tiny_model, os.path.join(tmp_path, name))
        assert os.path.exists(returned), returned
        assert returned.endswith(".npz")
        # Exactly one file was written and it is the one reported.
        assert os.listdir(tmp_path) == [os.path.basename(returned)]

    def test_accepts_pathlike(self, tiny_model, tmp_path):
        returned = save_checkpoint(tiny_model, tmp_path / "nested" / "ckpt")
        assert os.path.exists(returned)
        assert returned.endswith(os.path.join("nested", "ckpt.npz"))

    def test_returned_path_loads_back(self, tiny_model, tmp_path):
        returned = save_checkpoint(tiny_model, os.path.join(tmp_path, "noext"))
        loaded = load_checkpoint(returned)
        for (_, a), (_, b) in zip(tiny_model.named_parameters(),
                                  loaded.named_parameters()):
            assert np.array_equal(a.data, b.data)


class TestCompactModelRoundTrips:
    """load_model(exps_config=...) round-trips for customized/compact models."""

    def test_compact_reload_preserves_all_retained_experts(self, tiny_model, tmp_path):
        path = save_checkpoint(tiny_model, os.path.join(tmp_path, "full"))
        compact = load_model(path, exps_config={0: 2, 1: 3})
        assert compact.local_experts_per_layer() == [2, 3]
        # Experts are retained in original-id order; every kept slot must hold
        # the exact pre-trained parameters.
        for layer, kept in enumerate([2, 3]):
            for slot in range(kept):
                assert np.array_equal(
                    compact.get_expert(layer, slot).weight_vector(),
                    tiny_model.get_expert(layer, slot).weight_vector())

    def test_compact_reload_preserves_non_expert_parameters(self, tiny_model, tmp_path):
        path = save_checkpoint(tiny_model, os.path.join(tmp_path, "full"))
        compact = load_model(path, exps_config=2)
        full_state = tiny_model.state_dict()
        compact_state = compact.state_dict()
        shared = [name for name in compact_state
                  if "expert" not in name and "gate" not in name]
        assert shared
        for name in shared:
            assert np.array_equal(compact_state[name], full_state[name]), name

    def test_compact_checkpoint_roundtrips_as_saved_architecture(self, tiny_model,
                                                                 tmp_path):
        """Save a compact model, reload it, and reload it compacted further."""
        first = save_checkpoint(tiny_model, os.path.join(tmp_path, "full"))
        compact = load_model(first, exps_config=[3, 3])
        second = save_checkpoint(compact, os.path.join(tmp_path, "compact"))

        reloaded = load_checkpoint(second)
        assert reloaded.local_experts_per_layer() == [3, 3]
        for (_, a), (_, b) in zip(compact.named_parameters(),
                                  reloaded.named_parameters()):
            assert np.array_equal(a.data, b.data)

        smaller = load_model(second, exps_config=2)
        assert smaller.local_experts_per_layer() == [2, 2]
        for layer in range(2):
            for slot in range(2):
                assert np.array_equal(
                    smaller.get_expert(layer, slot).weight_vector(),
                    compact.get_expert(layer, slot).weight_vector())

    def test_compact_model_trains_after_reload(self, tiny_model, tmp_path, vocab,
                                               gsm_batches):
        path = save_checkpoint(tiny_model, os.path.join(tmp_path, "full"))
        compact = load_model(path, exps_config=2)
        batch = gsm_batches[0]
        loss = compact.compute_loss(batch.input_ids, labels=batch.labels,
                                    attention_mask=batch.attention_mask)
        assert np.isfinite(loss.item())
