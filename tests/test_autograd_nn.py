"""Unit tests for the nn module system and layers."""

import numpy as np
import pytest

from repro.autograd import (
    Dropout,
    Embedding,
    Linear,
    Module,
    ModuleList,
    RMSNorm,
    Tensor,
    functional as F,
)


class TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8)
        self.fc2 = Linear(8, 2)

    def forward(self, x):
        return self.fc2(self.fc1(x).silu())


class TestModule:
    def test_parameter_registration(self):
        model = TwoLayer()
        names = [name for name, _ in model.named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names
        assert len(names) == 4

    def test_num_parameters(self):
        model = TwoLayer()
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_state_dict_roundtrip(self):
        model = TwoLayer()
        state = model.state_dict()
        other = TwoLayer()
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(model.named_parameters(), other.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_load_state_dict_missing_key_strict(self):
        model = TwoLayer()
        state = model.state_dict()
        state.pop("fc1.weight")
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self):
        model = TwoLayer()
        state = model.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_load_state_dict_non_strict(self):
        model = TwoLayer()
        missing = model.load_state_dict({}, strict=False)
        assert set(missing) == {name for name, _ in model.named_parameters()}

    def test_train_eval_propagates(self):
        model = ModuleList([Linear(2, 2), Dropout(0.5)])
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_freeze_unfreeze(self):
        model = TwoLayer()
        model.freeze()
        assert all(not p.requires_grad for p in model.parameters())
        model.unfreeze()
        assert all(p.requires_grad for p in model.parameters())

    def test_zero_grad(self):
        model = TwoLayer()
        x = Tensor(np.ones((3, 4)))
        model(x).sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_named_modules(self):
        model = TwoLayer()
        names = dict(model.named_modules())
        assert "fc1" in names and "fc2" in names


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(5, 3)
        out = layer(Tensor(np.zeros((7, 5))))
        assert out.shape == (7, 3)

    def test_no_bias(self):
        layer = Linear(5, 3, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_matches_manual_affine(self):
        layer = Linear(4, 2)
        x = np.random.default_rng(0).standard_normal((3, 4))
        out = layer(Tensor(x)).data
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(out, expected)

    def test_gradients_flow_to_weight(self):
        layer = Linear(4, 2)
        layer(Tensor(np.ones((3, 4)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 6)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 6)

    def test_gradient_accumulates_on_repeated_index(self):
        emb = Embedding(5, 3)
        out = emb(np.array([1, 1, 2]))
        out.sum().backward()
        assert np.allclose(emb.weight.grad[1], 2.0)
        assert np.allclose(emb.weight.grad[2], 1.0)
        assert np.allclose(emb.weight.grad[0], 0.0)


class TestNorms:
    def test_rms_norm_scale(self):
        rn = RMSNorm(8)
        x = Tensor(np.random.default_rng(0).standard_normal((4, 8)))
        out = rn(x).data
        rms = np.sqrt((out ** 2).mean(axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-3)

    def test_norm_gradients(self):
        rn = RMSNorm(6)
        x = Tensor(np.random.default_rng(1).standard_normal((2, 6)), requires_grad=True)
        rn(x).sum().backward()
        assert x.grad is not None and rn.weight.grad is not None


class TestDropout:
    def test_eval_mode_is_identity(self):
        drop = Dropout(0.9)
        drop.eval()
        x = Tensor(np.ones((10, 10)))
        assert np.allclose(drop(x).data, 1.0)

    def test_train_mode_zeroes_and_scales(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 100)))
        out = drop(x).data
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6
        nonzero = out[out != 0]
        assert np.allclose(nonzero, 2.0)

    def test_zero_probability_identity(self):
        drop = Dropout(0.0)
        x = Tensor(np.random.default_rng(0).standard_normal((5, 5)))
        assert np.allclose(drop(x).data, x.data)


class TestContainers:
    def test_module_list_registration_and_iteration(self):
        layers = ModuleList([Linear(2, 2) for _ in range(3)])
        assert len(layers) == 3
        assert len(list(layers.parameters())) == 6
        layers.append(Linear(2, 2))
        assert len(layers) == 4

    def test_module_list_setitem_replaces(self):
        layers = ModuleList([Linear(2, 2)])
        replacement = Linear(2, 2)
        layers[0] = replacement
        assert layers[0] is replacement
        assert dict(layers.named_parameters())["0.weight"] is replacement.weight


class TestFunctional:
    def test_cross_entropy_matches_manual(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 5))
        targets = np.array([0, 2, 4, 1])
        loss = F.cross_entropy(Tensor(logits, requires_grad=True), targets)
        log_probs = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
        expected = -log_probs[np.arange(4), targets].mean()
        assert loss.item() == pytest.approx(expected, rel=1e-6)

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(np.zeros((3, 4)), requires_grad=True)
        targets = np.array([1, -100, 2])
        loss = F.cross_entropy(logits, targets, ignore_index=-100)
        assert loss.item() == pytest.approx(np.log(4.0), rel=1e-6)

    def test_cross_entropy_reductions(self):
        logits = Tensor(np.zeros((3, 4)), requires_grad=True)
        targets = np.array([0, 1, 2])
        none = F.cross_entropy(logits, targets, reduction="none")
        total = F.cross_entropy(logits, targets, reduction="sum")
        assert none.shape == (3,)
        assert total.item() == pytest.approx(none.data.sum())

    def test_embedding_functional(self):
        weight = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        out = F.embedding(weight, np.array([3, 0]))
        assert np.allclose(out.data, [[9, 10, 11], [0, 1, 2]])

    def test_linear_functional_without_bias(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((4, 3)))
        out = F.linear(x, w)
        assert out.shape == (2, 4)
        assert np.allclose(out.data, 3.0)
