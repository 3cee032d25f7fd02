"""Equivalence and dtype tests for the batched MoE dispatch fast path.

The segment-grouped dispatch reproduces the per-expert loop oracle
bit-for-bit (outputs, gate-weight gradients and every expert-parameter
gradient, float64 and float32): each expert's GEMMs have the loop's shapes and
operand layouts, single-token experts included — ``_assert_bit_identical`` is
plain equality.  Two deviations of a few ULP remain, pinned by
``_assert_within_ulps``: (1) the *layer input's* gradient (and the router
weights fed by it) when the router also back-propagates into that input — the
loop adds each expert's contribution to it one by one, the fused node adds
their sum, and a three-term float sum depends on its grouping
(``TestSegmentKernel`` drives the kernels directly, where the input gradient
is exact too); (2) ``dispatch="sparse"`` vs the dense paths on experts that
received exactly one token, where BLAS runs a gemv whose partial sums regroup
when the dead channels are dropped from its inner dimension.  float32 must be
allclose to float64, and a float32 end-to-end training run must converge to
the float64 trajectory within tolerance.
"""

import functools

import numpy as np
import pytest

from repro.autograd import (
    SGD,
    Adam,
    Tensor,
    default_dtype,
    expand_rows,
    get_default_dtype,
    index_add,
    place_rows,
    scatter_rows,
    set_default_dtype,
    take_rows,
)
from repro.models import ExpertFFN, ExpertRemap, MoELayer, MoETransformer
from repro.models.lora import apply_lora_to_experts
from repro.models.presets import tiny_moe
from repro.quantization import quantize_array


def _assert_bit_identical(a, b, context=""):
    assert np.array_equal(np.asarray(a), np.asarray(b)), context


def _assert_within_ulps(a, b, context=""):
    """Within a few ULP of the array's magnitude (the two cases of the module docstring)."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(float(np.max(np.abs(a))), 1.0)
    max_diff = float(np.max(np.abs(a - b)))
    assert max_diff <= 8 * np.finfo(a.dtype).eps * scale, (context, max_diff)


def _layer_pair(dispatch_a="loop", dispatch_b="batched", dtype="float64", **kwargs):
    defaults = dict(d_model=16, d_ff=24, num_experts=6, top_k=2)
    defaults.update(kwargs)
    with default_dtype(dtype):
        a = MoELayer(rng=np.random.default_rng(0), dispatch=dispatch_a, **defaults)
        b = MoELayer(rng=np.random.default_rng(0), dispatch=dispatch_b, **defaults)
    return a, b


def _run(layer, x, sample_ids=None):
    inp = Tensor(x, requires_grad=True)
    out = layer(inp, sample_ids=sample_ids)
    out.sum().backward()
    grads = {name: (None if p.grad is None else p.grad.copy())
             for name, p in layer.named_parameters()}
    layer.zero_grad()
    return out.data, inp.grad, grads


class TestDispatchEquivalence:
    @pytest.mark.parametrize("activation", ["silu", "gelu", "relu"])
    def test_bit_identical_float64(self, activation):
        a, b = _layer_pair(activation=activation)
        x = np.random.default_rng(1).standard_normal((3, 7, 16))
        out_a, gx_a, gp_a = _run(a, x, sample_ids=np.arange(3))
        out_b, gx_b, gp_b = _run(b, x, sample_ids=np.arange(3))
        _assert_bit_identical(out_a, out_b)
        _assert_within_ulps(gx_a, gx_b)
        for name in gp_a:
            if gp_a[name] is None:
                assert gp_b[name] is None
            elif name.startswith("gate."):                 # the router's follow the input's
                _assert_within_ulps(gp_a[name], gp_b[name], name)
            else:
                _assert_bit_identical(gp_a[name], gp_b[name], name)

    def test_bit_identical_with_shared_experts(self):
        a, b = _layer_pair(num_shared_experts=1)
        x = np.random.default_rng(2).standard_normal((2, 5, 16))
        out_a, gx_a, _ = _run(a, x)
        out_b, gx_b, _ = _run(b, x)
        _assert_bit_identical(out_a, out_b)
        _assert_within_ulps(gx_a, gx_b)

    def test_bit_identical_with_compact_remap(self):
        a, b = _layer_pair(num_experts=4)
        remap, _, _ = ExpertRemap.from_clusters(4, tuning_experts=[0], clusters=[[1, 2, 3]])
        for layer in (a, b):
            kept = ExpertFFN(16, 24, rng=np.random.default_rng(7))
            kept.load_state(layer.experts[0].state())
            merged = ExpertFFN.merge([layer.experts[i] for i in (1, 2, 3)], [1, 1, 1],
                                     d_model=16, d_ff=24)
            layer.set_compact_experts([kept, merged], remap)
        x = np.random.default_rng(3).standard_normal((2, 6, 16))
        out_a, gx_a, _ = _run(a, x)
        out_b, gx_b, _ = _run(b, x)
        _assert_bit_identical(out_a, out_b)
        _assert_within_ulps(gx_a, gx_b)

    def test_float32_allclose_to_float64(self):
        a64, _ = _layer_pair("loop", "loop")
        b32, _ = _layer_pair("batched", "batched", dtype="float32")
        x = np.random.default_rng(4).standard_normal((2, 8, 16))
        out_a, _, _ = _run(a64, x)
        out_b, _, _ = _run(b32, x.astype(np.float32))
        assert out_b.dtype == np.float32
        assert np.allclose(out_a, out_b, rtol=1e-4, atol=1e-5)

    def test_routing_records_identical_across_dispatch(self):
        a, b = _layer_pair()
        x = np.random.default_rng(5).standard_normal((4, 6, 16))
        mask = np.ones((4, 6), dtype=bool)
        mask[:, 4:] = False
        for layer in (a, b):
            layer(Tensor(x), sample_ids=np.array([9, 8, 7, 6]), token_mask=mask)
        ra, rb = a.last_routing, b.last_routing
        assert np.array_equal(ra.token_counts, rb.token_counts)
        assert np.allclose(ra.gate_weight_sums, rb.gate_weight_sums)
        assert ra.sample_ids == rb.sample_ids
        assert ra.total_tokens == rb.total_tokens == 16

    def test_gradients_only_reach_routed_experts(self):
        _, layer = _layer_pair(num_experts=8)
        x = np.random.default_rng(6).standard_normal((1, 4, 16))
        inp = Tensor(x, requires_grad=True)
        layer(inp).sum().backward()
        counts = layer.last_routing.token_counts
        for idx, expert in enumerate(layer.experts):
            touched = any(p.grad is not None for p in expert.parameters())
            assert touched == (counts[idx] > 0)

    def test_empty_input_matches_loop_path(self):
        a, b = _layer_pair()
        x = np.zeros((0, 5, 16))
        out_a = a(Tensor(x))
        out_b = b(Tensor(x))
        assert out_a.shape == out_b.shape == (0, 5, 16)

    def test_scratch_buffers_not_pickled(self):
        import pickle
        _, layer = _layer_pair()
        x = np.random.default_rng(0).standard_normal((2, 4, 16))
        inp = Tensor(x, requires_grad=True)
        layer(inp).sum().backward()
        assert layer._bwd_scratch  # populated by the fused backward
        clone = pickle.loads(pickle.dumps(layer))
        assert clone._bwd_scratch == {}

    def test_invalid_dispatch_rejected(self):
        with pytest.raises(ValueError):
            MoELayer(8, 8, 4, 2, dispatch="vectorised")

    def test_lora_wrapped_experts_fall_back_to_loop(self):
        config = tiny_moe()
        model = MoETransformer(config)
        apply_lora_to_experts(model, rank=2, seed=0)
        assert not model.blocks[0].moe._can_batch()
        ids = np.random.default_rng(0).integers(0, config.vocab_size, size=(2, 8))
        loss = model.compute_loss(ids)
        loss.backward()
        assert np.isfinite(loss.item())


class TestSparseDispatch:
    """The zero-skipping sparse path vs the dense paths on sparsified weights."""

    def _sparsified_pair(self, dispatch_a="batched", dtype="float64",
                         density=0.25, bits=2, **kwargs):
        a, b = _layer_pair(dispatch_a, "sparse", dtype=dtype, **kwargs)
        realised_a = a.sparsify_experts(density, bits=bits)
        realised_b = b.sparsify_experts(density, bits=bits)
        assert realised_a == realised_b  # same seed, same deterministic prune
        return a, b

    @pytest.mark.parametrize("activation", ["silu", "gelu", "relu"])
    def test_sparse_bit_identical_to_batched(self, activation):
        a, b = self._sparsified_pair(activation=activation)
        x = np.random.default_rng(11).standard_normal((3, 7, 16))
        out_a, gx_a, gp_a = _run(a, x, sample_ids=np.arange(3))
        out_b, gx_b, gp_b = _run(b, x, sample_ids=np.arange(3))
        _assert_within_ulps(out_a, out_b)
        _assert_within_ulps(gx_a, gx_b)
        for name in gp_a:
            if gp_a[name] is None:
                assert gp_b[name] is None
            else:
                _assert_within_ulps(gp_a[name], gp_b[name], name)

    def test_sparse_bit_identical_to_loop(self):
        a, b = self._sparsified_pair(dispatch_a="loop")
        x = np.random.default_rng(12).standard_normal((2, 6, 16))
        out_a, gx_a, _ = _run(a, x)
        out_b, gx_b, _ = _run(b, x)
        _assert_within_ulps(out_a, out_b)
        _assert_within_ulps(gx_a, gx_b)

    def test_sparse_bit_identical_float32(self):
        a, b = self._sparsified_pair(dtype="float32")
        x = np.random.default_rng(13).standard_normal((2, 5, 16)).astype(np.float32)
        out_a, gx_a, _ = _run(a, x)
        out_b, gx_b, _ = _run(b, x)
        assert out_b.dtype == np.float32
        _assert_within_ulps(out_a, out_b)
        _assert_within_ulps(gx_a, gx_b)

    def test_dense_weights_fall_back_to_batched(self):
        """At full density the sparse plan declines and the dense path runs."""
        a, b = _layer_pair("batched", "sparse")
        gate_params = [e.w_gate.weight for e in b.experts]
        up_params = [e.w_up.weight for e in b.experts]
        assert b._sparse_plan(gate_params, up_params) is None
        x = np.random.default_rng(14).standard_normal((2, 4, 16))
        out_a, gx_a, _ = _run(a, x)
        out_b, gx_b, _ = _run(b, x)
        _assert_within_ulps(out_a, out_b)
        _assert_within_ulps(gx_a, gx_b)

    def test_sparsify_returns_realised_density(self):
        _, layer = _layer_pair()
        realised = layer.sparsify_experts(0.25)
        assert realised == pytest.approx(np.ceil(0.25 * 24) / 24)

    def test_sparsify_validates_density(self):
        _, layer = _layer_pair()
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                layer.sparsify_experts(bad)

    def test_quantization_preserves_dead_channels(self):
        """Zeroed channels survive the fake-quantization round trip exactly."""
        _, layer = _layer_pair()
        from repro.models.experts import sparsify_expert

        expert = layer.experts[0]
        kept = sparsify_expert(expert, 0.25, bits=2)
        dead = np.setdiff1d(np.arange(24), kept)
        assert dead.size == 24 - kept.size
        assert not expert.w_gate.weight.data[dead].any()
        assert not expert.w_up.weight.data[dead].any()
        assert not expert.w_down.weight.data[:, dead].any()
        # and the kept channels are non-trivially quantized, not wiped
        assert expert.w_gate.weight.data[kept].any()

    def test_dead_channels_stay_dead_after_training_step(self):
        from repro.models.experts import sparsify_expert

        _, layer = _layer_pair()
        kept_per_expert = [
            np.setdiff1d(np.arange(24), sparsify_expert(e, 0.25, bits=2))
            for e in layer.experts
        ]
        x = np.random.default_rng(15).standard_normal((2, 6, 16))
        optimizer = Adam(list(layer.parameters()), lr=1e-2)
        for _ in range(3):
            out = layer(Tensor(x, requires_grad=True))
            out.sum().backward()
            optimizer.step()
            optimizer.zero_grad()
        for expert, dead in zip(layer.experts, kept_per_expert):
            assert not expert.w_gate.weight.data[dead].any()
            assert not expert.w_up.weight.data[dead].any()
            assert not expert.w_down.weight.data[:, dead].any()

    def test_model_config_accepts_sparse_dispatch(self):
        config = tiny_moe(dispatch="sparse")
        model = MoETransformer(config)
        for layer in model.moe_layers():
            assert layer.dispatch == "sparse"
        ids = np.random.default_rng(0).integers(0, config.vocab_size, size=(2, 8))
        loss = model.compute_loss(ids)
        loss.backward()
        assert np.isfinite(loss.item())


def _kernel(layer, combine, x, local_idx, weights, flat_grad=True):
    """One forward/backward of a combine kernel on hand-made routing; every
    array it produced, keyed by name (absent gradients are left out)."""
    flat = Tensor(x.copy(), requires_grad=flat_grad)
    top_weights = Tensor(weights.copy(), requires_grad=True)
    out = combine(flat, local_idx, top_weights, *x.shape)
    out.backward(np.random.default_rng(99).standard_normal(out.shape).astype(x.dtype))
    produced = {"out": out.data, "flat": flat.grad, "top_weights": top_weights.grad}
    produced.update((name, p.grad) for name, p in layer.named_parameters())
    layer.zero_grad()
    return {name: value for name, value in produced.items() if value is not None}


def _assert_kernel_matches_loop(layer, x, local_idx, weights, sparse=False, flat_grad=True):
    """``_combine_batched`` equals the ``_combine_loop`` oracle in everything it
    produces (a few ULP only for sparse runs with a single-token expert)."""
    oracle = _kernel(layer, layer._combine_loop, x, local_idx, weights, flat_grad)
    fast = _kernel(layer, functools.partial(layer._combine_batched, sparse=sparse),
                   x, local_idx, weights, flat_grad)
    assert oracle.keys() == fast.keys()
    single_token_expert = (np.bincount(local_idx.reshape(-1)) == 1).any()
    for name in oracle:
        if sparse and single_token_expert:
            _assert_within_ulps(oracle[name], fast[name], name)
        else:
            _assert_bit_identical(oracle[name], fast[name], name)
    return fast


def _random_routing(rng, num_tokens, num_experts, top_k):
    return np.stack([rng.permutation(num_experts)[:top_k] for _ in range(num_tokens)])


class TestSegmentKernel:
    """Edge cases of the segment layout, kernel against kernel (no router in
    the graph, so the input gradient is exact as well)."""

    def _inputs(self, layer, num_tokens, top_k, dtype="float64", seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((num_tokens, layer.d_model)).astype(dtype)
        weights = rng.random((num_tokens, top_k)).astype(dtype)
        return rng, x, weights

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("activation", ["silu", "gelu", "relu"])
    def test_random_routing(self, dtype, activation):
        _, layer = _layer_pair(dtype=dtype, activation=activation)
        for seed in range(4):
            rng, x, weights = self._inputs(layer, 21, 2, dtype, seed)
            fast = _assert_kernel_matches_loop(layer, x, _random_routing(rng, 21, 6, 2), weights)
            assert all(value.dtype == np.dtype(dtype) for value in fast.values())

    def test_all_tokens_on_one_expert(self):
        _, layer = _layer_pair()
        _, x, weights = self._inputs(layer, 30, 1)
        fast = _assert_kernel_matches_loop(layer, x, np.full((30, 1), 3), weights)
        assert {name.split(".")[1] for name in fast if name.startswith("experts.")} == {"3"}

    def test_single_assignment_experts_are_exact(self):
        """One-row segments run the loop's own (1, d) products: plain equality."""
        _, layer = _layer_pair(num_experts=8)
        _, x, weights = self._inputs(layer, 4, 2)
        local_idx = np.arange(8).reshape(4, 2)             # every expert gets exactly one row
        _assert_kernel_matches_loop(layer, x, local_idx, weights)

    def test_top_k_one(self):
        _, layer = _layer_pair(top_k=1)
        rng, x, weights = self._inputs(layer, 40, 1)
        _assert_kernel_matches_loop(layer, x, rng.integers(0, 6, size=(40, 1)), weights)

    def test_extreme_load_imbalance(self):
        _, layer = _layer_pair()
        _, x, weights = self._inputs(layer, 201, 1)
        local_idx = np.zeros((201, 1), dtype=np.int64)
        local_idx[117] = 4                                 # 200 : 1
        _assert_kernel_matches_loop(layer, x, local_idx, weights)

    def test_two_original_experts_on_one_slot(self):
        """A compact layer whose remap folds a token's two choices onto one slot."""
        _, layer = _layer_pair(num_experts=4)
        remap, _, _ = ExpertRemap.from_clusters(4, tuning_experts=[0], clusters=[[1, 2, 3]])
        assert not remap.is_identity()
        layer.set_compact_experts([layer.experts[0], layer.experts[1]], remap)
        rng, x, weights = self._inputs(layer, 24, 2)
        local_idx = remap.apply(_random_routing(rng, 24, 4, 2))
        assert (local_idx[:, 0] == local_idx[:, 1]).any()  # the shared slot, twice in a row
        _assert_kernel_matches_loop(layer, x, local_idx, weights)

    @pytest.mark.parametrize("frozen", ["some_experts", "gate_and_up", "flat", "all_but_down"])
    def test_frozen_subsets(self, frozen):
        _, layer = _layer_pair()
        if frozen == "some_experts":
            for expert in (layer.experts[1], layer.experts[4]):
                expert.freeze()
        elif frozen in ("gate_and_up", "all_but_down"):
            for expert in layer.experts:
                expert.w_gate.weight.requires_grad = False
                expert.w_up.weight.requires_grad = False
        rng, x, weights = self._inputs(layer, 21, 2)
        fast = _assert_kernel_matches_loop(layer, x, _random_routing(rng, 21, 6, 2), weights,
                                           flat_grad=frozen not in ("flat", "all_but_down"))
        trained = {name.split(".")[2] for name in fast if name.startswith("experts.")}
        if frozen == "some_experts":
            assert not any(name.startswith(("experts.1.", "experts.4.")) for name in fast)
        assert trained == ({"w_down"} if frozen in ("gate_and_up", "all_but_down")
                           else {"w_gate", "w_up", "w_down"})
        assert ("flat" in fast) == (frozen in ("some_experts", "gate_and_up"))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_sparse_runs_each_expert_at_its_own_width(self, dtype):
        from repro.models.experts import sparsify_expert

        _, layer = _layer_pair(dtype=dtype)
        densities = (0.1, 0.2, 0.25, 0.3, 0.5, 0.15)
        widths = [sparsify_expert(e, density, bits=2).size
                  for e, density in zip(layer.experts, densities)]
        assert len(set(widths)) == len(widths)
        for key in ("w_gate", "w_up", "w_down"):           # expert 2: no live channel at all
            getattr(layer.experts[2], key).weight.data[...] = 0.0
        plan = layer._sparse_plan([e.w_gate.weight for e in layer.experts],
                                  [e.w_up.weight for e in layer.experts])
        assert [live.size for live in plan] == widths[:2] + [0] + widths[3:]
        for seed in range(4):
            rng, x, weights = self._inputs(layer, 21, 2, dtype, seed)
            _assert_kernel_matches_loop(layer, x, _random_routing(rng, 21, 6, 2), weights,
                                        sparse=True)

    def test_adam_step_on_adopted_gradients_matches_reference(self):
        """Weight gradients arrive as whatever array the segment GEMM produced
        (here: transposed views); equal values must mean equal updates."""
        loop, fast = _layer_pair()
        rng, x, weights = self._inputs(fast, 21, 2)
        local_idx = _random_routing(rng, 21, 6, 2)
        updated = []
        for layer, combine in ((loop, loop._combine_loop), (fast, fast._combine_batched)):
            out = combine(Tensor(x), local_idx, Tensor(weights), *x.shape)
            out.sum().backward()
            params = [p for p in layer.experts.parameters() if p.grad is not None]
            before = [(p.data.copy(), p.grad.copy()) for p in params]
            Adam(params, lr=0.01).step()
            for (data, grad), param in zip(before, params):
                m_hat = 0.1 * grad / (1 - 0.9)
                v_hat = 0.001 * grad ** 2 / (1 - 0.999)
                expected = data - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
                assert np.allclose(param.data, expected, rtol=0, atol=1e-15)
            updated.append([p.data for p in params])
        assert len(updated[0]) == len(updated[1]) == 18
        for a, b in zip(*updated):
            _assert_bit_identical(a, b)


class TestRunLevelOracle:
    """Whole federated runs under ``dispatch="batched"`` against the same runs
    under the ``dispatch="loop"`` oracle."""

    @pytest.mark.parametrize("method", ["fmd", "flux"])
    def test_two_round_run_matches_loop_oracle(self, method, build_federation, vocab):
        from repro.baselines import FMDFineTuner
        from repro.core import FluxConfig, FluxFineTuner
        from repro.federated import ParameterServer

        def run(dispatch):
            participants, test, cost_models, config = build_federation()
            server = ParameterServer(MoETransformer(tiny_moe(vocab_size=vocab.size,
                                                             dispatch=dispatch)))
            if method == "fmd":
                tuner = FMDFineTuner(server, participants, test, cost_models=cost_models,
                                     config=config)
            else:
                tuner = FluxFineTuner(server, participants, test, cost_models=cost_models,
                                      config=config, flux_config=FluxConfig(seed=0))
            curves = [(r.train_loss, r.metric_value, r.simulated_time, r.round_duration)
                      for r in tuner.run(num_rounds=2).rounds]
            return np.array(curves), server.global_state()

        curves, state = run("batched")
        oracle_curves, oracle_state = run("loop")
        assert np.allclose(curves, oracle_curves, rtol=1e-12, atol=0)
        assert state.keys() == oracle_state.keys()
        for name in state:
            assert np.allclose(state[name], oracle_state[name], rtol=1e-12, atol=0), name


class TestZeroGradientStep:
    def test_local_finetune_survives_starved_trainable_expert(self):
        """A batch that routes no token to any trainable expert is a
        legitimate zero-gradient step, not a crash."""
        from repro.data import make_gsm8k_like
        from repro.data.loader import Batch
        from repro.federated.client import Participant

        config = tiny_moe(vocab_size=32)
        model = MoETransformer(config)

        # Pin every layer's routing onto experts 2 and 3 so expert 0 (the
        # only trainable one) never receives a token.
        def pinned_gate(x, with_probs=True):
            num_tokens = x.shape[0]
            top_idx = np.tile(np.array([2, 3]), (num_tokens, 1))
            weights = Tensor(np.full((num_tokens, 2), 0.5, dtype=x.data.dtype))
            return top_idx, weights, None

        for layer in model.moe_layers():
            layer.gate.forward = pinned_gate
        ids = np.random.default_rng(0).integers(0, 32, size=(2, 8))
        labels = np.roll(ids, -1, axis=1)
        batch = Batch(input_ids=ids, labels=labels,
                      attention_mask=np.ones_like(ids, dtype=bool),
                      sample_ids=np.array([0, 1]), samples=[])
        participant = Participant(0, dataset=make_gsm8k_like(num_samples=4))
        result = participant.local_finetune(model, [batch],
                                            trainable_experts={(0, 0), (1, 0)})
        assert result.num_batches == 1
        assert np.isfinite(result.mean_loss)
        assert result.expert_grad_norms == {}


class TestFloat32Convergence:
    def _train(self, dtype, steps=25):
        config = tiny_moe(dtype=dtype)
        model = MoETransformer(config)
        ids = np.random.default_rng(0).integers(0, config.vocab_size, size=(8, 16))
        optimizer = Adam(list(model.parameters()), lr=3e-3)
        losses = []
        for _ in range(steps):
            loss = model.compute_loss(ids)
            loss.backward()
            optimizer.step()
            optimizer.zero_grad()
            losses.append(loss.item())
        return losses

    def test_float32_round_converges_like_float64(self):
        l64 = self._train("float64")
        l32 = self._train("float32")
        assert l64[-1] < l64[0]
        assert l32[-1] < l32[0]
        # same trajectory within a few percent, same final neighbourhood
        assert abs(l32[0] - l64[0]) / l64[0] < 1e-3
        assert abs(l32[-1] - l64[-1]) / l64[-1] < 0.05


class TestDtypeThreading:
    def test_model_dtype_float32_end_to_end(self):
        config = tiny_moe(dtype="float32")
        model = MoETransformer(config)
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        ids = np.random.default_rng(0).integers(0, config.vocab_size, size=(2, 8))
        loss = model.compute_loss(ids)
        assert loss.data.dtype == np.float32
        loss.backward()
        for param in model.parameters():
            if param.grad is not None:
                assert param.grad.dtype == np.float32

    def test_float32_init_is_rounded_float64_init(self):
        m64 = MoETransformer(tiny_moe(dtype="float64"))
        m32 = MoETransformer(tiny_moe(dtype="float32"))
        s64, s32 = m64.state_dict(), m32.state_dict()
        for name in s64:
            assert s32[name].dtype == np.float32
            assert np.array_equal(s32[name], s64[name].astype(np.float32)), name

    def test_default_dtype_context_restores(self):
        before = get_default_dtype()
        with default_dtype("float32"):
            assert get_default_dtype() == np.float32
            assert Tensor.zeros(3).data.dtype == np.float32
        assert get_default_dtype() == before

    def test_set_default_dtype_validates(self):
        with pytest.raises(ValueError):
            set_default_dtype("float16")
        with pytest.raises(ValueError):
            default_dtype("int32")

    def test_config_validates_dtype_and_dispatch(self):
        with pytest.raises(ValueError):
            tiny_moe(dtype="float16")
        with pytest.raises(ValueError):
            tiny_moe(dispatch="grouped")

    def test_quantizer_preserves_dtype(self):
        weights32 = np.random.default_rng(0).standard_normal((4, 8)).astype(np.float32)
        out32 = quantize_array(weights32, 8).dequantize()
        assert out32.dtype == np.float32
        out64 = quantize_array(weights32.astype(np.float64), 8).dequantize()
        assert out64.dtype == np.float64
        assert np.allclose(out32, out64, atol=1e-6)


class TestScatterGatherOps:
    def test_index_add_matches_scatter_rows(self):
        rows = np.array([0, 2, 2, 1])
        src_data = np.random.default_rng(0).standard_normal((4, 3))
        src_a = Tensor(src_data, requires_grad=True)
        src_b = Tensor(src_data, requires_grad=True)
        out_a = scatter_rows(src_a, rows, 3)
        out_b = index_add(Tensor.zeros(3, 3), rows, src_b)
        assert np.array_equal(out_a.data, out_b.data)
        grad = np.random.default_rng(1).standard_normal((3, 3))
        out_a.backward(grad.copy())
        out_b.backward(grad.copy())
        assert np.array_equal(src_a.grad, src_b.grad)

    def test_index_add_validates_rows(self):
        with pytest.raises(ValueError):
            index_add(Tensor.zeros(3, 2), np.array([[0]]), Tensor.zeros(1, 2))
        with pytest.raises(ValueError):
            index_add(Tensor.zeros(3, 2), np.array([0]), Tensor.zeros(1, 3))

    def test_take_place_roundtrip_gradients(self):
        perm = np.array([3, 0, 2, 1])
        src = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        taken = take_rows(src, perm)
        assert np.array_equal(taken.data, src.data[perm])
        taken.sum().backward()
        assert np.array_equal(src.grad, np.ones((4, 2)))
        src.zero_grad()
        placed = place_rows(src, perm, 6)
        assert np.array_equal(placed.data[perm], src.data)
        assert np.array_equal(placed.data[[4, 5]], np.zeros((2, 2)))
        grad = np.random.default_rng(0).standard_normal((6, 2))
        placed.backward(grad)
        assert np.array_equal(src.grad, grad[perm])

    def test_expand_rows_gradient_sums_repeats(self):
        src = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = expand_rows(src, 2)
        assert np.array_equal(out.data, np.repeat(src.data, 2, axis=0))
        grad = np.random.default_rng(0).standard_normal((6, 2))
        out.backward(grad)
        assert np.allclose(src.grad, grad.reshape(3, 2, 2).sum(axis=1))
        with pytest.raises(ValueError):
            expand_rows(src, 0)


class TestFusedOptimizers:
    """The in-place fused updates must match the reference formulas exactly."""

    def test_sgd_matches_reference(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(5)
        grad = rng.standard_normal(5)
        from repro.autograd import Parameter
        param = Parameter(data.copy())
        param.grad = grad.copy()
        opt = SGD([param], lr=0.1, momentum=0.9, weight_decay=0.01)
        opt.step()
        g = grad + 0.01 * data
        expected = data - 0.1 * g  # first step: velocity == g
        assert np.array_equal(param.data, expected)

    def test_adam_matches_reference(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal(5)
        grad = rng.standard_normal(5)
        from repro.autograd import Parameter
        param = Parameter(data.copy())
        param.grad = grad.copy()
        opt = Adam([param], lr=0.01)
        opt.step()
        m = 0.1 * grad
        v = 0.001 * grad ** 2
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expected = data - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(param.data, expected, rtol=0, atol=1e-15)

    def test_step_allocates_into_scratch(self):
        from repro.autograd import Parameter
        param = Parameter(np.ones(4))
        param.grad = np.ones(4)
        opt = Adam([param], lr=0.01)
        opt.step()
        scratch_ids = {id(buf) for buf in opt._scratch.values()}
        param.grad = np.full(4, 2.0)
        opt.step()
        assert {id(buf) for buf in opt._scratch.values()} == scratch_ids


class TestStackedWeightHelpers:
    def test_expert_weight_matrix_matches_weight_vectors(self):
        layer = MoELayer(8, 12, 4, 2, rng=np.random.default_rng(0))
        matrix = layer.expert_weight_matrix()
        reference = np.stack([e.weight_vector() for e in layer.experts])
        assert np.array_equal(matrix, reference)

    def test_stacked_expert_weights_shapes(self):
        layer = MoELayer(8, 12, 4, 2, rng=np.random.default_rng(0))
        stacked = layer.stacked_expert_weights()
        assert stacked["w_gate"].shape == (4, 12, 8)
        assert stacked["w_up"].shape == (4, 12, 8)
        assert stacked["w_down"].shape == (4, 8, 12)

    def test_merge_from_stacked_matches_legacy(self):
        experts = [ExpertFFN(8, 12, rng=np.random.default_rng(i)) for i in range(3)]
        weights = [2.0, 1.0, 1.0]
        legacy = ExpertFFN.merge(experts, weights, d_model=8, d_ff=12)
        from repro.models.experts import stack_expert_weights
        stacked = stack_expert_weights(experts)
        merged = ExpertFFN.merge(experts, weights, d_model=8, d_ff=12, stacked=stacked)
        assert np.array_equal(legacy.weight_vector(), merged.weight_vector())

    def test_merge_preserves_float32_dtype(self):
        with default_dtype("float32"):
            experts = [ExpertFFN(8, 12, rng=np.random.default_rng(i)) for i in range(2)]
        merged = ExpertFFN.merge(experts, [1.0, 1.0], d_model=8, d_ff=12)
        assert merged.w_gate.weight.data.dtype == np.float32
        assert merged.w_down.weight.data.dtype == np.float32

    def test_merge_rejects_mismatched_stack(self):
        experts = [ExpertFFN(8, 12, rng=np.random.default_rng(i)) for i in range(2)]
        from repro.models.experts import stack_expert_weights
        stacked = stack_expert_weights(experts + [ExpertFFN(8, 12)])
        with pytest.raises(ValueError):
            ExpertFFN.merge(experts, [1.0, 1.0], d_model=8, d_ff=12, stacked=stacked)
