"""The fused autograd nodes and the routing-only activation profile vs their oracles.

``F.linear``, ``F.rms_norm`` and ``MultiHeadSelfAttention.forward`` are one
autograd node each and ``profile_activation`` stops at the last router; the
code they replaced is kept verbatim in ``composed_oracles.py`` and is what they
are held to here: outputs, every gradient, finite differences, the
``last_token_attention`` signal, profiles field for field, whole runs.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import repro.autograd.functional as F
from repro.analysis import ActivationProfile, profile_activation
from repro.autograd import Linear, Parameter, RMSNorm, Tensor, default_dtype, no_grad
from repro.baselines import FMDFineTuner
from repro.data import make_batches
from repro.models import (
    MoETransformer,
    MultiHeadSelfAttention,
    deepseek_moe_mini,
    llama_moe_mini,
    tiny_moe,
)

from composed_oracles import (
    composed_attention,
    composed_linear,
    composed_rms_norm,
    full_forward_profile,
)
from test_gradient_estimation import compact_model, flux_tuner
from test_run_checkpoint import ROUND_FIELDS
from test_runtime import build_federation

RTOL = {"float64": 1e-12, "float32": 1e-5}


# -------------------------------------------------------------------- helpers
def draw(shape, dtype="float64", seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def run_node(fn, tensors, upstream):
    """Forward ``fn(*tensors)``, backward ``upstream`` if a graph was built.

    Returns the output data and each input's gradient (``None`` where none
    arrived); gradients are cleared first, so one set of tensors serves both
    the fused node and its oracle.
    """
    for tensor in tensors:
        tensor.grad = None
    out = fn(*tensors)
    if out.requires_grad:
        out.backward(upstream)
    return out.data, [tensor.grad for tensor in tensors]


def assert_same_node(fused, oracle, tensors, rtol, exact=False):
    upstream = draw(oracle(*tensors).shape, tensors[0].dtype, seed=99)
    want_out, want_grads = run_node(oracle, tensors, upstream)
    got_out, got_grads = run_node(fused, tensors, upstream)
    pairs = [("output", got_out, want_out)]
    pairs += [(f"grad[{i}]", got, want) for i, (got, want) in enumerate(zip(got_grads, want_grads))]
    for name, got, want in pairs:
        if want is None:
            assert got is None, name
            continue
        assert got.dtype == want.dtype and got.shape == want.shape, name
        if exact:
            assert np.array_equal(got, want), name
        else:
            np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max(),
                                       err_msg=name)


def assert_gradients_match_finite_differences(fn, tensors, step=1e-6, rtol=1e-6):
    """Central differences of ``sum(fn(*tensors) * R)`` against the analytic gradients."""
    weights = draw(fn(*tensors).shape, seed=7)
    _, grads = run_node(fn, tensors, weights)
    for tensor, grad in zip(tensors, grads):
        numeric = np.zeros_like(tensor.data)
        flat, flat_numeric = tensor.data.reshape(-1), numeric.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            plus = float((fn(*tensors).data * weights).sum())
            flat[i] = original - step
            minus = float((fn(*tensors).data * weights).sum())
            flat[i] = original
            flat_numeric[i] = (plus - minus) / (2.0 * step)
        np.testing.assert_allclose(grad, numeric, rtol=rtol, atol=rtol * np.abs(numeric).max())


def assert_no_graph(out):
    assert not out.requires_grad
    assert out._prev == ()
    assert out._backward is None


def requires_grad_subsets(count):
    return [tuple(bool(bits >> i & 1) for i in range(count)) for bits in range(2 ** count)]


# --------------------------------------------------------------------- linear
class TestLinearNode:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("lead", [(), (5,), (3, 5), (2, 3, 5)])
    def test_matches_the_composition(self, dtype, with_bias, lead):
        tensors = [Tensor(draw(lead + (6,), dtype, 1), requires_grad=True),
                   Tensor(draw((4, 6), dtype, 2), requires_grad=True)]
        if with_bias:
            tensors.append(Tensor(draw((4,), dtype, 3), requires_grad=True))
        assert_same_node(F.linear, composed_linear, tensors, RTOL[dtype])

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("rows", [1, 2, 37])
    def test_two_dimensional_inputs_are_bit_equal(self, dtype, rows):
        """The per-expert loop of the MoE layer runs on this: loop == batched rests on it."""
        tensors = [Tensor(draw((rows, 16), dtype, 1), requires_grad=True),
                   Tensor(draw((24, 16), dtype, 2), requires_grad=True)]
        assert_same_node(F.linear, composed_linear, tensors, rtol=0.0, exact=True)

    @pytest.mark.parametrize("requires", requires_grad_subsets(3))
    def test_every_requires_grad_subset(self, requires):
        shapes = [(3, 5, 6), (4, 6), (4,)]
        tensors = [Tensor(draw(shape, seed=i), requires_grad=flag)
                   for i, (shape, flag) in enumerate(zip(shapes, requires))]
        assert_same_node(F.linear, composed_linear, tensors, RTOL["float64"])
        if not any(requires):
            assert_no_graph(F.linear(*tensors))

    def test_no_grad_builds_no_graph(self):
        layer = Linear(6, 4, rng=np.random.default_rng(0))
        with no_grad():
            assert_no_graph(layer(Tensor(draw((3, 6)), requires_grad=True)))

    def test_finite_differences(self):
        tensors = [Tensor(draw(shape, seed=i), requires_grad=True)
                   for i, shape in enumerate([(2, 3, 5), (4, 5), (4,)])]
        assert_gradients_match_finite_differences(F.linear, tensors)

    def test_feature_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            F.linear(Tensor(draw((4, 6))), Tensor(draw((4, 3))))


# ------------------------------------------------------------------- rms norm
class TestRMSNormNode:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("shape", [(8,), (5, 8), (3, 5, 8)])
    def test_matches_the_composition(self, dtype, shape):
        tensors = [Tensor(draw(shape, dtype, 1), requires_grad=True),
                   Tensor(1.0 + 0.1 * draw((8,), dtype, 2), requires_grad=True)]
        assert_same_node(F.rms_norm, composed_rms_norm, tensors, RTOL[dtype])

    @pytest.mark.parametrize("requires", requires_grad_subsets(2))
    def test_every_requires_grad_subset(self, requires):
        tensors = [Tensor(draw((3, 5, 8), seed=1), requires_grad=requires[0]),
                   Tensor(draw((8,), seed=2), requires_grad=requires[1])]
        assert_same_node(F.rms_norm, composed_rms_norm, tensors, RTOL["float64"])
        if not any(requires):
            assert_no_graph(F.rms_norm(*tensors))

    def test_eps_is_honoured(self):
        tensors = [Tensor(1e-3 * draw((4, 8), seed=1), requires_grad=True),
                   Tensor(draw((8,), seed=2), requires_grad=True)]
        assert_same_node(lambda x, w: F.rms_norm(x, w, eps=1e-2),
                         lambda x, w: composed_rms_norm(x, w, eps=1e-2), tensors, RTOL["float64"])

    def test_no_grad_builds_no_graph(self):
        norm = RMSNorm(8)
        with no_grad():
            assert_no_graph(norm(Tensor(draw((3, 8)), requires_grad=True)))

    def test_finite_differences(self):
        tensors = [Tensor(draw((2, 3, 6), seed=1), requires_grad=True),
                   Tensor(draw((6,), seed=2), requires_grad=True)]
        assert_gradients_match_finite_differences(F.rms_norm, tensors)


# ------------------------------------------------------------------ attention
D_MODEL, N_HEADS = 16, 4


def attention_layer(dtype="float64", seed=0):
    with default_dtype(dtype):
        return MultiHeadSelfAttention(D_MODEL, N_HEADS, rng=np.random.default_rng(seed))


def attention_params(attn):
    return [attn.q_proj.weight, attn.k_proj.weight, attn.v_proj.weight, attn.o_proj.weight]


def assert_same_attention(attn, x, attention_mask, rtol):
    """Fused vs composed attention on one layer: output, g_x, four weight grads, the signal."""
    tensors = [x] + attention_params(attn)
    signals = {}

    def node(forward, name):
        def run(x, *_):
            out = forward(attn, x, attention_mask=attention_mask)
            signals[name] = attn.last_token_attention
            return out
        return run

    assert_same_node(node(MultiHeadSelfAttention.forward, "fused"),
                     node(composed_attention, "composed"), tensors, rtol)
    assert signals["fused"].dtype == signals["composed"].dtype
    np.testing.assert_allclose(signals["fused"], signals["composed"], rtol=rtol, atol=rtol)


PADDED = np.array([[True] * 7, [True] * 4 + [False] * 3, [False] * 7])   # last row fully padded


class TestAttentionNode:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("attention_mask", [None, PADDED], ids=["unmasked", "padded"])
    def test_matches_the_composition(self, dtype, attention_mask):
        attn = attention_layer(dtype)
        x = Tensor(draw((3, 7, D_MODEL), dtype, 1), requires_grad=True)
        assert_same_attention(attn, x, attention_mask, RTOL[dtype])

    @pytest.mark.parametrize("attention_mask", [None, np.array([[True], [False]])],
                             ids=["unmasked", "padded"])
    def test_single_token_sequences(self, attention_mask):
        x = Tensor(draw((2, 1, D_MODEL), seed=1), requires_grad=True)
        assert_same_attention(attention_layer(), x, attention_mask, RTOL["float64"])

    def test_stacked_copies_with_a_tiled_mask(self):
        """The ``ProbePrefix`` contract: the batch axis is free."""
        attn = attention_layer()
        base, mask = draw((3, 7, D_MODEL), seed=1), PADDED
        stacked = Tensor(np.concatenate([base, base + 0.5, base]), requires_grad=True)
        tiled = np.tile(mask, (3, 1))
        assert_same_attention(attn, stacked, tiled, RTOL["float64"])
        with no_grad():
            together = attn(stacked, attention_mask=tiled).data
            signal = attn.last_token_attention
            alone = attn(Tensor(base), attention_mask=mask).data
        for copy in (together[:3], together[6:]):
            np.testing.assert_allclose(copy, alone, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(signal[6:], attn.last_token_attention, rtol=1e-12)

    @pytest.mark.parametrize("requires", requires_grad_subsets(5))
    def test_every_requires_grad_subset(self, requires):
        """x only, weights only, ``o_proj`` only, none, and everything between."""
        attn = attention_layer()
        for param, flag in zip(attention_params(attn), requires[1:]):
            param.requires_grad = flag
        x = Tensor(draw((2, 5, D_MODEL), seed=1), requires_grad=requires[0])
        assert_same_attention(attn, x, PADDED[:2, :5], RTOL["float64"])
        if not any(requires):
            assert_no_graph(attn(x))

    def test_no_grad_builds_no_graph_and_still_records_the_signal(self):
        attn = attention_layer()
        x = Tensor(draw((2, 5, D_MODEL), seed=1), requires_grad=True)
        with no_grad():
            out = attn(x)
        assert_no_graph(out)
        assert attn.last_token_attention.shape == (2, 5)

    def test_finite_differences(self):
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(0))
        x = Tensor(draw((2, 4, 8), seed=1), requires_grad=True)
        mask = np.array([[True] * 4, [True, True, False, False]])
        assert_gradients_match_finite_differences(
            lambda x, *_: attn(x, attention_mask=mask), [x] + attention_params(attn))


def test_float32_stays_float32_end_to_end():
    with default_dtype("float32"):
        attn = MultiHeadSelfAttention(D_MODEL, N_HEADS, rng=np.random.default_rng(0))
        norm, head = RMSNorm(D_MODEL), Linear(D_MODEL, 8, rng=np.random.default_rng(1))
        x = Parameter(draw((2, 5, D_MODEL), "float32"))
        out = head(norm(attn(norm(x), attention_mask=PADDED[:2, :5])))
        out.backward(np.ones(out.shape, dtype=np.float32))
    assert out.dtype == np.float32
    for param in [x, norm.weight, head.weight, head.bias] + attention_params(attn):
        assert param.grad.dtype == np.float32


# ------------------------------------------------------- no graph, no garbage
def test_forward_only_passes_die_by_refcount(vocab, gsm_batches, tiny_model):
    """No node keeps a closure over itself unless it requires grad, so a
    ``no_grad`` forward leaves nothing for the cyclic collector."""
    seen = []
    moe = tiny_model.blocks[0].moe
    forward = moe.forward

    def spy(*args, **kwargs):
        out = forward(*args, **kwargs)
        seen.append(weakref.ref(out.data))
        return out

    moe.forward = spy
    batch = gsm_batches[0]
    gc.collect()
    gc.disable()
    try:
        with no_grad():
            logits = tiny_model.forward(batch.input_ids, attention_mask=batch.attention_mask)
        del logits
        assert len(seen) == 1 and seen[0]() is None
    finally:
        gc.enable()


# -------------------------------------------------- routing-only quantized profile
def assert_profiles_identical(actual: ActivationProfile, expected: ActivationProfile):
    assert actual.num_layers == expected.num_layers
    for field in ("frequencies", "attention_scores", "token_counts"):
        for layer, (got, want) in enumerate(zip(getattr(actual, field), getattr(expected, field))):
            assert np.array_equal(got, want), (field, layer)
    assert actual.sample_sets == expected.sample_sets
    assert actual.total_tokens == expected.total_tokens


def padded_batches(gsm_dataset, vocab, config, count=2, batch_size=6):
    batches = make_batches(gsm_dataset.samples[:count * batch_size], batch_size=batch_size,
                           vocab=vocab, shuffle=False, max_seq_len=config.max_seq_len)
    assert not all(batch.attention_mask.all() for batch in batches), "want padded batches"
    return batches


class TestRoutingOnlyProfile:
    """``profile_activation`` stops at the last router; the full forward is the oracle."""

    @pytest.mark.parametrize("preset", [llama_moe_mini, deepseek_moe_mini, tiny_moe])
    def test_presets_on_padded_batches(self, vocab, gsm_dataset, preset):
        model = MoETransformer(preset(vocab_size=vocab.size))
        batches = padded_batches(gsm_dataset, vocab, model.config)
        assert_profiles_identical(profile_activation(model, batches),
                                  full_forward_profile(model, batches))

    def test_compact_model_with_remapped_experts(self, vocab, gsm_dataset):
        model = MoETransformer(replace(tiny_moe(vocab_size=vocab.size), n_layers=3))
        batches = padded_batches(gsm_dataset, vocab, model.config)
        compact, _, _ = compact_model(model, batches)
        assert_profiles_identical(profile_activation(compact, batches),
                                  full_forward_profile(compact, batches))

    def test_single_layer_model(self, vocab, gsm_dataset):
        model = MoETransformer(replace(tiny_moe(vocab_size=vocab.size), n_layers=1))
        batches = padded_batches(gsm_dataset, vocab, model.config)
        assert_profiles_identical(profile_activation(model, batches),
                                  full_forward_profile(model, batches))

    def test_last_layer_runs_no_expert(self, vocab, gsm_dataset, tiny_model):
        calls = []
        for index, block in enumerate(tiny_model.blocks):
            block.moe._combine_batched = (
                lambda *args, _index=index, _run=block.moe._combine_batched, **kwargs:
                calls.append(_index) or _run(*args, **kwargs))
        batches = padded_batches(gsm_dataset, vocab, tiny_model.config)
        profile_activation(tiny_model, batches)
        assert calls == [0] * len(batches)

    def test_mode_and_accumulation_restored_when_a_pass_raises(self, vocab, gsm_dataset,
                                                               tiny_model):
        batches = padded_batches(gsm_dataset, vocab, tiny_model.config)
        tiny_model.blocks[1].moe.route = lambda *args, **kwargs: 1 / 0
        with pytest.raises(ZeroDivisionError):
            profile_activation(tiny_model, batches)
        assert tiny_model.training

    def test_route_is_the_routing_half_of_forward(self, vocab, gsm_dataset, tiny_model):
        batch = padded_batches(gsm_dataset, vocab, tiny_model.config)[0]
        moe = tiny_model.blocks[0].moe
        x = Tensor(draw((batch.batch_size, batch.seq_len, tiny_model.config.d_model)))
        attention = np.abs(draw((batch.batch_size, batch.seq_len), seed=3))
        kwargs = dict(token_attention=attention, sample_ids=batch.sample_ids,
                      token_mask=batch.attention_mask)
        moe.forward(x, **kwargs)
        forwarded = moe.last_routing
        top_idx, top_weights = moe.route(x, **kwargs)
        routed = moe.last_routing
        assert top_idx.shape == top_weights.shape == (batch.batch_size * batch.seq_len, 2)
        assert routed is not forwarded
        assert np.array_equal(routed.token_counts, forwarded.token_counts)
        assert np.array_equal(routed.attention_sums, forwarded.attention_sums)
        assert np.array_equal(routed.gate_weight_sums, forwarded.gate_weight_sums)
        assert routed.sample_ids == forwarded.sample_ids
        assert routed.total_tokens == forwarded.total_tokens


# ----------------------------------------------------------------- whole runs
def assert_run_results_close(actual, expected, rtol):
    assert actual.method == expected.method
    assert len(actual.rounds) == len(expected.rounds)
    for got, want in zip(actual.rounds, expected.rounds):
        for field_name in ROUND_FIELDS:
            assert getattr(got, field_name) == pytest.approx(getattr(want, field_name), rel=rtol), \
                field_name
        assert got.timeline.participant_times == pytest.approx(want.timeline.participant_times,
                                                               rel=rtol)
    for got, want in zip(actual.tracker.history, expected.tracker.history):
        for field_name in ("simulated_time", "metric_value", "train_loss"):
            assert getattr(got, field_name) == pytest.approx(getattr(want, field_name), rel=rtol), \
                field_name


class TestRunsEqualTheComposedRuns:
    """Whole federated runs on the fused nodes equal the runs on their oracles."""

    ROUNDS = 2
    RTOL = 1e-9

    @staticmethod
    def fmd(vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, num_clients=3, participants_per_round=3)
        return FMDFineTuner(server, participants, test, config=config)

    # The float64 training nodes are held to RTOL with Flux's profiling copy in
    # float64 too; on the float32 copy it ships with, a fused node and its
    # oracle agree on the attention scores to float32 rounding, so that run is
    # an extra, looser case.
    @pytest.mark.parametrize("build, profiling_dtype, rtol", [
        (fmd, None, RTOL), (flux_tuner, "float64", RTOL), (flux_tuner, "float32", 1e-6)],
        ids=["fmd", "flux", "flux-float32-profile"])
    def test_two_rounds(self, vocab, tiny_config, monkeypatch, build, profiling_dtype, rtol):
        if profiling_dtype is not None:
            for module in ("repro.core.profiling", "repro.core.finetuner"):
                monkeypatch.setattr(f"{module}.PROFILING_DTYPE", profiling_dtype)
        calls = []

        def counted(oracle):
            def run(*args, **kwargs):
                calls.append(oracle.__name__)
                return oracle(*args, **kwargs)
            return run

        with monkeypatch.context() as patched:
            patched.setattr(F, "linear", counted(composed_linear))
            patched.setattr(F, "rms_norm", counted(composed_rms_norm))
            patched.setattr(MultiHeadSelfAttention, "forward", counted(composed_attention))
            oracle_tuner = build(vocab, tiny_config)
            oracle_result = oracle_tuner.run(num_rounds=self.ROUNDS)
        assert {"composed_linear", "composed_rms_norm", "composed_attention"} <= set(calls)
        calls.clear()

        tuner = build(vocab, tiny_config)
        result = tuner.run(num_rounds=self.ROUNDS)
        assert not calls
        assert_run_results_close(result, oracle_result, rtol)
        state, oracle_state = (t.server.global_model.state_dict() for t in (tuner, oracle_tuner))
        assert set(state) == set(oracle_state)
        for name, want in oracle_state.items():
            np.testing.assert_allclose(state[name], want, rtol=rtol,
                                       atol=rtol * np.abs(want).max(), err_msg=name)
