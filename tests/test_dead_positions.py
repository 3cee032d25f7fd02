"""Dead positions: what nothing reads never moves what is read.

A position is computed only as far as a reader reads it (``repro.models.moe_layer``,
"Live rows"): padding reaches no expert, and the last block runs its experts
only on the rows the loss or the evaluation reads.  Two consequences are held
here, on the ``tiny``, ``llama`` and ``deepseek`` mini presets:

* pad invariance — whatever token ids sit in the padding, everything real is
  bit-identical: the loss, every expert gradient (value and presence), the
  routing records, the attention received, ``evaluate_model``,
  ``profile_activation`` and ``estimate_expert_gradient``;
* losslessness — against the same state and batch with every position
  computed (``read_oracles.every_position_computed``), the loss and the
  gradient of every expert a live row reaches agree to 1e-12, an expert only
  dead rows reach has an all-zero gradient there, and the routing records
  count the same tokens and samples.
  Their float sums agree to 1e-12, not bit for bit: an expert GEMM over fewer
  rows may round differently on small shapes, and the next layer's gate sees
  that.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.metrics.evaluation as evaluation
from repro.analysis import profile_activation
from repro.autograd import Tensor
from repro.core import estimate_expert_gradient
from repro.data import IGNORE_INDEX, make_batches, make_dolly_like, make_gsm8k_like
from repro.federated import Participant
from repro.metrics import evaluate_model
from repro.models import (
    LoRAExpert,
    MoELayer,
    MoETransformer,
    deepseek_moe_mini,
    llama_moe_mini,
    tiny_moe,
)

from composed_oracles import loop_oracle
from read_oracles import every_position_computed

PRESETS = {"tiny": tiny_moe, "llama": llama_moe_mini, "deepseek": deepseek_moe_mini}


# -------------------------------------------------------------------- helpers
def padded_batches(dataset, vocab, model, count=2, batch_size=6):
    batches = make_batches(dataset.samples[:count * batch_size], batch_size=batch_size,
                           vocab=vocab, shuffle=False, max_seq_len=model.config.max_seq_len)
    assert all(not batch.attention_mask.all() for batch in batches), "want padded batches"
    return batches


def refill_padding(batch, rng, vocab_size):
    """``batch`` with every padding token id redrawn from ``rng``."""
    input_ids = batch.input_ids.copy()
    pads = ~batch.attention_mask
    input_ids[pads] = rng.integers(0, vocab_size, size=int(pads.sum()))
    return dataclasses.replace(batch, input_ids=input_ids)


def record_fields(record):
    return (record.token_counts.copy(), record.attention_sums.copy(),
            record.gate_weight_sums.copy(), [sorted(s) for s in record.sample_ids],
            record.total_tokens)


def training_pass(model, batch):
    """One expert-only training pass: loss, expert gradients, records, attention received."""
    model.freeze_non_expert_parameters()
    model.zero_grad()
    loss = model.compute_loss(batch.input_ids, labels=batch.labels,
                              attention_mask=batch.attention_mask, sample_ids=batch.sample_ids)
    if loss.requires_grad:
        loss.backward()
    grads = {name: None if param.grad is None else param.grad.copy()
             for name, param in model.named_parameters() if ".experts." in name}
    model.zero_grad()
    return {
        "loss": loss.data.copy(),
        "grads": grads,
        "records": [record_fields(record) for record in model.routing_records()],
        "attention": [block.attn.last_token_attention.copy() for block in model.blocks],
    }


def probe_targets(model, batches):
    """(layer, expert) pairs the probe batches reach: the busiest expert of the
    first and of the last layer."""
    profile = profile_activation(model, batches)
    return [(layer, int(np.argmax(profile.token_counts[layer])))
            for layer in (0, model.num_layers - 1)]


def observe(model, batches, eval_sets, targets, rng=None):
    """Everything real a model computes from ``batches``, with the padding
    refilled from ``rng`` (``None``: the padding id)."""
    vocab_size = model.config.vocab_size
    if rng is not None:
        batches = [refill_padding(batch, rng, vocab_size) for batch in batches]
    seen = {"passes": [training_pass(model, batch) for batch in batches]}
    profile = profile_activation(model, batches)
    seen["profile"] = (profile.frequencies, profile.attention_scores, profile.token_counts,
                       profile.sample_sets, profile.total_tokens)
    seen["estimates"] = [
        estimate_expert_gradient(model, batches, layer, expert, num_perturbations=2).gradient
        for layer, expert in targets]

    def refilled(*args, **kwargs):
        made = make_batches(*args, **kwargs)
        return made if rng is None else [refill_padding(b, rng, vocab_size) for b in made]

    with mock.patch.object(evaluation, "make_batches", refilled):
        seen["metrics"] = [evaluate_model(model, dataset, batch_size=6, max_samples=12)
                           for dataset in eval_sets]
    return seen


def assert_identical(actual, expected, path="seen"):
    """Bit-identical nested structures (``None`` where ``None``)."""
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), path
        for key in expected:
            assert_identical(actual[key], expected[key], f"{path}[{key!r}]")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), path
        for index, (got, want) in enumerate(zip(actual, expected)):
            assert_identical(got, want, f"{path}[{index}]")
    elif expected is None:
        assert actual is None, path
    elif isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray) and np.array_equal(actual, expected), path
    else:
        assert actual == expected, path


@pytest.fixture(scope="module")
def setups(vocab, gsm_dataset):
    """Per preset: model, probe batches, evaluation sets, probe targets, reference observation."""
    eval_sets = [make_gsm8k_like(vocab=vocab, num_samples=24, seed=3),
                 make_dolly_like(vocab=vocab, num_samples=24, seed=3)]
    built = {}
    for name, preset in PRESETS.items():
        model = MoETransformer(preset(vocab_size=vocab.size))
        batches = padded_batches(gsm_dataset, vocab, model)
        targets = probe_targets(model, batches)
        built[name] = (model, batches, eval_sets, targets,
                       observe(model, batches, eval_sets, targets))
    return built


# ------------------------------------------------------------- pad invariance
@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_padding_ids_move_nothing_real(setups, preset, seed):
    model, batches, eval_sets, targets, reference = setups[preset]
    refilled = observe(model, batches, eval_sets, targets, rng=np.random.default_rng(seed))
    assert_identical(refilled, reference)


def test_the_reference_observation_is_not_trivial(setups):
    """Guards the invariance test: gradients arrive, some experts get none,
    probes are nonzero and the attention signal is live."""
    for model, _, _, _, reference in setups.values():
        grads = [g for one in reference["passes"] for g in one["grads"].values()]
        assert any(g is not None and g.any() for g in grads)
        assert all(np.any(g) for estimate in reference["estimates"] for g in estimate.values())
        assert all(a[0].any() for one in reference["passes"] for a in one["attention"])
    deepseek = setups["deepseek"][4]["passes"][0]["grads"]
    assert any(g is None for g in deepseek.values())


# ------------------------------------------------------ every-position oracle
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_matches_the_every_position_oracle(setups, preset):
    model, batches, _, _, _ = setups[preset]
    for batch in batches:
        got = training_pass(model, batch)
        with every_position_computed():
            want = training_pass(model, batch)
        np.testing.assert_allclose(got["loss"], want["loss"], rtol=1e-12, atol=0)
        for name, oracle in want["grads"].items():
            if got["grads"][name] is None:          # only dead rows reached it
                assert oracle is None or not oracle.any(), name
            else:
                np.testing.assert_allclose(got["grads"][name], oracle, rtol=1e-12,
                                           atol=1e-12 * np.abs(oracle).max(), err_msg=name)
        for layer, (mine, theirs) in enumerate(zip(got["records"], want["records"])):
            counts, attention, gate_weights, samples, total = mine
            assert np.array_equal(counts, theirs[0]), layer
            assert samples == theirs[3] and total == theirs[4], layer
            np.testing.assert_allclose(attention, theirs[1], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gate_weights, theirs[2], rtol=1e-12, atol=1e-12)


def test_read_rows_are_the_full_forward_rows(setups):
    model, batches, _, _, _ = setups["llama"]
    batch = batches[0]
    read = np.flatnonzero(batch.labels.reshape(-1) != IGNORE_INDEX)
    full = model.forward(batch.input_ids, attention_mask=batch.attention_mask).data
    rows = model.forward(batch.input_ids, attention_mask=batch.attention_mask, read=read).data
    assert rows.shape == (read.size, model.config.vocab_size)
    np.testing.assert_allclose(rows, full.reshape(-1, full.shape[-1])[read], rtol=1e-12,
                               atol=1e-12 * np.abs(full).max())


# ------------------------------------------------------------- the MoE layer
@pytest.mark.parametrize("kernel", ["batched", "loop", "lora"])
@pytest.mark.parametrize("shared", [0, 1])
def test_dead_rows_output_zero_and_pull_no_gradient(kernel, shared):
    """On the kernel, on the loop oracle, and on the loop as LoRA-wrapped experts run it."""
    layer = MoELayer(16, 24, 6, 2, num_shared_experts=shared, rng=np.random.default_rng(0))
    if kernel == "loop":
        loop_oracle(layer)
    elif kernel == "lora":
        for index, expert in enumerate(layer.experts):
            layer.experts[index] = LoRAExpert(expert, rank=2, rng=np.random.default_rng(index))
        assert not layer._can_batch()
    x = Tensor(np.random.default_rng(1).standard_normal((2, 5, 16)), requires_grad=True)
    mask = np.array([[True] * 5, [True, True, False, False, False]])
    read = np.array([0, 3, 4, 6, 8])                    # 8 is padding
    out = layer(x, token_mask=mask, read=read)
    dead = np.ones(10, dtype=bool)
    dead[[0, 3, 4, 6]] = False
    assert not out.data.reshape(10, 16)[dead].any()
    out.backward(np.ones(out.shape))
    assert not x.grad.reshape(10, 16)[dead].any()
    assert layer.last_routing.total_tokens == 7         # every real token is counted
    top_idx, _ = layer.route(x, token_mask=mask)
    live = np.zeros(10, dtype=bool)
    live[[0, 3, 4, 6]] = True
    reached = set(top_idx[live].reshape(-1).tolist())
    for index, expert in enumerate(layer.experts):
        pulled = any(param.grad is not None for param in expert.parameters())
        assert pulled == (index in reached), index
    for expert in layer.shared_experts:
        assert expert.w_up.weight.grad is not None


def test_a_batch_with_no_supervised_position_takes_no_step(vocab, gsm_dataset):
    model = MoETransformer(tiny_moe(vocab_size=vocab.size))
    batch = padded_batches(gsm_dataset, vocab, model, count=1)[0]
    unsupervised = dataclasses.replace(batch, labels=np.full_like(batch.labels, IGNORE_INDEX))
    model.freeze_non_expert_parameters()
    loss = model.compute_loss(unsupervised.input_ids, labels=unsupervised.labels,
                              attention_mask=unsupervised.attention_mask)
    assert loss.requires_grad is False and loss.item() == 0.0
    before = model.state_dict()
    participant = Participant(0, dataset=make_gsm8k_like(vocab=vocab, num_samples=4))
    result = participant.local_finetune(model, [unsupervised])
    assert result.expert_grad_norms == {} and result.num_batches == 1
    after = model.state_dict()
    assert all(np.array_equal(before[name], after[name]) for name in before)
