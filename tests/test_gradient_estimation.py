"""The forward-only gradient probe: prefix-cached, stacked estimator vs the legacy loop.

``legacy_estimate`` below is the estimator this repo shipped before the
partial-forward fast path — ``2 * num_perturbations`` full-model forwards, one
perturbation at a time.  It lives only here, as the oracle.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.core.flux_client as flux_client
from repro.analysis import profile_activation
from repro.autograd import no_grad
from repro.core import (
    EpsilonSchedule,
    FluxClientState,
    FluxConfig,
    FluxFineTuner,
    GradientEstimate,
    build_compact_model,
    estimate_expert_gradient,
    plan_compact_model,
    true_expert_gradient,
)
from repro.core.assignment import RoleAssignment
from repro.core.gradient_estimation import ProbePrefix
from repro.data import Batch, make_batches, make_gsm8k_like
from repro.federated import ParameterServer, Participant, ParticipantResources
from repro.models import MoETransformer, tiny_moe
from repro.quantization import quantize_model
from repro.runtime import latest_checkpoint

from composed_oracles import loop_oracle
from test_run_checkpoint import assert_models_equal, assert_run_results_equal
from test_runtime import build_federation

RTOL = {"float64": 1e-9, "float32": 1e-3}


def legacy_estimate(model, batches, layer, expert, num_perturbations=4, sigma=1e-2,
                    seed=0, prefix=None) -> GradientEstimate:
    def mean_loss() -> float:
        with no_grad():
            return float(np.mean([
                model.compute_loss(b.input_ids, labels=b.labels,
                                   attention_mask=b.attention_mask).item() for b in batches]))

    rng = np.random.default_rng(seed)
    target = model.get_expert(layer, expert)
    original = target.state()
    accumulated = {name: np.zeros_like(value) for name, value in original.items()}
    try:
        for _ in range(num_perturbations):
            direction = {name: rng.standard_normal(v.shape) for name, v in original.items()}
            target.load_state({n: original[n] + sigma * direction[n] for n in original})
            loss_plus = mean_loss()
            target.load_state({n: original[n] - sigma * direction[n] for n in original})
            coefficient = (loss_plus - mean_loss()) / (2.0 * sigma)
            for name in original:
                accumulated[name] += coefficient * direction[name]
    finally:
        target.load_state(original)
    gradient = {name: value / num_perturbations for name, value in accumulated.items()}
    return GradientEstimate(layer, expert, gradient, num_perturbations)


def assert_matches_oracle(model, batches, layer, expert, rtol, **kwargs):
    before = model.state_dict()
    oracle = legacy_estimate(model, batches, layer, expert, **kwargs)
    estimate = estimate_expert_gradient(model, batches, layer, expert, **kwargs)
    scale = max(np.abs(g).max() for g in oracle.gradient.values())
    for name, expected in oracle.gradient.items():
        assert estimate.gradient[name].dtype == expected.dtype
        np.testing.assert_allclose(estimate.gradient[name], expected, rtol=rtol,
                                   atol=rtol * scale, err_msg=name)
    assert estimate.norm() == pytest.approx(oracle.norm(), rel=rtol)
    after = model.state_dict()
    assert all(np.array_equal(before[name], after[name]) for name in before)
    return estimate


def build_model(vocab, dtype="float64", **overrides) -> MoETransformer:
    config = replace(tiny_moe(vocab_size=vocab.size, dtype=dtype), n_layers=3, **overrides)
    return MoETransformer(config)


def probe_batches(gsm_dataset, vocab, model, count=1, batch_size=6):
    batches = make_batches(gsm_dataset.samples[:count * batch_size], batch_size=batch_size,
                           vocab=vocab, shuffle=False, max_seq_len=model.config.max_seq_len)
    assert not all(batch.attention_mask.all() for batch in batches), "want padded batches"
    return batches


def compact_model(model, batches):
    """A compact model with tuning, preserved-frozen and merged slots in every layer."""
    profile = profile_activation(model, batches)
    layers = range(model.num_layers)
    plan = plan_compact_model(model, {layer: [1] for layer in layers}, profile,
                              max_non_tuning_slots=model.num_layers,
                              preserved_frozen={layer: [3] for layer in layers})
    compact, tuning_slots, frozen_slots = build_compact_model(
        MoETransformer.copy_of(model), plan, profile)
    assert not any(block.moe.remap.is_identity() for block in compact.blocks)
    return compact, tuning_slots, frozen_slots


# ------------------------------------------------------------------ estimator
class TestAgainstLegacyOracle:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("layer", [0, 1, 2])
    @pytest.mark.parametrize("num_perturbations", [1, 4])
    def test_every_layer_on_a_padded_batch(self, vocab, gsm_dataset, dtype, layer,
                                           num_perturbations):
        model = build_model(vocab, dtype)
        batches = probe_batches(gsm_dataset, vocab, model)
        assert_matches_oracle(model, batches, layer, 2, RTOL[dtype],
                              num_perturbations=num_perturbations, seed=layer + 5)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_multi_batch_probe(self, vocab, gsm_dataset, dtype):
        model = build_model(vocab, dtype)
        batches = probe_batches(gsm_dataset, vocab, model, count=3, batch_size=4)
        assert len({batch.seq_len for batch in batches}) > 1, "want differently shaped batches"
        assert_matches_oracle(model, batches, 1, 0, RTOL[dtype], num_perturbations=2)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_compact_model_with_remapped_experts(self, vocab, gsm_dataset, dtype):
        model = build_model(vocab, dtype)
        batches = probe_batches(gsm_dataset, vocab, model)
        compact, tuning_slots, frozen_slots = compact_model(model, batches)
        for layer, slot in list(tuning_slots)[:2] + list(frozen_slots):
            assert_matches_oracle(compact, batches, layer, slot, RTOL[dtype],
                                  num_perturbations=2)

    def test_deepseek_shared_experts(self, vocab, gsm_dataset):
        model = build_model(vocab, num_shared_experts=1)
        assert len(model.blocks[0].moe.shared_experts) == 1
        batches = probe_batches(gsm_dataset, vocab, model)
        for layer in (0, 2):
            assert_matches_oracle(model, batches, layer, 1, RTOL["float64"])

    def test_loop_dispatch(self, vocab, gsm_dataset):
        model = loop_oracle(build_model(vocab))
        batches = probe_batches(gsm_dataset, vocab, model)
        assert_matches_oracle(model, batches, 1, 3, RTOL["float64"], num_perturbations=2)

    @pytest.mark.parametrize("cap", [1, 13, 10_000])
    def test_any_split_of_the_stack_into_passes(self, vocab, gsm_dataset, monkeypatch, cap):
        import repro.core.gradient_estimation as gradient_estimation

        monkeypatch.setattr(gradient_estimation, "_MAX_STACKED_SEQUENCES", cap)
        model = build_model(vocab)
        batches = probe_batches(gsm_dataset, vocab, model, count=2, batch_size=6)
        assert_matches_oracle(model, batches, 0, 1, RTOL["float64"], num_perturbations=3)

    def test_expert_without_probe_tokens_estimates_exactly_zero(self, vocab, gsm_dataset):
        model = build_model(vocab, num_experts=8)
        full = probe_batches(gsm_dataset, vocab, model)[0]
        # 3 tokens x top-2 routing reach at most 6 of the 8 experts of a layer
        tokens = 3
        batch = Batch(input_ids=full.input_ids[:1, :tokens],
                      attention_mask=full.attention_mask[:1, :tokens],
                      labels=full.input_ids[:1, :tokens], sample_ids=full.sample_ids[:1],
                      samples=full.samples[:1])
        prefix = ProbePrefix(model, [batch], [1])
        idle = sorted(set(range(8)) - set(prefix.entries[1][0].active_slots.tolist()))
        assert idle
        estimate = estimate_expert_gradient(model, [batch], 1, idle[0], prefix=prefix)
        oracle = legacy_estimate(model, [batch], 1, idle[0])
        for name, value in estimate.gradient.items():
            assert value.shape == oracle.gradient[name].shape
            assert not value.any() and not oracle.gradient[name].any()
        assert estimate.norm() == 0.0
        busy = int(prefix.entries[1][0].active_slots[0])
        assert estimate_expert_gradient(model, [batch], 1, busy, prefix=prefix).norm() > 0

    def test_same_seed_same_estimate_different_seed_differs(self, vocab, gsm_dataset):
        model = build_model(vocab)
        batches = probe_batches(gsm_dataset, vocab, model)
        first = estimate_expert_gradient(model, batches, 0, 0, seed=3)
        again = estimate_expert_gradient(model, batches, 0, 0, seed=3)
        other = estimate_expert_gradient(model, batches, 0, 0, seed=4)
        assert np.array_equal(first.flatten(), again.flatten())
        assert not np.array_equal(first.flatten(), other.flatten())


class TestProbeSafety:
    def test_noisy_model_probes_in_eval_mode_and_keeps_its_mode(self, vocab, gsm_dataset):
        """With dropout the +sigma and -sigma losses must see the same model."""
        model = build_model(vocab, dropout=0.1, gate_noise_std=0.05)
        batches = probe_batches(gsm_dataset, vocab, model)
        for training in (True, False):
            model.train(training)
            first = estimate_expert_gradient(model, batches, 1, 2, seed=9)
            again = estimate_expert_gradient(model, batches, 1, 2, seed=9)
            assert np.array_equal(first.flatten(), again.flatten())
            assert all(module.training is training for module in model.modules())

    def test_weights_and_mode_restored_when_a_forward_raises(self, vocab, gsm_dataset):
        model = build_model(vocab)
        batches = probe_batches(gsm_dataset, vocab, model)
        prefix = ProbePrefix(model, batches, [1])
        before = model.state_dict()
        moe = model.blocks[1].moe
        healthy, calls = moe.forward, []

        def fails_on_third_call(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("boom")
            return healthy(*args, **kwargs)

        moe.forward = fails_on_third_call
        try:
            with pytest.raises(RuntimeError, match="boom"):
                estimate_expert_gradient(model, batches, 1, 2, prefix=prefix)
        finally:
            del moe.forward
        after = model.state_dict()
        assert all(np.array_equal(before[name], after[name]) for name in before)
        assert model.training
        # the prefix is still good: nothing below the experts was touched
        assert_matches_oracle(model, batches, 1, 2, RTOL["float64"])

    def test_prefix_refuses_other_inputs(self, vocab, gsm_dataset):
        model = build_model(vocab)
        batches = probe_batches(gsm_dataset, vocab, model, count=2)
        prefix = ProbePrefix(model, batches, [0, 2])
        with pytest.raises(ValueError, match="different model"):
            estimate_expert_gradient(build_model(vocab), batches, 0, 0, prefix=prefix)
        with pytest.raises(ValueError, match="different batches"):
            estimate_expert_gradient(model, batches[:1], 0, 0, prefix=prefix)
        with pytest.raises(ValueError, match="different batches"):
            estimate_expert_gradient(model, batches[::-1], 0, 0, prefix=prefix)
        with pytest.raises(ValueError, match="does not cover layer 1"):
            estimate_expert_gradient(model, batches, 1, 0, prefix=prefix)
        with pytest.raises(ValueError, match="outside the model"):
            ProbePrefix(model, batches, [3])
        with pytest.raises(ValueError, match="at least one batch"):
            ProbePrefix(model, [], [0])

    def test_shared_prefix_runs_the_base_model_once(self, vocab, gsm_dataset):
        model = build_model(vocab)
        batches = probe_batches(gsm_dataset, vocab, model, count=2)
        embeds = []
        healthy = model.embed
        model.embed = lambda ids: embeds.append(1) or healthy(ids)
        prefix = ProbePrefix(model, batches, [0, 1, 2])
        assert len(embeds) == len(batches)
        shared = [estimate_expert_gradient(model, batches, layer, expert, prefix=prefix)
                  for layer in (0, 1, 2) for expert in (0, 1)]
        assert len(embeds) == len(batches)
        alone = [estimate_expert_gradient(model, batches, layer, expert)
                 for layer in (0, 1, 2) for expert in (0, 1)]
        assert len(embeds) == len(batches) * (1 + len(alone))
        for a, b in zip(shared, alone):
            assert np.array_equal(a.flatten(), b.flatten())

    def test_true_gradient_leaves_trainability_alone(self, vocab, gsm_dataset, gsm_batches):
        model = MoETransformer(tiny_moe(vocab_size=vocab.size))
        model.freeze_non_expert_parameters()
        model.set_expert_trainable(0, 3, False)
        flags = {name: p.requires_grad for name, p in model.named_parameters()}
        assert any(flags.values()) and not all(flags.values())
        true_expert_gradient(model, gsm_batches[:1], 0, 1)
        assert {n: p.requires_grad for n, p in model.named_parameters()} == flags
        assert all(p.grad is None for p in model.parameters())

        before = {key: model.expert_state(*key) for key in [(0, 0), (1, 2)]}
        participant = Participant(0, gsm_dataset, resources=ParticipantResources(4, 2))
        participant.local_finetune(model, gsm_batches[:1], trainable_experts=set(before))
        for key, state in before.items():
            assert any(not np.array_equal(state[name], value)
                       for name, value in model.expert_state(*key).items()), key


# ---------------------------------------------------------- partial forward
class TestPartialForward:
    @pytest.mark.parametrize("masked", [True, False])
    def test_pieces_equal_forward_bit_for_bit(self, vocab, gsm_dataset, masked):
        model = build_model(vocab)
        batch = probe_batches(gsm_dataset, vocab, model)[0]
        mask = batch.attention_mask if masked else None
        with no_grad():
            expected = model.forward(batch.input_ids, attention_mask=mask).data
            hidden = model.forward_hidden(batch.input_ids, attention_mask=mask).data
            for split in range(model.num_layers + 1):
                x = model.run_blocks(model.embed(batch.input_ids), 0, split,
                                     attention_mask=mask)
                x = model.run_blocks(x, split, attention_mask=mask)
                assert np.array_equal(model.logits(x).data, expected)
                assert np.array_equal(model.final_norm(x).data, hidden)

    def test_block_halves_equal_block_forward(self, vocab, gsm_dataset):
        model = build_model(vocab)
        batch = probe_batches(gsm_dataset, vocab, model)[0]
        block = model.blocks[1]
        with no_grad():
            x = model.run_blocks(model.embed(batch.input_ids), 0, 1,
                                 attention_mask=batch.attention_mask)
            expected = block(x, attention_mask=batch.attention_mask).data
            residual = block.attention_half(x, attention_mask=batch.attention_mask)
            halves = block.moe_half(residual, attention_mask=batch.attention_mask,
                                    normed=block.moe_norm(residual))
        assert np.array_equal(halves.data, expected)

    def test_copies_stacked_along_the_batch_axis_are_independent(self, vocab, gsm_dataset):
        model = build_model(vocab)
        batch = probe_batches(gsm_dataset, vocab, model)[0]
        with no_grad():
            x = model.embed(batch.input_ids)
            alone = model.logits(model.run_blocks(x, attention_mask=batch.attention_mask)).data
            twice = type(x)(np.concatenate([x.data, x.data]))
            stacked = model.logits(model.run_blocks(
                twice, attention_mask=np.tile(batch.attention_mask, (2, 1)))).data
        np.testing.assert_allclose(stacked[:len(alone)], alone, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(stacked[len(alone):], alone, rtol=1e-12, atol=1e-12)

    def test_embed_validates_like_forward(self, vocab):
        model = build_model(vocab)
        assert model.embed(np.arange(5)).shape == (1, 5, model.config.d_model)
        with pytest.raises(ValueError, match="max_seq_len"):
            model.embed(np.zeros((1, model.config.max_seq_len + 1), dtype=np.int64))


# ----------------------------------------------------------------- one round
class CountingPrefix(ProbePrefix):
    built = []

    def __init__(self, model, batches, layers):
        super().__init__(model, batches, layers)
        CountingPrefix.built.append((len(self.batches), sorted(self.entries)))


def test_client_builds_one_prefix_per_participant_round(vocab, tiny_model, monkeypatch):
    dataset = make_gsm8k_like(vocab=vocab, num_samples=60, seed=17)
    participant = Participant(7, dataset, resources=ParticipantResources(6, 3), seed=3)
    state = FluxClientState(participant, FluxConfig(seed=1))
    assignment = RoleAssignment(participant_id=7, exploitation=[(0, 0)],
                                exploration=[(0, 3), (1, 1), (1, 2)],
                                candidates=[(0, 0), (0, 3), (1, 1), (1, 2)], epsilon=0.5)
    estimates = []

    def counted(*args, **kwargs):
        estimates.append(kwargs["prefix"])
        return estimate_expert_gradient(*args, **kwargs)

    monkeypatch.setattr(CountingPrefix, "built", [])
    monkeypatch.setattr(flux_client, "ProbePrefix", CountingPrefix)
    monkeypatch.setattr(flux_client, "estimate_expert_gradient", counted)
    server = ParameterServer(tiny_model)
    for expected_rounds in (1, 2):
        with server.training_replica() as replica:
            state.run_round(model=replica, assignment=assignment, learning_rate=5e-3,
                            batch_size=8, max_batches=1)
        assert CountingPrefix.built == [(1, [0, 1])] * expected_rounds
        assert len(estimates) == 3 * expected_rounds
    assert len({id(prefix) for prefix in estimates[:3]}) == 1
    assert estimates[0] is not estimates[3]


# ----------------------------------------------------------------- whole runs
def flux_tuner(vocab, tiny_config, **config_kwargs):
    server, participants, test, config = build_federation(
        vocab, tiny_config, num_clients=3, participants_per_round=3, **config_kwargs)
    flux_config = FluxConfig(seed=0, epsilon=EpsilonSchedule.fixed(0.5))
    return FluxFineTuner(server, participants, test, config=config, flux_config=flux_config)


class TestRunsEqualTheOracleRun:
    """Probe results feed only utilities, so whole runs must not move at all."""

    ROUNDS = 3      # stale profiling: what round r measures is first used in round r + 1

    @pytest.fixture()
    def oracle_run(self, vocab, tiny_config, monkeypatch):
        probes = []

        def oracle(*args, **kwargs):
            probes.append(1)
            return legacy_estimate(*args, **kwargs)

        with monkeypatch.context() as patched:
            patched.setattr(flux_client, "estimate_expert_gradient", oracle)
            tuner = flux_tuner(vocab, tiny_config)
            result = tuner.run(num_rounds=self.ROUNDS)
        assert probes, "the run must exercise the estimator"
        assert flux_client.estimate_expert_gradient is estimate_expert_gradient
        return tuner, result

    def assert_same_run(self, tuner, result, oracle_run):
        oracle_tuner, oracle_result = oracle_run
        assert_run_results_equal(result, oracle_result)
        assert_models_equal(tuner.server.global_model, oracle_tuner.server.global_model)
        for pid, state in tuner.states.items():
            expected = oracle_tuner.states[pid].utilities.as_dict()
            assert state.utilities.as_dict() == pytest.approx(expected, rel=1e-9)

    def test_serial_clients(self, vocab, tiny_config, oracle_run):
        tuner = flux_tuner(vocab, tiny_config)
        self.assert_same_run(tuner, tuner.run(num_rounds=self.ROUNDS), oracle_run)

    def test_kill_and_resume(self, vocab, tiny_config, oracle_run, tmp_path):
        durable = dict(checkpoint_every=1, checkpoint_dir=str(tmp_path))
        killed = flux_tuner(vocab, tiny_config, **durable)
        killed.run(num_rounds=1)
        resumed = flux_tuner(vocab, tiny_config, **durable)
        result = resumed.run(num_rounds=self.ROUNDS, resume_from=latest_checkpoint(str(tmp_path)))
        self.assert_same_run(resumed, result, oracle_run)

    def test_resume_on_a_used_tuner_drops_its_quantized_copy(self, vocab, tiny_config,
                                                              oracle_run, tmp_path):
        durable = dict(checkpoint_every=1, checkpoint_dir=str(tmp_path), checkpoint_keep_last=0)
        tuner = flux_tuner(vocab, tiny_config, **durable)
        tuner.run(num_rounds=self.ROUNDS)
        first_snapshot = sorted(p for p in tmp_path.iterdir() if p.is_dir())[0]
        # Same object, rewound to round 1: a copy keyed on a round index the
        # restored server will reach again must not survive the import.
        bits = tuner.flux_config.profiling_bits
        stranger = MoETransformer(replace(tiny_config, seed=tiny_config.seed + 1))
        tuner._quantized = ((1, bits), quantize_model(stranger, bits))
        result = tuner.run(num_rounds=self.ROUNDS, resume_from=str(first_snapshot))
        self.assert_same_run(tuner, result, oracle_run)
