"""A Flux round profiles all its participants in shared passes on one quantized copy.

``repro.analysis.profile_round`` runs every participant's profiling batches
through the round's quantized global model in length-sorted passes of at most
``PASS_SEQUENCES`` sequences, and ``MoELayer`` splits each pass's routing
statistics per participant as it records them.  The oracle is each
participant profiled alone: ``profile_activation`` on its own batches (the
one-participant case) and ``per_batch_profile`` (one pass per batch, what
every participant ran before, ``tests/plan_oracles.py``).  The copy is
float32, so attention scores and gate-weight sums are held to 1e-6 relative
(1e-5 against one pass per batch) and everything counted — token counts,
totals, sample sets — to equality.

``FluxFineTuner.prepare_round`` is where a run calls it: after faults dropped
clients, so a dropped participant draws nothing and every participant draws
the profiling and training batches its own round drew before.
"""

from __future__ import annotations

import io
import pickle

import numpy as np
import pytest
from plan_oracles import per_batch_profile
from test_run_checkpoint import assert_models_equal, assert_run_results_equal, build_flux_tuner

import repro.analysis.activation as activation_module
import repro.core.finetuner as finetuner_module
from repro.analysis import profile_activation, profile_round
from repro.analysis.activation import PASS_SEQUENCES, profiling_passes
from repro.autograd import Tensor
from repro.core import FluxFineTuner
from repro.core.profiling import PROFILING_DTYPE
from repro.data import Vocabulary, make_batches, make_dataset
from repro.federated import Participant
from repro.models import GroupedRouting, MoELayer, MoETransformer, deepseek_moe_mini, llama_moe_mini
from repro.quantization import quantize_model
from repro.runtime import latest_checkpoint

COUNTED = ("token_counts", "frequencies")


def participants_batches(vocab, model, seed, participants=6):
    """Each participant's batches: different sizes and lengths, 98 sequences in all."""
    dolly = make_dataset("dolly", vocab=vocab, num_samples=60, seed=seed)
    gsm = make_dataset("gsm8k", vocab=vocab, num_samples=60, seed=seed + 1)
    samples = dolly.samples[:49] + gsm.samples[:49]
    np.random.default_rng(seed).shuffle(samples)
    cuts = np.linspace(0, len(samples), participants + 1).astype(int)
    return [make_batches(samples[start:stop], 6 + index % 3, vocab, seed=seed + index,
                         max_seq_len=model.config.max_seq_len)
            for index, (start, stop) in enumerate(zip(cuts, cuts[1:]))]


def assert_profiles_match(got, want, rtol=1e-6):
    assert got.total_tokens == want.total_tokens
    assert got.sample_sets == want.sample_sets
    for field in COUNTED:
        for mine, theirs in zip(getattr(got, field), getattr(want, field)):
            assert np.array_equal(mine, theirs), field
    for mine, theirs in zip(got.attention_scores, want.attention_scores):
        np.testing.assert_allclose(mine, theirs, rtol=rtol, atol=0)


class TestProfileRound:
    @pytest.mark.parametrize("preset", [llama_moe_mini, deepseek_moe_mini],
                             ids=["llama", "deepseek"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_participant_as_if_profiled_alone(self, preset, seed):
        vocab = Vocabulary(size=256, num_topics=8)
        model = MoETransformer(preset(vocab_size=vocab.size, seed=seed))
        copy = quantize_model(model, 4, dtype=PROFILING_DTYPE)
        groups = participants_batches(vocab, model, seed)
        assert len(list(profiling_passes(groups))) == 2     # 98 sequences, interleaved
        profiles = profile_round(copy, groups)
        assert len(profiles) == len(groups)
        for profile, batches in zip(profiles, groups):
            assert_profiles_match(profile, profile_activation(copy, batches))
            # one pass per batch pads and sums differently again: up to 1.1e-6
            # relative on these cases, against the shared pass and against
            # the participant's own passes alike
            assert_profiles_match(profile, per_batch_profile(copy, batches), rtol=1e-5)
            assert profile.total_tokens == sum(batch.num_tokens for batch in batches)

    def test_one_participant_is_profile_activation(self, tiny_model, gsm_batches):
        alone = profile_round(tiny_model, [gsm_batches])[0]
        again = profile_activation(tiny_model, gsm_batches)
        assert_profiles_match(alone, again, rtol=0)

    def test_rejects_a_participant_without_batches(self, tiny_model, gsm_batches):
        for groups in ([], [gsm_batches, []]):
            with pytest.raises(ValueError, match="at least one batch"):
                profile_round(tiny_model, groups)

    def test_model_left_as_found_when_a_pass_raises(self, tiny_model, gsm_batches):
        tiny_model.blocks[-1].moe.route = lambda *args, **kwargs: 1 / 0
        with pytest.raises(ZeroDivisionError):
            profile_round(tiny_model, [gsm_batches, gsm_batches])
        assert tiny_model.training
        assert all(layer.routing_groups is None for layer in tiny_model.moe_layers())


class TestPasses:
    def test_sorted_bounded_and_covering_every_real_token(self, vocab, tiny_config):
        model = MoETransformer(tiny_config)
        groups = participants_batches(vocab, model, seed=3)
        rows = [(sid, group, batch.attention_mask[row])
                for group, batches in enumerate(groups) for batch in batches
                for row, sid in enumerate(batch.sample_ids)]
        passes = list(profiling_passes(groups))
        assert len(passes) == -(-len(rows) // PASS_SEQUENCES)
        seen = []
        longest = 0
        for input_ids, mask, sample_ids, participant in passes:
            assert len(sample_ids) <= PASS_SEQUENCES
            assert input_ids.shape == mask.shape and mask[:, -1].any()
            lengths = mask.sum(axis=1)
            assert np.all(np.diff(lengths) >= 0) and lengths[0] >= longest
            longest = lengths[-1]
            seen.extend(zip(sample_ids.tolist(), participant.tolist(), lengths.tolist()))
        assert sorted(seen) == sorted((int(sid), group, int(mask.sum()))
                                      for sid, group, mask in rows)


class TestGroupedRecording:
    """One pass, several participants: each group's record is its rows' alone."""

    def test_groups_equal_their_rows_recorded_alone(self):
        rng = np.random.default_rng(4)
        layer = MoELayer(d_model=8, d_ff=16, num_experts=6, top_k=2, rng=rng)
        batch, seq = 9, 5
        x = rng.standard_normal((batch, seq, 8)).astype(np.float32)
        mask = np.arange(seq) < rng.integers(1, seq + 1, size=batch)[:, None]
        attention = rng.random((batch, seq))
        sample_ids = rng.choice(1000, size=batch, replace=False)
        rows = np.array([2, 0, 1, 0, 2, 2, 1, 0, 2])
        grouped = layer.routing_groups = GroupedRouting(3, 6)
        grouped.rows = rows
        layer.route(Tensor(x), token_attention=attention, sample_ids=sample_ids,
                    token_mask=mask)
        assert layer.last_routing is None
        layer.routing_groups = None
        for group in range(3):
            mine = rows == group
            layer.route(Tensor(x[mine]), token_attention=attention[mine],
                        sample_ids=sample_ids[mine], token_mask=mask[mine])
            got, want = grouped.record(group), layer.last_routing
            assert got.total_tokens == want.total_tokens
            assert np.array_equal(got.token_counts, want.token_counts)
            assert got.sample_ids == want.sample_ids
            np.testing.assert_allclose(got.attention_sums, want.attention_sums, rtol=1e-6)
            np.testing.assert_allclose(got.gate_weight_sums, want.gate_weight_sums, rtol=1e-6)


# --------------------------------------------------------------- in a run
def recording_draws(monkeypatch):
    """Every ``local_batches`` call: ``(participant, round, sample ids per batch)``."""
    calls = []
    local_batches = Participant.local_batches
    current = {"round": None}
    before_round = FluxFineTuner.before_round

    def marked(self, round_index, selected):
        current["round"] = round_index
        return before_round(self, round_index, selected)

    def recorded(self, *args, **kwargs):
        batches = local_batches(self, *args, **kwargs)
        calls.append((self.participant_id, current["round"],
                      [batch.sample_ids.tolist() for batch in batches]))
        return batches

    monkeypatch.setattr(FluxFineTuner, "before_round", marked)
    monkeypatch.setattr(Participant, "local_batches", recorded)
    return calls


def per_participant(calls):
    draws = {}
    for pid, round_index, batches in calls:
        draws.setdefault(pid, []).append((round_index, batches))
    return draws


FAULTY = {
    "sync": dict(participants_per_round=3, dropout_prob=0.4),
    "semisync": dict(participants_per_round=3, dropout_prob=0.4, scheduler="semisync",
                     deadline_quantile=0.7),
}


class TestInARun:
    @pytest.mark.parametrize("scheduler", sorted(FAULTY))
    def test_draws_what_each_participant_drew_alone(self, vocab, tiny_config, monkeypatch,
                                                    scheduler):
        prepared = []
        prepare_round = FluxFineTuner.prepare_round

        def watched(self, round_index, participants):
            prepared.append((round_index, [p.participant_id for p in participants]))
            return prepare_round(self, round_index, participants)

        monkeypatch.setattr(FluxFineTuner, "prepare_round", watched)
        calls = recording_draws(monkeypatch)
        build_flux_tuner(vocab, tiny_config, **FAULTY[scheduler]).run(num_rounds=4)
        shared = list(calls)
        dropped = {(r, pid) for r in range(4) for pid in range(3)} - {
            (r, pid) for r, pids in prepared for pid in pids}
        assert dropped
        assert not [call for call in shared if (call[1], call[0]) in dropped]

        calls.clear()
        monkeypatch.setattr(FluxFineTuner, "prepare_round", lambda self, r, p: None)
        build_flux_tuner(vocab, tiny_config, **FAULTY[scheduler]).run(num_rounds=4)
        assert per_participant(shared) == per_participant(calls)

    @pytest.mark.parametrize("knobs, per_round", [
        (dict(participants_per_round=3), True),
        (dict(scheduler="async", buffer_size=2, participants_per_round=2), False),
    ], ids=["sync", "async"])
    def test_sync_profiles_the_round_and_async_each_dispatch(self, vocab, tiny_config,
                                                              monkeypatch, knobs, per_round):
        sizes, dispatches = [], []

        def recorded(model, batches_by_participant):
            sizes.append(len(batches_by_participant))
            return profile_round(model, batches_by_participant)

        participant_round = FluxFineTuner.participant_round

        def counted(self, participant, round_index):
            dispatches.append(participant.participant_id)
            return participant_round(self, participant, round_index)

        monkeypatch.setattr(activation_module, "profile_round", recorded)
        monkeypatch.setattr(finetuner_module, "profile_round", recorded)
        monkeypatch.setattr(FluxFineTuner, "participant_round", counted)
        build_flux_tuner(vocab, tiny_config, **knobs).run(num_rounds=3)
        if per_round:
            assert sizes == [3] * 3 and len(dispatches) == 9
        else:
            assert sizes == [1] * len(dispatches) and len(dispatches) >= 6

    def test_one_span_per_round(self, vocab, tiny_config, tmp_path):
        from repro.obs import load_events, round_table

        tuner = build_flux_tuner(vocab, tiny_config, participants_per_round=3,
                                 telemetry=True, telemetry_dir=str(tmp_path))
        tuner.run(num_rounds=2)
        events = load_events(tuner.telemetry.jsonl_path)
        spans = [e for e in events if e.get("type") == "span" and e["name"] == "profile_round"]
        assert [(s["cat"], s["round"]) for s in spans] == [("profile", 0), ("profile", 1)]
        for span in spans:
            sequences = span["attrs"]["sequences"]
            assert span["attrs"]["participants"] == 3
            assert span["attrs"]["passes"] == -(-sequences // PASS_SEQUENCES)
        headers, rows = round_table(events)
        assert all(float(row[headers.index("profile_s")]) > 0 for row in rows)


class TestPrepared:
    @pytest.mark.parametrize("stale_by, draws, used", [(0, 1, True), (1, 2, False)],
                             ids=["this-version", "older-version"])
    def test_used_only_on_the_version_it_was_measured_on(self, vocab, tiny_config,
                                                         stale_by, draws, used):
        tuner = build_flux_tuner(vocab, tiny_config, participants_per_round=3)
        participant, state = tuner.participants[0], tuner.states[0]
        tuner.before_round(0, [participant])
        tuner.prepare_round(0, [participant])
        version, batches, profile = state.prepared
        state.prepared = (version - stale_by, batches, profile)
        seed = participant._round_seed
        tuner.participant_round(participant, 0)
        assert state.prepared is None
        assert participant._round_seed == seed + draws      # + its own profiling draw
        assert (state.latest_profile is profile) == used


class TestCheckpoints:
    def test_a_prepared_profile_is_never_exported(self, vocab, tiny_config):
        tuner = build_flux_tuner(vocab, tiny_config, participants_per_round=3)
        tuner.prepare_round(0, tuner.participants)
        held = {id(obj) for state in tuner.states.values()
                for obj in (state.prepared[2], *state.prepared[1])}

        class Spy(pickle.Pickler):
            def persistent_id(self, obj):
                assert id(obj) not in held, "a prepared profile reached a snapshot"
                return None

        for pid in tuner.states:
            Spy(io.BytesIO()).dump(tuner.export_participant_state(pid))
        Spy(io.BytesIO()).dump(tuner.export_run_state())

    def test_killed_mid_round_resumes_to_the_uninterrupted_run(self, vocab, tiny_config,
                                                               tmp_path):
        """The crash lands after the round's shared profiling pass."""
        knobs = dict(participants_per_round=3, dropout_prob=0.3)
        uninterrupted = build_flux_tuner(vocab, tiny_config, **knobs)
        expected = uninterrupted.run(num_rounds=4)

        durable = dict(knobs, checkpoint_every=2, checkpoint_dir=str(tmp_path))
        crashing = build_flux_tuner(vocab, tiny_config, **durable)
        participant_round = crashing.participant_round

        def dies_in_round_three(participant, round_index):
            if round_index == 3:
                assert any(state.prepared for state in crashing.states.values())
                raise RuntimeError("simulated crash")
            return participant_round(participant, round_index)

        crashing.participant_round = dies_in_round_three
        with pytest.raises(RuntimeError, match="simulated crash"):
            crashing.run(num_rounds=4)
        snapshot = latest_checkpoint(str(tmp_path))
        assert snapshot.endswith("round_00002")

        resumed_tuner = build_flux_tuner(vocab, tiny_config, **durable)
        resumed = resumed_tuner.run(num_rounds=4, resume_from=snapshot)
        assert_run_results_equal(resumed, expected)
        assert_models_equal(resumed_tuner.server.global_model, uninterrupted.server.global_model)
