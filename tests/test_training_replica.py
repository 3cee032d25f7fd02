"""``ParameterServer.training_replica``: one resident model, fresh-copy behaviour.

The oracle is what the replica replaced — a ``MoETransformer.copy_of`` the
global model per participant: whole FMD and FMQ runs, and a direct
trainable-subset ``local_finetune``, must come out bit for bit the same.  The
rest is the hand-out contract: nothing but parameters between participants,
read-only shared arrays, never checkpointed, rebuilt when the global model's
structure changes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

import repro.autograd.optim as optim_module
import repro.baselines.fmq as fmq_module
from optim_oracles import PerParameterAdam
from repro.autograd import Adam, Linear, Parameter, default_dtype
from repro.baselines import FMDFineTuner, FMQFineTuner
from repro.federated import ParameterServer
from repro.federated.server import _TrainingReplica
from repro.federated.client import ExpertTraining
from repro.models import ExpertFFN, GroupedRouting, MoETransformer
from repro.quantization import quantize_model
from repro.runtime import latest_checkpoint

from test_run_checkpoint import assert_models_equal, assert_run_results_equal
from test_runtime import build_federation


@contextlib.contextmanager
def _fresh_copy(server):
    """What ``training_replica`` replaced: a new copy of the global model per call."""
    yield MoETransformer.copy_of(server.global_model)


def _run(tuner_class, vocab, config, rounds=2, **knobs):
    server, participants, test, run_config = build_federation(
        vocab, config, num_clients=4, **knobs)
    tuner = tuner_class(server, participants, test, config=run_config)
    return tuner.run(rounds), tuner


def _fingerprint(result, model):
    digest = hashlib.sha256()
    for layer, expert in model.iter_expert_ids():
        for name, value in sorted(model.expert_state(layer, expert).items()):
            digest.update(np.ascontiguousarray(value).tobytes())
    return [r.train_loss for r in result.rounds], digest.hexdigest()


class TestReplicaEqualsFreshCopies:
    @pytest.mark.parametrize("knobs", [
        {},
        {"transport": "wire", "codec": "topk:0.25:int4", "num_shards": 2},
        {"max_local_batches": 2, "participants_per_round": 3},
    ], ids=["analytic", "wire", "more_steps"])
    def test_fmd_runs(self, vocab, tiny_config, monkeypatch, knobs):
        result, tuner = _run(FMDFineTuner, vocab, tiny_config, **knobs)
        monkeypatch.setattr(ParameterServer, "training_replica", _fresh_copy)
        want, oracle = _run(FMDFineTuner, vocab, tiny_config, **knobs)
        assert_run_results_equal(result, want)
        assert_models_equal(tuner.server.global_model, oracle.server.global_model)

    def test_fmd_with_dropout_and_gate_noise(self, vocab, tiny_config, monkeypatch):
        """The replica's noise stream restarts where a fresh copy's starts."""
        noisy = dataclasses.replace(tiny_config, dropout=0.1, gate_noise_std=0.05)
        result, tuner = _run(FMDFineTuner, vocab, noisy)
        monkeypatch.setattr(ParameterServer, "training_replica", _fresh_copy)
        want, oracle = _run(FMDFineTuner, vocab, noisy)
        assert_run_results_equal(result, want)
        assert_models_equal(tuner.server.global_model, oracle.server.global_model)

    def test_fmq_quantizes_the_global_model_directly(self, vocab, tiny_config, monkeypatch):
        """One model per participant-round, and the run it always was."""
        built = []
        allocate = MoETransformer.allocate.__func__
        monkeypatch.setattr(MoETransformer, "allocate", classmethod(
            lambda cls, config: built.append(1) or allocate(cls, config)))
        result, tuner = _run(FMQFineTuner, vocab, tiny_config)
        assert len(built) == 2 * 4                      # rounds x participants
        monkeypatch.setattr(
            fmq_module, "quantize_model",
            lambda model, bits: quantize_model(MoETransformer.copy_of(model), bits))
        want, oracle = _run(FMQFineTuner, vocab, tiny_config)
        assert len(built) == 2 * 4 + 2 * 2 * 4
        assert _fingerprint(result, tuner.server.global_model) == \
            _fingerprint(want, oracle.server.global_model)
        assert_run_results_equal(result, want)

    def test_a_trainable_subset_then_everything(self, vocab, tiny_config):
        server, participants, _, config = build_federation(vocab, tiny_config)
        participant, twin = participants[0], participants[1]
        twin._round_seed = participant._round_seed
        twin.dataset = participant.dataset
        subset = {(0, 1), (1, 2)}
        for trainable in (subset, None, subset):
            with server.training_replica() as model:
                batches = participant.local_batches(config.batch_size, max_batches=2)
                got = participant.local_finetune(model, batches, trainable_experts=trainable)
                fresh = MoETransformer.copy_of(server.global_model)
                want = twin.local_finetune(
                    fresh, twin.local_batches(config.batch_size, max_batches=2),
                    trainable_experts=trainable)
                assert got == want
                assert_models_equal(model, fresh)
                assert [p.requires_grad for p in model.parameters()] == \
                    [p.requires_grad for p in fresh.parameters()]


def _bits(model):
    return [np.ascontiguousarray(param.data).tobytes() for param in model.parameters()]


class TestResidentOptimizerState:
    """The replica's optimizer storage is reused, never carried over: every
    participant steps as a fresh optimizer on a fresh model would."""

    def test_consecutive_participants_match_fresh_models(self, vocab, tiny_config):
        server, participants, _, config = build_federation(vocab, tiny_config)
        _, twins, _, _ = build_federation(vocab, tiny_config)
        for participant, twin in zip(participants[:3], twins[:3]):
            with server.training_replica() as model:
                got = participant.local_finetune(
                    model, 2 * participant.local_batches(config.batch_size, max_batches=2))
                fresh = MoETransformer.copy_of(server.global_model)
                want = twin.local_finetune(
                    fresh, 2 * twin.local_batches(config.batch_size, max_batches=2))
                assert got == want
                assert _bits(model) == _bits(fresh)

    @pytest.mark.parametrize("schedule", [
        [{(0, 0), (1, 2)}, {(0, 0), (0, 1), (1, 2)}],          # (0, 1) first touched at t = 2
        [{(0, 0), (0, 1), (1, 2)}, {(0, 0), (1, 2)}, {(0, 1)}],  # (0, 1) absent at t = 2
    ], ids=["first_touch_at_2", "absent_at_2"])
    def test_experts_joining_and_leaving(self, tiny_config, schedule):
        server = ParameterServer(MoETransformer(tiny_config))
        rng = np.random.default_rng(3)
        for _ in range(2):                  # the second pass steps on warm, stale storage
            with server.training_replica() as model:
                training = ExpertTraining.of(model)
                expert_params, params = training.select(model, None)
                fresh = MoETransformer.copy_of(server.global_model)
                fresh_params, twins = ExpertTraining(fresh).select(fresh, None)
                flat = Adam(params, lr=1e-2, buffers=training.buffers)
                oracle = PerParameterAdam(twins, lr=1e-2)
                for present in schedule:
                    for key, group in expert_params.items():
                        for param, twin in zip(group, fresh_params[key]):
                            grad = rng.standard_normal(param.data.shape).astype(
                                param.data.dtype) if key in present else None
                            param.grad = twin.grad = grad
                    flat.step()
                    oracle.step()
                    assert _bits(model) == _bits(fresh)

    def test_an_optimizer_kept_past_its_block_cannot_step(self, tiny_config):
        server = ParameterServer(MoETransformer(tiny_config))
        with server.training_replica() as model:
            training = ExpertTraining.of(model)
            kept = Adam(training.select(model, None)[1], lr=1e-2, buffers=training.buffers)
        with server.training_replica():
            with pytest.raises(RuntimeError, match="taken over or released"):
                kept.step()

    def test_a_warm_replica_allocates_no_optimizer_buffer(self, vocab, tiny_config,
                                                          monkeypatch):
        server, participants, _, config = build_federation(vocab, tiny_config)
        only_optim = [tracemalloc.Filter(True, optim_module.__file__)]
        allocated = []
        step = Adam.step

        def measured(optimizer):
            step(optimizer)
            after = tracemalloc.take_snapshot().filter_traces(only_optim)
            allocated.append(sum(max(stat.size_diff, 0)
                                 for stat in after.compare_to(before, "lineno")))

        monkeypatch.setattr(Adam, "step", measured)
        tracemalloc.start()
        try:
            for participant in participants[:2]:
                with server.training_replica() as model:
                    before = tracemalloc.take_snapshot().filter_traces(only_optim)
                    participant.local_finetune(
                        model, participant.local_batches(config.batch_size, max_batches=1))
        finally:
            tracemalloc.stop()
        moment_bytes = sum(param.data.nbytes for param in
                           ExpertTraining.of(server._replica.model).select(
                               server._replica.model, None)[1])
        cold, warm = allocated
        assert cold >= 3 * moment_bytes                 # m, v and the gradient gather
        assert warm < moment_bytes / 4                  # bookkeeping only


class TestHandOutContract:
    def test_holds_parameters_only_between_participants(self, vocab, tiny_config,
                                                        monkeypatch):
        server, participants, test, config = build_federation(vocab, tiny_config)
        tuner = FMDFineTuner(server, participants, test, config=config)
        seen = []
        participant_round = FMDFineTuner.participant_round

        def checked(self, participant, round_index):
            result = participant_round(self, participant, round_index)
            model = self.server._replica.model
            seen.append(participant.participant_id)
            assert all(param.grad is None for param in model.parameters())
            for block in model.blocks:
                assert block.moe.last_routing is None
                assert block.moe.routing_groups is None
                assert block.moe._bwd_scratch == {}
                assert block.attn.last_token_attention is None
            return result

        monkeypatch.setattr(FMDFineTuner, "participant_round", checked)
        tuner.run(2)
        assert len(seen) == 2 * len(participants)

    def test_hand_out_resets_flags_mode_and_values(self, tiny_config):
        server = ParameterServer(MoETransformer(tiny_config))
        with server.training_replica() as model:
            model.eval()
            model.freeze()
            for layer in model.moe_layers():
                layer.routing_groups = GroupedRouting(1, layer.num_original_experts)
            model.get_expert(0, 0).w_up.weight.data += 1.0
            first = model
        with server.training_replica() as model:
            assert model is first                       # built once
            assert all(param.requires_grad for param in model.parameters())
            assert all(module.training for module in model.modules())
            assert all(layer.routing_groups is None for layer in model.moe_layers())
            assert_models_equal(model, server.global_model)

    def test_follows_the_global_model(self, tiny_config):
        """Aggregated experts are copied in; everything else is the same memory."""
        server = ParameterServer(MoETransformer(tiny_config))
        with server.training_replica():
            pass
        state = server.global_model.state_dict()
        server.global_model.load_state_dict(
            {name: value + 0.5 for name, value in state.items()})
        with server.training_replica() as model:
            assert_models_equal(model, server.global_model)

    def test_shared_arrays_are_read_only(self, tiny_config):
        server = ParameterServer(MoETransformer(tiny_config))
        with server.training_replica() as model:
            shared = model.token_embedding.weight.data
            assert np.shares_memory(shared, server.global_model.token_embedding.weight.data)
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                model.blocks[0].attn.q_proj.weight.data += 1.0
            expert = model.get_expert(0, 0).w_up.weight.data
            assert not np.shares_memory(
                expert, server.global_model.get_expert(0, 0).w_up.weight.data)
            expert += 1.0                               # training writes these
        assert server.global_model.token_embedding.weight.data.flags.writeable

    def test_rebuilt_when_the_global_structure_changes(self, tiny_config):
        server = ParameterServer(MoETransformer(tiny_config))
        with server.training_replica() as model:
            first = model
        with default_dtype(tiny_config.dtype):
            replacement = ExpertFFN(tiny_config.d_model, tiny_config.d_ff,
                                    rng=np.random.default_rng(5))
        server.global_model.blocks[0].moe.experts[1] = replacement
        with server.training_replica() as model:
            assert model is not first
            assert_models_equal(model, server.global_model)
        embedding = server.global_model.token_embedding.weight
        embedding.data = embedding.data * 2.0           # a new array, not a write
        with server.training_replica() as again:
            assert again is not model
            assert_models_equal(again, server.global_model)
        server.global_model = MoETransformer(dataclasses.replace(tiny_config, seed=9))
        with server.training_replica() as other:
            assert_models_equal(other, server.global_model)

    def test_rebuilt_when_any_module_registers_something_new(self, tiny_config):
        """``mirrors`` reads registry versions, not the tree: a parameter or a
        module replaced anywhere is seen without walking."""
        server = ParameterServer(MoETransformer(tiny_config))
        with server.training_replica() as model:
            first = model
        norm = server.global_model.final_norm
        norm.weight = Parameter(norm.weight.data * 3.0)
        with server.training_replica() as model:
            assert model is not first
            assert_models_equal(model, server.global_model)
        attention = server.global_model.blocks[1].attn
        attention.q_proj = Linear(tiny_config.d_model, tiny_config.d_model, bias=False,
                                  rng=np.random.default_rng(4))
        with server.training_replica() as again:
            assert again is not model
            assert_models_equal(again, server.global_model)

    def test_built_once_a_run(self, vocab, tiny_config, monkeypatch):
        built = []
        init = _TrainingReplica.__init__
        monkeypatch.setattr(_TrainingReplica, "__init__",
                            lambda replica, model: built.append(1) or init(replica, model))
        _run(FMDFineTuner, vocab, tiny_config, rounds=3)
        assert len(built) == 1

    def test_model_snapshot_stays_an_independent_copy(self, tiny_config):
        server = ParameterServer(MoETransformer(tiny_config))
        with server.training_replica() as model:
            snapshot = server.model_snapshot()
            assert snapshot is not model
            snapshot.token_embedding.weight.data += 1.0     # writable, its own
        assert not np.shares_memory(snapshot.token_embedding.weight.data,
                                    server.global_model.token_embedding.weight.data)


class TestNeverTravels:
    def test_checkpoints_never_see_it(self, vocab, tiny_config, tmp_path, monkeypatch):
        knobs = dict(checkpoint_every=1)
        replica_dir, oracle_dir = str(tmp_path / "replica"), str(tmp_path / "oracle")
        result, tuner = _run(FMDFineTuner, vocab, tiny_config, rounds=3,
                             checkpoint_dir=replica_dir, **knobs)
        assert "replica" not in " ".join(tuner.server.export_state())
        resumed, resumed_tuner = None, None
        server, participants, test, config = build_federation(
            vocab, tiny_config, num_clients=4, checkpoint_dir=replica_dir, **knobs)
        resumed_tuner = FMDFineTuner(server, participants, test, config=config)
        first = sorted(os.listdir(replica_dir))[0]
        resumed = resumed_tuner.run(3, resume_from=os.path.join(replica_dir, first))
        assert_run_results_equal(resumed, result)
        assert_models_equal(resumed_tuner.server.global_model, tuner.server.global_model)
        monkeypatch.setattr(ParameterServer, "training_replica", _fresh_copy)
        _run(FMDFineTuner, vocab, tiny_config, rounds=3, checkpoint_dir=oracle_dir, **knobs)
        for directory in (replica_dir, oracle_dir):
            assert latest_checkpoint(directory) is not None
        sizes = [{name: os.path.getsize(os.path.join(latest_checkpoint(directory), name))
                  for name in os.listdir(latest_checkpoint(directory))}
                 for directory in (replica_dir, oracle_dir)]
        assert sizes[0] == sizes[1]
