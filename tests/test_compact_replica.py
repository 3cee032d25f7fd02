"""Compact models mounted on the server's training replica.

``build_compact_model`` (Flux) and ``build_selected_model`` (FMES) turn the
model they are given compact in place — the model's own tuning experts, merged
or skip experts written into the layer's resident spares — and in a federation
that model is ``ParameterServer.training_replica()``.  The oracle is what that
replaced (``plan_oracles.fresh_build_compact_model``): a ``copy_of`` the global
model with a new module per slot.  Logits, every gradient, the train result
and the updates must come out bit for bit the same, participant after
participant, and the replica must be the full model again — for FMD — after.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.analysis import profile_activation
from repro.autograd import no_grad
from repro.baselines import FMDFineTuner, FMESFineTuner, build_selected_model
from repro.core import FluxConfig, FluxFineTuner, build_compact_model, plan_compact_model
from repro.federated import ParameterServer
from repro.models import MoETransformer

from plan_oracles import fresh_build_compact_model
from test_run_checkpoint import assert_models_equal, assert_run_results_equal
from test_runtime import build_federation

#: two participants' decisions: (tuning, preserved-frozen) per layer
DECISIONS = [
    ({0: [0], 1: [1, 2]}, {0: [3]}),
    ({0: [1, 3], 1: [0]}, {1: [2]}),
]


def logits(model, batch):
    with no_grad():
        return model(batch.input_ids, attention_mask=batch.attention_mask).data


def assert_same_model(mounted, oracle):
    """Same module tree, values, flags and (after training) gradients."""
    assert mounted.local_experts_per_layer() == oracle.local_experts_per_layer()
    for layer, other in zip(mounted.moe_layers(), oracle.moe_layers()):
        assert np.array_equal(layer.remap.table, other.remap.table)
    assert_models_equal(mounted, oracle)
    for got, want in zip(mounted.parameters(), oracle.parameters(), strict=True):
        assert got.requires_grad == want.requires_grad
        assert (got.grad is None) == (want.grad is None)
        if got.grad is not None:
            assert np.array_equal(got.grad, want.grad)


class TestMountedEqualsFreshBuild:
    def test_two_participants_then_an_fmd_hand_out(self, vocab, tiny_config):
        server, participants, _, config = build_federation(vocab, tiny_config)
        global_model = server.global_model
        max_seq_len = tiny_config.max_seq_len
        for participant, (tuning, frozen) in zip(participants, DECISIONS):
            batches = participant.local_batches(config.batch_size, max_batches=2,
                                                max_seq_len=max_seq_len)
            profile = profile_activation(MoETransformer.copy_of(global_model), batches)
            plan = plan_compact_model(global_model, tuning, profile, max_non_tuning_slots=3,
                                      preserved_frozen=frozen)
            oracle, want_slots, want_frozen = fresh_build_compact_model(
                global_model, plan, profile)
            with server.training_replica() as replica:
                mounted, slots, frozen_slots = build_compact_model(replica, plan, profile)
                assert mounted is replica
                assert (slots, frozen_slots) == (want_slots, want_frozen)
                assert sum(mounted.local_experts_per_layer()) < sum(mounted.experts_per_layer())
                assert np.array_equal(logits(mounted, batches[0]), logits(oracle, batches[0]))
                got = participant.local_finetune(mounted, 2 * list(batches),
                                                 trainable_experts=set(slots))
                want = participant.local_finetune(oracle, 2 * list(batches),
                                                  trainable_experts=set(want_slots))
                assert got == want
                assert_same_model(mounted, oracle)
                for key in slots:
                    for name, value in mounted.expert_state(*key).items():
                        assert np.array_equal(value, oracle.expert_state(*key)[name])
            assert replica.local_experts_per_layer() == replica.experts_per_layer()
            assert all(layer.remap.is_identity() for layer in replica.moe_layers())
        # FMD on the same server: the replica is the full global model again
        with server.training_replica() as replica:
            fresh = MoETransformer.copy_of(global_model)
            assert_same_model(replica, fresh)
            assert all(param.requires_grad for param in replica.parameters())
            assert np.array_equal(logits(replica, batches[0]), logits(fresh, batches[0]))

    def test_selected_model_on_the_replica(self, vocab, tiny_config):
        server, participants, _, config = build_federation(vocab, tiny_config)
        batches = participants[0].local_batches(config.batch_size, max_batches=1,
                                                max_seq_len=tiny_config.max_seq_len)
        for selected in ([(0, 1), (1, 0), (1, 3)], [(0, 2)]):
            oracle, want_slots = build_selected_model(
                MoETransformer.copy_of(server.global_model), selected)
            with server.training_replica() as replica:
                mounted, slots = build_selected_model(replica, selected)
                assert slots == want_slots
                assert np.array_equal(logits(mounted, batches[0]), logits(oracle, batches[0]))
                assert_same_model(mounted, oracle)

    def test_spares_are_resident_and_outside_the_parameter_tree(self, tiny_config):
        server = ParameterServer(MoETransformer(tiny_config))
        with server.training_replica() as replica:
            full = [id(param) for param in replica.parameters()]
            layer = replica.blocks[0].moe
            spare = layer.spare_expert(0)
            assert layer.spare_expert(0) is spare
            assert [id(param) for param in replica.parameters()] == full
            layer.mount_compact([0], [[1, 2, 3]])
            assert layer.experts[1] is spare
            assert not any(param.requires_grad for param in spare.parameters())
        assert [id(param) for param in replica.parameters()] == full
        with pytest.raises(ValueError, match="cover every original expert"):
            replica.blocks[0].moe.mount_compact([0], [[1, 2]])


@contextlib.contextmanager
def _fresh_copy(server):
    """What the replica replaced: a new copy of the global model per participant."""
    yield MoETransformer.copy_of(server.global_model)


def _tuner(tuner_class, vocab, config, **knobs):
    server, participants, test, run_config = build_federation(
        vocab, config, num_clients=4, **knobs)
    extra = {"flux_config": FluxConfig(seed=0)} if tuner_class is FluxFineTuner else {}
    return tuner_class(server, participants, test, config=run_config, **extra)


class TestRunsEqualFreshCopyRuns:
    @pytest.mark.parametrize("tuner_class", [FluxFineTuner, FMESFineTuner],
                             ids=["flux", "fmes"])
    @pytest.mark.parametrize("knobs", [
        {},
        {"transport": "wire", "codec": "topk:0.25:int4", "num_shards": 2},
    ], ids=["analytic", "wire"])
    def test_whole_runs(self, vocab, tiny_config, monkeypatch, tuner_class, knobs):
        tuner = _tuner(tuner_class, vocab, tiny_config, **knobs)
        result = tuner.run(3)
        monkeypatch.setattr(ParameterServer, "training_replica", _fresh_copy)
        oracle = _tuner(tuner_class, vocab, tiny_config, **knobs)
        want = oracle.run(3)
        assert_run_results_equal(result, want)
        assert_models_equal(tuner.server.global_model, oracle.server.global_model)

    def test_flux_then_fmd_share_one_replica(self, vocab, tiny_config):
        """Flux's mounts leave nothing behind for the next method on the server."""
        flux = _tuner(FluxFineTuner, vocab, tiny_config)
        flux.run(2)
        replica = flux.server._replica
        shared = FMDFineTuner(flux.server, flux.participants, flux.test_dataset,
                              config=flux.config)
        alone = FMDFineTuner(ParameterServer(MoETransformer.copy_of(flux.server.global_model)),
                             _tuner(FMDFineTuner, vocab, tiny_config).participants,
                             flux.test_dataset, config=flux.config)
        for participant, twin in zip(shared.participants, alone.participants):
            twin._round_seed = participant._round_seed
        alone.server.round_index = shared.server.round_index
        assert_run_results_equal(shared.run(1), alone.run(1))
        assert shared.server._replica is replica
        assert_models_equal(shared.server.global_model, alone.server.global_model)
