"""Tests for the Flux participant-side state (profiling cache, utilities, round pipeline)."""

import numpy as np
import pytest

from repro.core import FluxConfig, FluxClientState
from repro.core.assignment import RoleAssignment
from repro.data import make_gsm8k_like
from repro.federated import ParameterServer, Participant, ParticipantResources
from repro.models import MoETransformer
from repro.models.presets import ARCHITECTURE_DESCRIPTORS
from repro.systems import CONSUMER_GPU, CostModel, MemoryModel


@pytest.fixture()
def participant(vocab):
    dataset = make_gsm8k_like(vocab=vocab, num_samples=60, seed=17)
    return Participant(7, dataset, resources=ParticipantResources(max_experts=6,
                                                                  max_tuning_experts=3), seed=3)


@pytest.fixture()
def client_state(participant):
    return FluxClientState(participant, FluxConfig(seed=1))


@pytest.fixture()
def training_copy(tiny_model):
    """What a caller without a server hands ``run_round``: the round trains it and leaves it compact."""
    return MoETransformer.copy_of(tiny_model)


@pytest.fixture()
def assignment():
    return RoleAssignment(
        participant_id=7,
        exploitation=[(0, 0), (1, 2)],
        exploration=[(0, 3)],
        candidates=[(0, 0), (1, 2), (0, 3)],
        epsilon=0.6,
    )


class TestFluxClientState:
    def test_profiling_initialises_utilities(self, client_state, participant, tiny_model,
                                              tiny_config):
        batches = participant.local_batches(8, max_batches=2, max_seq_len=tiny_config.max_seq_len)
        outcome = client_state.profile(tiny_model, batches, cost_model=None)
        assert outcome.profile.num_layers == tiny_model.num_layers
        utilities = client_state.report_utilities()
        assert len(utilities) == sum(tiny_model.experts_per_layer())
        assert max(utilities.values()) == pytest.approx(1.0)

    def test_run_round_produces_updates_for_exploitation_experts(self, client_state, training_copy,
                                                                 assignment):
        output = client_state.run_round(
            model=training_copy,
            assignment=assignment,
            learning_rate=5e-3,
            batch_size=8,
            max_batches=2,
            cost_model=None,
        )
        updated = {(u.layer, u.expert) for u in output.updates}
        assert updated == set(assignment.exploitation)
        assert output.train_loss > 0
        assert 0 < output.num_tuning_experts <= len(assignment.exploitation)

    def test_run_round_refreshes_exploration_utilities(self, client_state, training_copy,
                                                       assignment):
        client_state.run_round(
            model=training_copy,
            assignment=assignment,
            learning_rate=5e-3,
            batch_size=8,
            max_batches=1,
            cost_model=None,
        )
        counts = client_state.utilities.update_counts
        for key in assignment.exploitation + assignment.exploration:
            assert counts.get(key, 0) >= 1

    def test_run_round_on_the_replica_does_not_modify_global_model(self, client_state, tiny_model,
                                                                   assignment):
        """A round trains in the model it is given: the server's replica, never the global model."""
        server = ParameterServer(tiny_model)
        before = tiny_model.state_dict()
        with server.training_replica() as replica:
            client_state.run_round(
                model=replica,
                assignment=assignment,
                learning_rate=5e-2,
                batch_size=8,
                max_batches=1,
                cost_model=None,
            )
            assert sum(replica.local_experts_per_layer()) < sum(replica.experts_per_layer())
        assert replica.local_experts_per_layer() == replica.experts_per_layer()
        after = tiny_model.state_dict()
        for key in before:
            assert np.array_equal(before[key], after[key]), f"global {key} changed locally"

    def test_run_round_trains_and_leaves_compact_the_model_it_is_given(self, client_state,
                                                                       tiny_model, training_copy,
                                                                       assignment):
        """The contract for a caller without a replica: hand over a copy, restore it yourself."""
        client_state.run_round(
            model=training_copy,
            assignment=assignment,
            learning_rate=5e-2,
            batch_size=8,
            max_batches=1,
            cost_model=None,
        )
        full = tiny_model.experts_per_layer()
        assert training_copy.experts_per_layer() == full
        assert sum(training_copy.local_experts_per_layer()) < sum(full)
        for layer in training_copy.moe_layers():
            layer.restore_full_experts()
        assert training_copy.local_experts_per_layer() == full
        # The full model is back, its exploitation experts trained in place
        # and nothing else written; the model the copy was taken from is as it was.
        state, original = training_copy.state_dict(), tiny_model.state_dict()
        assert set(state) == set(original)
        trained = {name for name in original if not np.array_equal(state[name], original[name])}
        assert trained
        prefixes = tuple(f"blocks.{layer}.moe.experts.{expert}." for layer, expert
                         in assignment.exploitation)
        assert all(name.startswith(prefixes) for name in trained), trained
        for name, want in MoETransformer(tiny_model.config).state_dict().items():
            assert np.array_equal(original[name], want), name

    def test_run_round_cost_breakdown_with_cost_model(self, client_state, training_copy,
                                                      assignment):
        memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"])
        cost_model = CostModel(CONSUMER_GPU, memory)
        output = client_state.run_round(
            model=training_copy,
            assignment=assignment,
            learning_rate=5e-3,
            batch_size=8,
            max_batches=1,
            cost_model=cost_model,
        )
        breakdown = output.breakdown
        assert breakdown.training > 0
        assert breakdown.communication > 0
        assert breakdown.profiling > 0
        assert breakdown.merging >= 0

    def test_stale_profile_reused_on_second_round(self, client_state, participant, tiny_model,
                                                  tiny_config):
        batches = participant.local_batches(8, max_batches=1, max_seq_len=tiny_config.max_seq_len)
        first = client_state.profile(tiny_model, batches, cost_model=None)
        assert not first.stale
        second = client_state.profile(tiny_model, batches, cost_model=None)
        assert second.stale

    def test_compact_model_respects_expert_budget(self, client_state, tiny_model, training_copy,
                                                  assignment):
        output = client_state.run_round(
            model=training_copy,
            assignment=assignment,
            learning_rate=5e-3,
            batch_size=8,
            max_batches=1,
            cost_model=None,
        )
        # tuning + preserved exploration + merged slots stays below the
        # original expert count (that is the point of the compact model)
        assert output.num_local_experts < sum(tiny_model.experts_per_layer())
