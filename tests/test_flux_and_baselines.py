"""Tests for the Flux fine-tuner, the three baselines and their interplay."""

import numpy as np
import pytest

from repro.baselines import (
    FMDFineTuner,
    FMESFineTuner,
    FMQFineTuner,
    build_selected_model,
    expert_updates_from_model,
    select_top_activated,
)
from repro.analysis import profile_activation
from repro.core import FluxConfig, FluxFineTuner
from repro.federated import ParameterServer
from repro.federated.client import LocalTrainResult
from repro.models import MoETransformer
from repro.runtime import SyncScheduler


@pytest.fixture()
def federation(build_federation):
    """A small ready-to-run federation shared by the method tests."""
    return build_federation()


def fresh_server(tiny_config):
    return ParameterServer(MoETransformer(tiny_config))


class TestBaselineHelpers:
    def test_expert_updates_cover_all_experts(self, tiny_model):
        result = LocalTrainResult(mean_loss=1.0, num_batches=1, num_tokens=10, num_samples=4)
        updates = expert_updates_from_model(0, tiny_model, result)
        assert len(updates) == sum(tiny_model.experts_per_layer())

    def test_expert_updates_subset_and_quantized(self, tiny_model):
        result = LocalTrainResult(mean_loss=1.0, num_batches=1, num_tokens=10, num_samples=4)
        updates = expert_updates_from_model(0, tiny_model, result, expert_keys=[(0, 0)],
                                            quantize_bits=4)
        assert len(updates) == 1
        original = tiny_model.expert_state(0, 0)["w_gate"]
        assert not np.allclose(updates[0].state["w_gate"], original)

    def test_select_top_activated(self, tiny_model, gsm_batches):
        profile = profile_activation(tiny_model, gsm_batches)
        selected = select_top_activated(profile, 3)
        assert len(selected) == 3
        frequencies = {key: profile.frequencies[key[0]][key[1]] for key in selected}
        flat = np.concatenate(profile.frequencies)
        assert min(frequencies.values()) >= np.sort(flat)[-4]

    def test_build_selected_model_skips_dropped_experts(self, tiny_model, gsm_batches):
        profile = profile_activation(tiny_model, gsm_batches)
        selected = select_top_activated(profile, 2)
        compact, slot_map = build_selected_model(MoETransformer.copy_of(tiny_model), selected)
        assert len(slot_map) == 2
        # every layer keeps its selected experts plus one zero "skip" expert
        for layer, count in enumerate(compact.local_experts_per_layer()):
            kept = len([k for k in selected if k[0] == layer])
            assert count == kept + 1
        batch = gsm_batches[0]
        loss = compact.compute_loss(batch.input_ids, labels=batch.labels,
                                    attention_mask=batch.attention_mask)
        assert np.isfinite(loss.item())


class TestBaselineRounds:
    def test_fmd_round_trains_all_experts_and_pays_offloading(self, federation, tiny_config):
        participants, test, cost_models, config = federation
        tuner = FMDFineTuner(fresh_server(tiny_config), participants, test,
                             cost_models=cost_models, config=config)
        round_result, results = SyncScheduler().run_round(tuner, 0)
        one = next(iter(results.values()))
        assert len(one.updates) == sum(tiny_config.experts_per_layer())
        assert one.breakdown.offloading > 0
        assert round_result.metric_value >= 0

    def test_fmd_run_unchanged_by_undrawn_snapshot(self, build_federation, tiny_config,
                                                   monkeypatch):
        """``model_snapshot`` allocates without drawing; the run it feeds equals
        the run fed by the drawn-then-loaded snapshot it replaced, bit for bit."""
        def run():
            participants, test, cost_models, config = build_federation()
            server = fresh_server(tiny_config)
            result = FMDFineTuner(server, participants, test, cost_models=cost_models,
                                  config=config).run(num_rounds=2)
            return ([(r.train_loss, r.metric_value, r.simulated_time) for r in result.rounds],
                    server.global_model.state_dict())

        def drawn_snapshot(server):
            snapshot = MoETransformer(server.global_model.config)
            snapshot.load_state_dict(server.global_model.state_dict())
            return snapshot

        curves, state = run()
        monkeypatch.setattr(ParameterServer, "model_snapshot", drawn_snapshot)
        drawn_curves, drawn_state = run()
        assert curves == drawn_curves
        assert all(np.array_equal(state[name], drawn_state[name]) for name in drawn_state)

    def test_fmq_round_quantizes_and_is_quicker_than_fmd(self, federation, tiny_config):
        participants, test, cost_models, config = federation
        fmq = FMQFineTuner(fresh_server(tiny_config), participants, test,
                           cost_models=cost_models, config=config)
        fmd = FMDFineTuner(fresh_server(tiny_config), participants, test,
                           cost_models=cost_models, config=config)
        fmq_round, fmq_results = SyncScheduler().run_round(fmq, 0)
        fmd_round, _ = SyncScheduler().run_round(fmd, 0)
        assert fmq_round.round_duration < fmd_round.round_duration
        assert next(iter(fmq_results.values())).breakdown.quantization > 0

    def test_fmq_bits_validation(self, federation, tiny_config):
        participants, test, cost_models, config = federation
        with pytest.raises(ValueError):
            FMQFineTuner(fresh_server(tiny_config), participants, test,
                         cost_models=cost_models, config=config, bits=5)

    def test_fmes_round_only_updates_selected_experts(self, federation, tiny_config):
        participants, test, cost_models, config = federation
        tuner = FMESFineTuner(fresh_server(tiny_config), participants, test,
                              cost_models=cost_models, config=config)
        _, results = SyncScheduler().run_round(tuner, 0)
        for result in results.values():
            assert len(result.updates) <= 3  # max_tuning_experts
            assert result.breakdown.profiling > 0
            assert not result.overlap_profiling


class TestFluxFineTuner:
    def test_flux_round_structure(self, federation, tiny_config):
        participants, test, cost_models, config = federation
        tuner = FluxFineTuner(fresh_server(tiny_config), participants, test,
                              cost_models=cost_models, config=config,
                              flux_config=FluxConfig(seed=0))
        round_result, results = SyncScheduler().run_round(tuner, 0)
        assignments = tuner.current_assignments()
        assert set(assignments) == {p.participant_id for p in participants}
        for pid, result in results.items():
            assignment = assignments[pid]
            # updates correspond exactly to the exploitation (tuning) experts
            updated = {(u.layer, u.expert) for u in result.updates}
            assert updated == set(assignment.exploitation)
            assert result.overlap_profiling
            assert result.report["num_tuning_experts"] == len(assignment.exploitation)
            # compact model respects the participant's loadable-expert scale
            assert result.report["num_local_experts"] < sum(tiny_config.experts_per_layer()) + \
                tiny_config.n_layers

    def test_flux_utilities_refresh_over_rounds(self, federation, tiny_config):
        participants, test, cost_models, config = federation
        tuner = FluxFineTuner(fresh_server(tiny_config), participants, test,
                              cost_models=cost_models, config=config,
                              flux_config=FluxConfig(seed=0))
        SyncScheduler().run_round(tuner, 0)
        state = tuner.states[participants[0].participant_id]
        refreshed = [key for key, count in state.utilities.update_counts.items() if count > 0]
        assert refreshed  # at least the tuning + exploration experts got measurements

    def test_flux_global_model_changes_after_round(self, federation, tiny_config):
        participants, test, cost_models, config = federation
        server = fresh_server(tiny_config)
        before = server.global_model.state_dict()
        tuner = FluxFineTuner(server, participants, test, cost_models=cost_models, config=config)
        SyncScheduler().run_round(tuner, 0)
        after = server.global_model.state_dict()
        changed = any(not np.allclose(before[k], after[k]) for k in before)
        assert changed

    def test_flux_without_cost_models_runs(self, federation, tiny_config):
        participants, test, _, config = federation
        tuner = FluxFineTuner(fresh_server(tiny_config), participants, test, config=config)
        result = tuner.run(num_rounds=1)
        assert result.total_time == pytest.approx(0.0)

    def test_stale_profiling_reduces_round_time(self, federation, tiny_config):
        participants, test, cost_models, config = federation
        stale = FluxFineTuner(fresh_server(tiny_config), participants, test,
                              cost_models=cost_models, config=config,
                              flux_config=FluxConfig(stale_profiling=True, seed=0))
        fresh = FluxFineTuner(fresh_server(tiny_config), participants, test,
                              cost_models=cost_models, config=config,
                              flux_config=FluxConfig(stale_profiling=False, seed=0))
        stale_round, _ = SyncScheduler().run_round(stale, 0)
        fresh_round, _ = SyncScheduler().run_round(fresh, 0)
        assert stale_round.round_duration <= fresh_round.round_duration


class TestMethodComparison:
    def test_flux_round_cheaper_than_fmd(self, federation, tiny_config):
        participants, test, cost_models, config = federation
        flux = FluxFineTuner(fresh_server(tiny_config), participants, test,
                             cost_models=cost_models, config=config)
        fmd = FMDFineTuner(fresh_server(tiny_config), participants, test,
                           cost_models=cost_models, config=config)
        flux_round, _ = SyncScheduler().run_round(flux, 0)
        fmd_round, _ = SyncScheduler().run_round(fmd, 0)
        assert flux_round.round_duration < fmd_round.round_duration

    def test_all_methods_produce_valid_metrics(self, federation, tiny_config):
        participants, test, cost_models, config = federation
        for cls in (FluxFineTuner, FMDFineTuner, FMQFineTuner, FMESFineTuner):
            tuner = cls(fresh_server(tiny_config), participants, test,
                        cost_models=cost_models, config=config)
            result = tuner.run(num_rounds=1)
            assert 0.0 <= result.final_metric() <= 1.0
            assert result.total_time > 0
            assert len(result.rounds) == 1
