"""Durable run checkpoint/resume: a killed-then-resumed run == an uninterrupted one."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.core import FluxConfig, FluxFineTuner
from repro.models.presets import ARCHITECTURE_DESCRIPTORS
from repro.runtime import latest_checkpoint, load_run_checkpoint
from repro.runtime.checkpoint import (
    DELTA_BASE_FILE,
    MODEL_DELTA_FILE,
    MODEL_FILE,
    RunCheckpointer,
    STATE_FILE,
)
from repro.systems import CONSUMER_GPU, CostModel, MemoryModel

from test_runtime import ConstantMethod, build_federation

ROUND_FIELDS = (
    "round_index", "train_loss", "metric_value", "simulated_time",
    "round_duration", "num_selected", "num_aggregated", "num_dropped",
    "num_stragglers", "mean_staleness", "wire_bytes", "wire_seconds",
    "payloads_lost", "payloads_corrupted", "edge_bytes", "edge_seconds",
    "edge_payloads", "tier_bytes", "tier_seconds", "tier_payloads",
)


def assert_run_results_equal(actual, expected):
    """Field-by-field RunResult equality (exact, no tolerances)."""
    assert actual.method == expected.method
    assert len(actual.rounds) == len(expected.rounds)
    for got, want in zip(actual.rounds, expected.rounds):
        for field_name in ROUND_FIELDS:
            assert getattr(got, field_name) == getattr(want, field_name), field_name
        assert got.timeline.participant_times == want.timeline.participant_times
        assert got.timeline.server_time == want.timeline.server_time
    assert actual.tracker.target == expected.tracker.target
    assert actual.tracker.as_series() == expected.tracker.as_series()
    assert actual.timeline.total_time() == expected.timeline.total_time()


def assert_models_equal(model_a, model_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert set(state_a) == set(state_b)
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name


def build_constant_tuner(vocab, tiny_config, **config_kwargs):
    server, participants, test, config = build_federation(
        vocab, tiny_config, **config_kwargs)
    return ConstantMethod(server, participants, test, config=config)


def build_flux_tuner(vocab, tiny_config, **config_kwargs):
    server, participants, test, config = build_federation(
        vocab, tiny_config, num_clients=3, **config_kwargs)
    memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"])
    cost_models = {p.participant_id: CostModel(CONSUMER_GPU, memory)
                   for p in participants}
    return FluxFineTuner(server, participants, test, cost_models=cost_models,
                         config=config, flux_config=FluxConfig(seed=0))


SCHEDULER_KNOBS = {
    "sync": {"participants_per_round": 3},
    "semisync": {"scheduler": "semisync", "deadline_quantile": 0.7,
                 "participants_per_round": 3},
    "async": {"scheduler": "async", "buffer_size": 2, "async_concurrency": 2,
              "participants_per_round": 2},
}


class TestResumeEquivalence:
    """run(N) == run to a checkpoint, rebuild everything, resume, finish."""

    def _resume_pair(self, vocab, tiny_config, build, total_rounds=4,
                     interrupt_after=2, **knobs):
        checkpoint_dir = knobs.pop("_checkpoint_dir")
        uninterrupted = build(vocab, tiny_config, **knobs)
        expected = uninterrupted.run(num_rounds=total_rounds)
        durable = dict(knobs, checkpoint_every=interrupt_after,
                       checkpoint_dir=str(checkpoint_dir))
        first = build(vocab, tiny_config, **durable)
        first.run(num_rounds=interrupt_after)

        snapshot = latest_checkpoint(str(checkpoint_dir))
        assert snapshot is not None

        resumed_tuner = build(vocab, tiny_config, **durable)
        resumed = resumed_tuner.run(num_rounds=total_rounds, resume_from=snapshot)
        assert_run_results_equal(resumed, expected)
        assert_models_equal(resumed_tuner.server.global_model,
                            uninterrupted.server.global_model)
        return resumed

    @pytest.mark.parametrize("scheduler", ["sync", "semisync", "async"])
    def test_resume_matches_uninterrupted_per_scheduler(self, vocab, tiny_config,
                                                        tmp_path, scheduler):
        self._resume_pair(vocab, tiny_config, build_constant_tuner,
                          _checkpoint_dir=tmp_path / scheduler,
                          **SCHEDULER_KNOBS[scheduler])

    def test_resume_with_faults_and_wire_transport(self, vocab, tiny_config, tmp_path):
        self._resume_pair(
            vocab, tiny_config, build_constant_tuner,
            _checkpoint_dir=tmp_path / "wire",
            participants_per_round=3, transport="wire",
            channel_loss_prob=0.2,
            dropout_prob=0.2, straggler_prob=0.3)

    def test_resume_with_sharded_hierarchical_trimmed_mean(self, vocab, tiny_config,
                                                           tmp_path):
        resumed = self._resume_pair(
            vocab, tiny_config, build_constant_tuner,
            _checkpoint_dir=tmp_path / "topo",
            participants_per_round=3, num_shards=2, edge_tiers=(2,),
            edge_latency_s=0.05, aggregation="trimmed_mean", trim_ratio=0.2)
        assert all(r.edge_payloads > 0 for r in resumed.rounds)

    def test_flux_resume_matches_uninterrupted(self, vocab, tiny_config, tmp_path):
        self._resume_pair(vocab, tiny_config, build_flux_tuner,
                          _checkpoint_dir=tmp_path / "flux",
                          participants_per_round=2)

    def test_killed_run_resumes_from_latest_snapshot(self, vocab, tiny_config,
                                                     tmp_path):
        """A crash between checkpoints loses only the rounds after the snapshot."""
        expected = build_constant_tuner(
            vocab, tiny_config, participants_per_round=3).run(num_rounds=4)

        class DiesAtRoundThree(ConstantMethod):
            def before_round(self, round_index, selected):
                if round_index == 3:
                    raise RuntimeError("simulated coordinator crash")
                super().before_round(round_index, selected)

        durable = dict(participants_per_round=3, checkpoint_every=2,
                       checkpoint_dir=str(tmp_path / "crash"))
        server, participants, test, config = build_federation(
            vocab, tiny_config, **durable)
        with pytest.raises(RuntimeError, match="simulated coordinator crash"):
            DiesAtRoundThree(server, participants, test, config=config).run(4)

        snapshot = latest_checkpoint(str(tmp_path / "crash"))
        assert snapshot is not None and snapshot.endswith("round_00002")
        resumed_tuner = build_constant_tuner(vocab, tiny_config, **durable)
        resumed = resumed_tuner.run(num_rounds=4, resume_from=snapshot)
        assert_run_results_equal(resumed, expected)

    def test_resume_past_the_end_returns_completed_run(self, vocab, tiny_config,
                                                       tmp_path):
        durable = dict(participants_per_round=3, checkpoint_every=2,
                       checkpoint_dir=str(tmp_path / "done"))
        first = build_constant_tuner(vocab, tiny_config, **durable)
        expected = first.run(num_rounds=2)
        snapshot = latest_checkpoint(str(tmp_path / "done"))
        resumed = build_constant_tuner(vocab, tiny_config, **durable).run(
            num_rounds=2, resume_from=snapshot)
        assert_run_results_equal(resumed, expected)


class TestCheckpointMechanics:
    def test_checkpointer_cadence_and_paths(self, tmp_path):
        checkpointer = RunCheckpointer(directory=str(tmp_path), every=3)
        assert [n for n in range(1, 10) if checkpointer.due(n)] == [3, 6, 9]
        assert checkpointer.path_for(6).endswith("round_00006")
        with pytest.raises(ValueError):
            RunCheckpointer(directory=str(tmp_path), every=0)
        with pytest.raises(ValueError):
            RunCheckpointer(directory="", every=1)

    def test_snapshot_directory_contents(self, vocab, tiny_config, tmp_path):
        tuner = build_constant_tuner(
            vocab, tiny_config, participants_per_round=3, checkpoint_every=1,
            checkpoint_dir=str(tmp_path))
        tuner.run(num_rounds=2)
        snapshots = sorted(os.listdir(tmp_path))
        assert snapshots == ["round_00001", "round_00002"]
        loaded = load_run_checkpoint(os.path.join(tmp_path, "round_00002"))
        assert loaded["method"] == "constant"
        assert loaded["scheduler"] == "sync"
        assert loaded["next_round"] == 2
        assert len(loaded["rounds"]) == 2
        assert set(loaded["participants"]) == {0, 1, 2, 3}
        assert loaded["model_state"]  # parameters travel in model.npz

    def test_latest_checkpoint_skips_torn_snapshots(self, tmp_path):
        assert latest_checkpoint(str(tmp_path / "missing")) is None
        os.makedirs(tmp_path / "round_00004")  # crash before run_state.pkl landed
        complete = tmp_path / "round_00002"
        os.makedirs(complete)
        (complete / STATE_FILE).write_bytes(b"")
        assert latest_checkpoint(str(tmp_path)) == str(complete)

    def test_resave_into_existing_snapshot_stays_complete(self, vocab, tiny_config,
                                                          tmp_path):
        """Resuming from an old snapshot and re-reaching a newer round must
        rewrite that round's directory atomically (marker dropped first)."""
        durable = dict(participants_per_round=3, checkpoint_every=1,
                       checkpoint_dir=str(tmp_path))
        build_constant_tuner(vocab, tiny_config, **durable).run(num_rounds=2)
        older = str(tmp_path / "round_00001")
        resumed = build_constant_tuner(vocab, tiny_config, **durable)
        resumed.run(num_rounds=2, resume_from=older)  # rewrites round_00002
        rewritten = load_run_checkpoint(str(tmp_path / "round_00002"))
        assert rewritten["next_round"] == 2
        assert not os.path.exists(tmp_path / "round_00002" / "model.tmp.npz")

    def test_channel_state_snapshots_do_not_alias(self):
        from repro.comm import Channel

        channel = Channel(participant_id=0)
        channel.send(b"xxxx")
        snapshot = channel.export_state()
        channel.send(b"yyyy")
        assert snapshot["stats"].payloads == 1  # point-in-time capture
        other = Channel(participant_id=1)
        other.import_state(snapshot)
        other.send(b"zzzz")
        assert snapshot["stats"].payloads == 1  # import copied, no aliasing
        assert other.stats.payloads == 2

    def test_load_rejects_incomplete_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no complete run checkpoint"):
            load_run_checkpoint(str(tmp_path))

    def test_resume_guards_method_and_scheduler(self, vocab, tiny_config, tmp_path):
        durable = dict(participants_per_round=3, checkpoint_every=1,
                       checkpoint_dir=str(tmp_path))
        build_constant_tuner(vocab, tiny_config, **durable).run(num_rounds=1)
        snapshot = latest_checkpoint(str(tmp_path))

        flux = build_flux_tuner(vocab, tiny_config, **durable)
        with pytest.raises(ValueError, match="method"):
            flux.run(num_rounds=2, resume_from=snapshot)

        semisync = build_constant_tuner(
            vocab, tiny_config, scheduler="semisync", **durable)
        with pytest.raises(ValueError, match="scheduler"):
            semisync.run(num_rounds=2, resume_from=snapshot)

    def test_resume_rejects_mismatched_run_config(self, vocab, tiny_config, tmp_path):
        durable = dict(participants_per_round=3, checkpoint_every=1,
                       checkpoint_dir=str(tmp_path))
        build_constant_tuner(vocab, tiny_config, **durable).run(num_rounds=1)
        snapshot = latest_checkpoint(str(tmp_path))

        drifted = build_constant_tuner(vocab, tiny_config,
                                       aggregation="trimmed_mean", **durable)
        with pytest.raises(ValueError, match="aggregation"):
            drifted.run(num_rounds=2, resume_from=snapshot)

        # Cadence and retention are allowed, non-diverging changes: both are
        # purely operational (e.g. turning on rotation to stop disk growth).
        relaxed = dict(durable, checkpoint_every=5, checkpoint_keep_last=2)
        resumed = build_constant_tuner(vocab, tiny_config, **relaxed)
        resumed.run(num_rounds=2, resume_from=snapshot)

    @staticmethod
    def _rewrite_saved_config(snapshot, **parent_keys):
        """Give a snapshot's ``run_config`` keys an older tree would have saved."""
        state_path = os.path.join(snapshot, STATE_FILE)
        with open(state_path, "rb") as handle:
            state = pickle.load(handle)
        state["run_config"].update(parent_keys)
        with open(state_path, "wb") as handle:
            pickle.dump(state, handle)

    @pytest.mark.parametrize("parent_keys", [
        dict(streaming_aggregation=False),
        dict(streaming_aggregation=True),
        dict(service_codec="fp64", service_window=3),
        dict(num_edge_aggregators=2, edge_tiers=None),
        dict(num_edge_aggregators=2, edge_tiers=(2,)),
        dict(aggregation_executor="process", aggregation_workers=2),
        dict(streaming_aggregation=False, service_codec="wire", service_window=8,
             num_edge_aggregators=2, edge_tiers=None,
             aggregation_executor="process"),
    ], ids=["buffered", "streaming", "service-payload", "legacy-tier-knob",
            "both-tier-knobs", "process-pool", "all"])
    def test_resume_from_a_config_with_retired_fields(self, vocab, tiny_config,
                                                      tmp_path, parent_keys):
        """A snapshot whose saved RunConfig carries fields this tree retired
        (none of which changed a run's bits) resumes to the uninterrupted
        run's result."""
        knobs = dict(participants_per_round=3, num_shards=2, edge_tiers=(2,),
                     edge_latency_s=0.05)
        expected_tuner = build_constant_tuner(vocab, tiny_config, **knobs)
        expected = expected_tuner.run(num_rounds=3)

        durable = dict(knobs, checkpoint_every=2, checkpoint_dir=str(tmp_path))
        build_constant_tuner(vocab, tiny_config, **durable).run(num_rounds=2)
        snapshot = latest_checkpoint(str(tmp_path))
        self._rewrite_saved_config(snapshot, **parent_keys)

        resumed_tuner = build_constant_tuner(vocab, tiny_config, **durable)
        resumed = resumed_tuner.run(num_rounds=3, resume_from=snapshot)
        assert_run_results_equal(resumed, expected)
        assert_models_equal(resumed_tuner.server.global_model,
                            expected_tuner.server.global_model)

    def test_resume_still_refuses_different_tiers(self, vocab, tiny_config, tmp_path):
        durable = dict(participants_per_round=3, edge_tiers=(2,),
                       checkpoint_every=1, checkpoint_dir=str(tmp_path))
        build_constant_tuner(vocab, tiny_config, **durable).run(num_rounds=1)
        snapshot = latest_checkpoint(str(tmp_path))
        self._rewrite_saved_config(snapshot, num_edge_aggregators=3, edge_tiers=None)
        with pytest.raises(ValueError, match="differing fields: edge_tiers"):
            build_constant_tuner(vocab, tiny_config, **durable).run(
                num_rounds=2, resume_from=snapshot)

    def test_resume_restores_edge_channel_positions(self, vocab, tiny_config,
                                                    tmp_path):
        knobs = dict(participants_per_round=3, edge_tiers=(2,),
                     edge_latency_s=0.05)
        uninterrupted = build_constant_tuner(vocab, tiny_config, **knobs)
        uninterrupted.run(num_rounds=3)
        expected_sequences = [channel.export_state()["sequence"]
                              for channel in uninterrupted.topology.channels]

        durable = dict(knobs, checkpoint_every=2,
                       checkpoint_dir=str(tmp_path / "edges"))
        build_constant_tuner(vocab, tiny_config, **durable).run(num_rounds=2)
        snapshot = latest_checkpoint(str(tmp_path / "edges"))
        resumed_tuner = build_constant_tuner(vocab, tiny_config, **durable)
        resumed_tuner.run(num_rounds=3, resume_from=snapshot)
        assert [channel.export_state()["sequence"]
                for channel in resumed_tuner.topology.channels] == expected_sequences

    def test_resume_restores_every_tier_channel_position(self, vocab, tiny_config,
                                                         tmp_path):
        """N-tier trees snapshot one channel position per node per tier."""
        knobs = dict(participants_per_round=3, edge_tiers=(2, 2),
                     edge_latency_s=0.05)
        uninterrupted = build_constant_tuner(vocab, tiny_config, **knobs)
        uninterrupted.run(num_rounds=3)
        expected = [[channel.export_state()["sequence"] for channel in tier]
                    for tier in uninterrupted.topology.tier_channels]
        assert all(any(seq > 0 for seq in tier) for tier in expected)

        durable = dict(knobs, checkpoint_every=2,
                       checkpoint_dir=str(tmp_path / "tiers"))
        build_constant_tuner(vocab, tiny_config, **durable).run(num_rounds=2)
        snapshot = latest_checkpoint(str(tmp_path / "tiers"))
        resumed_tuner = build_constant_tuner(vocab, tiny_config, **durable)
        resumed_tuner.run(num_rounds=3, resume_from=snapshot)
        assert [[channel.export_state()["sequence"] for channel in tier]
                for tier in resumed_tuner.topology.tier_channels] == expected

    def test_legacy_two_argument_scheduler_still_runs(self, vocab, tiny_config):
        """Custom schedulers predating the durability layer keep working."""
        from repro.runtime import SyncScheduler

        class OldStyleScheduler(SyncScheduler):
            def round_results(self, tuner, num_rounds):  # no start_round
                for round_index in range(num_rounds):
                    round_result, _ = self.run_round(tuner, round_index)
                    yield round_result

        tuner = build_constant_tuner(vocab, tiny_config, participants_per_round=3)
        result = tuner.run(num_rounds=2, scheduler=OldStyleScheduler())
        assert len(result.rounds) == 2

    def test_async_restore_requires_loop_state(self, vocab, tiny_config):
        from repro.runtime import AsyncScheduler

        tuner = build_constant_tuner(vocab, tiny_config,
                                     **SCHEDULER_KNOBS["async"])
        scheduler = AsyncScheduler(buffer_size=2, concurrency=2)
        with pytest.raises(ValueError, match="restored"):
            next(scheduler.round_results(tuner, num_rounds=4, start_round=2))


class TestCheckpointRotation:
    def _complete_dir(self, root, round_index):
        path = root / f"round_{round_index:05d}"
        os.makedirs(path)
        (path / STATE_FILE).write_bytes(b"snapshot")
        return str(path)

    def test_prune_keeps_newest_complete_snapshots(self, tmp_path):
        from repro.runtime import prune_checkpoints

        for round_index in (2, 4, 6, 8):
            self._complete_dir(tmp_path, round_index)
        os.makedirs(tmp_path / "round_00005")  # torn: no completeness marker
        (tmp_path / "unrelated").mkdir()       # never touched

        removed = prune_checkpoints(str(tmp_path), keep_last=2)
        assert sorted(os.path.basename(p) for p in removed) == [
            "round_00002", "round_00004", "round_00005"]
        assert sorted(os.listdir(tmp_path)) == [
            "round_00006", "round_00008", "unrelated"]

    def test_prune_zero_keeps_everything(self, tmp_path):
        from repro.runtime import prune_checkpoints

        self._complete_dir(tmp_path, 2)
        assert prune_checkpoints(str(tmp_path), keep_last=0) == []
        assert prune_checkpoints(str(tmp_path / "missing"), keep_last=3) == []
        assert os.listdir(tmp_path) == ["round_00002"]

    def test_checkpointer_rotates_after_save(self, vocab, tiny_config, tmp_path):
        tuner = build_constant_tuner(
            vocab, tiny_config, participants_per_round=3, checkpoint_every=1,
            checkpoint_dir=str(tmp_path), checkpoint_keep_last=2)
        tuner.run(num_rounds=4)
        assert sorted(os.listdir(tmp_path)) == ["round_00003", "round_00004"]

    def test_rotated_run_still_resumes_bit_identically(self, vocab, tiny_config,
                                                       tmp_path):
        knobs = dict(participants_per_round=3, num_shards=2)
        expected_tuner = build_constant_tuner(vocab, tiny_config, **knobs)
        expected = expected_tuner.run(num_rounds=4)

        durable = dict(knobs, checkpoint_every=1, checkpoint_dir=str(tmp_path),
                       checkpoint_keep_last=1)
        build_constant_tuner(vocab, tiny_config, **durable).run(num_rounds=2)
        assert sorted(os.listdir(tmp_path)) == ["round_00002"]
        resumed_tuner = build_constant_tuner(vocab, tiny_config, **durable)
        resumed = resumed_tuner.run(num_rounds=4,
                                    resume_from=latest_checkpoint(str(tmp_path)))
        assert_run_results_equal(resumed, expected)
        assert_models_equal(resumed_tuner.server.global_model,
                            expected_tuner.server.global_model)
        assert sorted(os.listdir(tmp_path)) == ["round_00004"]

    def test_checkpointer_validates_keep_last(self, tmp_path):
        with pytest.raises(ValueError, match="keep_last"):
            RunCheckpointer(directory=str(tmp_path), every=1, keep_last=-1)


class TestDeltaCheckpoints:
    """Sparse-delta snapshot chains + the background writer.

    Every configuration must stay bit-identical to the plain full-snapshot
    path: the snapshot *encoding* is purely operational and may never change
    what a resumed run computes.
    """

    def _snapshot_files(self, root):
        return {name: sorted(os.listdir(os.path.join(root, name)))
                for name in sorted(os.listdir(root))
                if name.startswith("round_")}

    def test_full_every_k_layout(self, vocab, tiny_config, tmp_path):
        tuner = build_constant_tuner(
            vocab, tiny_config, participants_per_round=3, checkpoint_every=1,
            checkpoint_dir=str(tmp_path), checkpoint_delta_every=2)
        tuner.run(num_rounds=4)
        layout = self._snapshot_files(str(tmp_path))
        full = sorted([MODEL_FILE, STATE_FILE])
        delta = sorted([DELTA_BASE_FILE, MODEL_DELTA_FILE, STATE_FILE])
        # first save is always full; then up to delta_every=2 deltas between fulls
        assert layout == {"round_00001": full, "round_00002": delta,
                          "round_00003": delta, "round_00004": full}
        assert (tmp_path / "round_00002" / DELTA_BASE_FILE).read_text() == "round_00001"
        assert (tmp_path / "round_00003" / DELTA_BASE_FILE).read_text() == "round_00002"

    def test_chain_load_is_bit_identical_to_full_snapshots(self, vocab, tiny_config,
                                                           tmp_path):
        knobs = dict(participants_per_round=3, checkpoint_every=1)
        build_constant_tuner(vocab, tiny_config, checkpoint_dir=str(tmp_path / "full"),
                             **knobs).run(num_rounds=4)
        build_constant_tuner(vocab, tiny_config, checkpoint_dir=str(tmp_path / "delta"),
                             checkpoint_delta_every=3, **knobs).run(num_rounds=4)
        for round_index in (1, 2, 3, 4):
            name = f"round_{round_index:05d}"
            want = load_run_checkpoint(str(tmp_path / "full" / name))["model_state"]
            got = load_run_checkpoint(str(tmp_path / "delta" / name))["model_state"]
            assert set(got) == set(want)
            for key in want:
                assert got[key].dtype == want[key].dtype, key
                assert np.array_equal(got[key], want[key]), (name, key)

    @pytest.mark.parametrize("asynch", [False, True], ids=["sync", "async"])
    def test_resume_from_delta_matches_uninterrupted(self, vocab, tiny_config,
                                                     tmp_path, asynch):
        knobs = dict(participants_per_round=3)
        expected_tuner = build_constant_tuner(vocab, tiny_config, **knobs)
        expected = expected_tuner.run(num_rounds=4)

        durable = dict(knobs, checkpoint_every=1, checkpoint_dir=str(tmp_path),
                       checkpoint_delta_every=4, checkpoint_async=asynch)
        build_constant_tuner(vocab, tiny_config, **durable).run(num_rounds=2)
        snapshot = latest_checkpoint(str(tmp_path))
        # the interruption point is a delta snapshot, not a full one
        assert os.path.exists(os.path.join(snapshot, MODEL_DELTA_FILE))
        assert not os.path.exists(os.path.join(snapshot, MODEL_FILE))

        resumed_tuner = build_constant_tuner(vocab, tiny_config, **durable)
        resumed = resumed_tuner.run(num_rounds=4, resume_from=snapshot)
        assert_run_results_equal(resumed, expected)
        assert_models_equal(resumed_tuner.server.global_model,
                            expected_tuner.server.global_model)

    def test_resume_from_delta_with_wire_and_faults(self, vocab, tiny_config,
                                                    tmp_path):
        knobs = dict(participants_per_round=3, transport="wire",
                     channel_loss_prob=0.2,
                     dropout_prob=0.2, straggler_prob=0.3)
        expected_tuner = build_constant_tuner(vocab, tiny_config, **knobs)
        expected = expected_tuner.run(num_rounds=4)

        durable = dict(knobs, checkpoint_every=1, checkpoint_dir=str(tmp_path),
                       checkpoint_delta_every=4, checkpoint_async=True)
        build_constant_tuner(vocab, tiny_config, **durable).run(num_rounds=2)
        snapshot = latest_checkpoint(str(tmp_path))
        assert os.path.exists(os.path.join(snapshot, MODEL_DELTA_FILE))

        resumed_tuner = build_constant_tuner(vocab, tiny_config, **durable)
        resumed = resumed_tuner.run(num_rounds=4, resume_from=snapshot)
        assert_run_results_equal(resumed, expected)
        assert_models_equal(resumed_tuner.server.global_model,
                            expected_tuner.server.global_model)

    def test_rotation_protects_delta_chain_bases(self, vocab, tiny_config, tmp_path):
        tuner = build_constant_tuner(
            vocab, tiny_config, participants_per_round=3, checkpoint_every=1,
            checkpoint_dir=str(tmp_path), checkpoint_keep_last=1,
            checkpoint_delta_every=8)
        tuner.run(num_rounds=3)
        # round_00003 is a delta onto round_00002, itself a delta onto the
        # full round_00001: keep_last=1 must keep the whole resumable chain.
        assert sorted(os.listdir(tmp_path)) == [
            "round_00001", "round_00002", "round_00003"]
        state = load_run_checkpoint(str(tmp_path / "round_00003"))
        assert state["next_round"] == 3

    def test_load_fails_when_chain_base_is_missing(self, vocab, tiny_config,
                                                   tmp_path):
        build_constant_tuner(
            vocab, tiny_config, participants_per_round=3, checkpoint_every=1,
            checkpoint_dir=str(tmp_path), checkpoint_delta_every=8,
        ).run(num_rounds=2)
        os.remove(tmp_path / "round_00001" / STATE_FILE)  # now torn
        with pytest.raises(FileNotFoundError, match="base"):
            load_run_checkpoint(str(tmp_path / "round_00002"))

    def test_writer_error_surfaces_on_round_loop(self, vocab, tiny_config, tmp_path):
        checkpointer = RunCheckpointer(directory=str(tmp_path), every=1,
                                       background=True)
        tuner = build_constant_tuner(vocab, tiny_config, participants_per_round=3)
        boom = RuntimeError("disk gone")

        checkpointer.save(tuner, _DummyScheduler(), None, None, [])
        checkpointer.finish()  # first write lands fine

        def explode(*args, **kwargs):
            raise boom

        import repro.runtime.checkpoint as ckpt_mod
        original = ckpt_mod.write_run_checkpoint
        ckpt_mod.write_run_checkpoint = explode
        try:
            checkpointer.save(tuner, _DummyScheduler(), None, None, [])
            with pytest.raises(RuntimeError, match="disk gone"):
                checkpointer.finish()
        finally:
            ckpt_mod.write_run_checkpoint = original

    def test_validates_delta_every(self, tmp_path):
        with pytest.raises(ValueError, match="delta_every"):
            RunCheckpointer(directory=str(tmp_path), every=1, delta_every=-1)
        from repro.federated import RunConfig
        with pytest.raises(ValueError, match="checkpoint_delta_every"):
            RunConfig(checkpoint_delta_every=-1)


class _DummyScheduler:
    name = "sync"

    def export_state(self):
        return None
