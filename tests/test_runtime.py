"""Tests for the event-driven runtime: events, sampling, faults, schedulers, executor."""

import gc

import numpy as np
import pytest

from repro.data import make_gsm8k_like, partition_dirichlet
from repro.federated import (
    ExpertUpdate,
    FederatedFineTuner,
    ParameterServer,
    Participant,
    ParticipantResources,
    ParticipantRoundResult,
    RunConfig,
)
from repro.models import MoETransformer
from repro.runtime import (
    AsyncScheduler,
    AvailabilityTraceSampler,
    EventQueue,
    FaultInjector,
    ResourceAwareSampler,
    SemiSyncScheduler,
    SyncScheduler,
    UniformSampler,
    make_scheduler,
    scale_breakdown,
)
from repro.systems import RoundCostBreakdown, RoundTimeline, heterogeneous_fleet


# --------------------------------------------------------------------- events
class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(3.0, "c")
        queue.push(1.0, "a")
        queue.push(2.0, "b")
        assert [queue.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        queue = EventQueue()
        first = queue.push(1.0, "x", tag=1)
        second = queue.push(1.0, "x", tag=2)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_pop_until_inclusive(self):
        queue = EventQueue()
        for t in (0.5, 1.0, 1.5, 2.0):
            queue.push(t, "e")
        fired = queue.pop_until(1.5)
        assert [e.time for e in fired] == [0.5, 1.0, 1.5]
        assert len(queue) == 1

    def test_peek_and_empty_errors(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        with pytest.raises(IndexError):
            queue.pop()
        queue.push(1.0, "e")
        assert queue.peek().time == 1.0
        assert len(queue) == 1  # peek does not consume

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, "e")


# ------------------------------------------------------------------- sampling
def _mini_participants(vocab, num=5, heterogeneous=False, seed=0):
    dataset = make_gsm8k_like(vocab=vocab, num_samples=10 * num, seed=seed)
    shards = partition_dirichlet(dataset, num, alpha=0.5, seed=seed)
    devices = (heterogeneous_fleet(num, seed=seed) if heterogeneous else [None] * num)
    participants = []
    for i, shard in enumerate(shards):
        kwargs = {"device": devices[i]} if heterogeneous else {}
        participants.append(Participant(i, dataset.subset(shard),
                                        resources=ParticipantResources(8, 4),
                                        seed=seed + i, **kwargs))
    return participants


class TestSamplers:
    def test_uniform_matches_legacy_draw(self, vocab):
        participants = _mini_participants(vocab)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        sampled = UniformSampler().sample(participants, 2, 0, rng_a)
        picked = rng_b.choice(len(participants), size=2, replace=False)
        assert [p.participant_id for p in sampled] == [int(i) for i in picked]

    def test_uniform_none_returns_everyone(self, vocab):
        participants = _mini_participants(vocab)
        assert UniformSampler().sample(participants, None, 0, np.random.default_rng(0)) \
            == list(participants)

    def test_resource_aware_prefers_fast_devices(self, vocab):
        participants = _mini_participants(vocab, heterogeneous=True)
        flops = {p.participant_id: p.device.effective_flops for p in participants}
        sampler = ResourceAwareSampler(power=8.0)  # sharpen towards the fastest
        counts = {pid: 0 for pid in flops}
        rng = np.random.default_rng(0)
        for round_index in range(200):
            for p in sampler.sample(participants, 1, round_index, rng):
                counts[p.participant_id] += 1
        fastest = max(flops, key=flops.get)
        slowest = min(flops, key=flops.get)
        assert counts[fastest] > counts[slowest]

    def test_availability_trace_restricts_selection(self, vocab):
        participants = _mini_participants(vocab)
        sampler = AvailabilityTraceSampler({0: [1, 3], 2: []})
        rng = np.random.default_rng(0)
        assert {p.participant_id for p in sampler.sample(participants, None, 0, rng)} == {1, 3}
        # rounds missing from the trace mean everyone is online
        assert len(sampler.sample(participants, None, 1, rng)) == len(participants)
        assert sampler.sample(participants, 3, 2, rng) == []

    def test_availability_predicate(self, vocab):
        participants = _mini_participants(vocab)
        sampler = AvailabilityTraceSampler(lambda rnd, pid: pid % 2 == rnd % 2)
        rng = np.random.default_rng(0)
        assert {p.participant_id for p in sampler.sample(participants, None, 1, rng)} == {1, 3}


# --------------------------------------------------------------------- faults
class TestFaultInjector:
    def test_inactive_by_default(self):
        injector = FaultInjector()
        outcome = injector.outcome(0, 0)
        assert not outcome.dropped and outcome.slowdown == 1.0

    def test_outcomes_independent_of_call_order(self):
        injector = FaultInjector(dropout_prob=0.3, straggler_prob=0.3, seed=7)
        forward = [injector.outcome(2, pid) for pid in range(20)]
        backward = [injector.outcome(2, pid) for pid in reversed(range(20))]
        assert forward == list(reversed(backward))

    def test_seed_changes_outcomes(self):
        a = FaultInjector(dropout_prob=0.5, seed=1)
        b = FaultInjector(dropout_prob=0.5, seed=2)
        outcomes_a = [a.outcome(0, pid).dropped for pid in range(64)]
        outcomes_b = [b.outcome(0, pid).dropped for pid in range(64)]
        assert outcomes_a != outcomes_b

    def test_probabilities_roughly_respected(self):
        injector = FaultInjector(dropout_prob=0.25, straggler_prob=0.25, seed=0)
        outcomes = [injector.outcome(r, pid) for r in range(20) for pid in range(20)]
        drop_rate = np.mean([o.dropped for o in outcomes])
        assert 0.15 < drop_rate < 0.35

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(dropout_prob=1.5)
        with pytest.raises(ValueError):
            FaultInjector(straggler_slowdown=0.5)

    def test_scale_breakdown_scales_total_linearly(self):
        breakdown = RoundCostBreakdown(profiling=1.0, training=2.0, communication=3.0,
                                       quantization=0.5, assignment=0.25)
        scaled = scale_breakdown(breakdown, 3.0)
        for overlap in (False, True):
            assert scaled.total(overlap_profiling=overlap) == \
                pytest.approx(3.0 * breakdown.total(overlap_profiling=overlap))


# ----------------------------------------------------------------- federation
class ConstantMethod(FederatedFineTuner):
    """Minimal method with per-participant deterministic cost/loss."""

    name = "constant"

    def participant_round(self, participant, round_index):
        model = self.server.model_snapshot()
        batches = participant.local_batches(self.config.batch_size, max_batches=1,
                                            max_seq_len=model.config.max_seq_len)
        result = participant.local_finetune(model, batches,
                                            learning_rate=self.config.learning_rate)
        updates = [ExpertUpdate(participant.participant_id, 0, 0,
                                model.expert_state(0, 0), 1.0)]
        return ParticipantRoundResult(
            updates=updates,
            breakdown=RoundCostBreakdown(training=float(participant.participant_id + 1)),
            train_loss=result.mean_loss,
        )


def build_federation(vocab, tiny_config, num_clients=4, seed=0, **config_kwargs):
    dataset = make_gsm8k_like(vocab=vocab, num_samples=80, seed=11)
    train, test = dataset.split(seed=11)
    shards = partition_dirichlet(train, num_clients, alpha=0.5, seed=seed)
    participants = [
        Participant(i, train.subset(shard), resources=ParticipantResources(8, 4), seed=seed + i)
        for i, shard in enumerate(shards)
    ]
    server = ParameterServer(MoETransformer(tiny_config))
    config = RunConfig(batch_size=8, max_local_batches=1, eval_max_samples=12,
                       seed=seed, **config_kwargs)
    return server, participants, test, config


def legacy_reference_run(tuner, num_rounds):
    """The pre-runtime synchronous loop, replicated verbatim as an oracle."""
    history = []
    for round_index in range(num_rounds):
        selected = tuner.select_participants(round_index)
        tuner.before_round(round_index, selected)
        timeline = RoundTimeline(round_index=round_index)
        results, all_updates, losses = {}, [], []
        for participant in selected:
            result = tuner.participant_round(participant, round_index)
            results[participant.participant_id] = result
            timeline.record_participant(participant.participant_id, result.breakdown,
                                        overlap_profiling=result.overlap_profiling)
            all_updates.extend(result.updates)
            losses.append(result.train_loss)
        tuner.server.aggregate(all_updates)
        timeline.server_time = tuner._server_aggregation_time(len(all_updates))
        tuner.after_aggregation(round_index, results)
        duration = timeline.round_duration()
        simulated = tuner.clock.advance(duration)
        history.append({
            "train_loss": float(np.mean(losses)) if losses else 0.0,
            "metric": tuner.evaluate(),
            "simulated_time": simulated,
            "duration": duration,
            "participant_times": dict(timeline.participant_times),
        })
    return history


# ----------------------------------------------------------------- schedulers
class TestSyncSchedulerEquivalence:
    def test_matches_legacy_loop_exactly(self, vocab, tiny_config):
        """tuner.run() (default sync scheduler) == the historical round loop."""
        server_a, parts_a, test_a, config_a = build_federation(
            vocab, tiny_config, participants_per_round=3)
        server_b, parts_b, test_b, config_b = build_federation(
            vocab, tiny_config, participants_per_round=3)

        reference = legacy_reference_run(
            ConstantMethod(server_a, parts_a, test_a, config=config_a), 2)
        result = ConstantMethod(server_b, parts_b, test_b, config=config_b).run(num_rounds=2)

        assert len(result.rounds) == 2
        for round_result, expected in zip(result.rounds, reference):
            assert round_result.train_loss == expected["train_loss"]
            assert round_result.metric_value == expected["metric"]
            assert round_result.simulated_time == expected["simulated_time"]
            assert round_result.round_duration == expected["duration"]
            assert round_result.timeline.participant_times == expected["participant_times"]

    def test_run_round_legacy_api_still_works(self, vocab, tiny_config):
        server, participants, test, config = build_federation(vocab, tiny_config)
        tuner = ConstantMethod(server, participants, test, config=config)
        round_result, results = tuner.run_round(0)
        assert round_result.round_index == 0
        assert set(results) == {p.participant_id for p in participants}
        assert round_result.num_selected == len(participants)
        assert round_result.num_aggregated == len(participants)

    def test_sync_dropout_reduces_aggregated(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, dropout_prob=0.5, seed=3)
        tuner = ConstantMethod(server, participants, test, config=config)
        result = tuner.run(num_rounds=2)
        for round_result in result.rounds:
            assert round_result.num_aggregated + round_result.num_dropped \
                == round_result.num_selected
        assert sum(r.num_dropped for r in result.rounds) > 0

    def test_sync_straggler_slows_round(self, vocab, tiny_config):
        baseline_setup = build_federation(vocab, tiny_config, seed=1)
        slowed_setup = build_federation(vocab, tiny_config, seed=1,
                                        straggler_prob=1.0, straggler_slowdown=5.0)
        baseline = ConstantMethod(*baseline_setup[:3], config=baseline_setup[3]).run(1)
        slowed = ConstantMethod(*slowed_setup[:3], config=slowed_setup[3]).run(1)
        assert slowed.rounds[0].round_duration == \
            pytest.approx(5.0 * baseline.rounds[0].round_duration)
        assert slowed.rounds[0].num_stragglers == slowed.rounds[0].num_selected

    def test_dropped_clients_never_train(self, vocab, tiny_config):
        """Dropout is decided before local work: no wasted training runs."""
        class CountingMethod(ConstantMethod):
            calls = 0

            def participant_round(self, participant, round_index):
                CountingMethod.calls += 1
                return super().participant_round(participant, round_index)

        server, participants, test, config = build_federation(
            vocab, tiny_config, dropout_prob=1.0)
        CountingMethod.calls = 0
        result = CountingMethod(server, participants, test, config=config).run(1)
        assert CountingMethod.calls == 0
        assert result.rounds[0].num_dropped == len(participants)

    def test_subclass_select_participants_override_is_honored(self, vocab, tiny_config):
        """Legacy extension point: overriding selection still steers run()."""
        class FirstTwoOnly(ConstantMethod):
            def select_participants(self, round_index):
                return self.participants[:2]

        server, participants, test, config = build_federation(vocab, tiny_config)
        result = FirstTwoOnly(server, participants, test, config=config).run(1)
        assert result.rounds[0].num_selected == 2
        assert set(result.rounds[0].timeline.participant_times) == {0, 1}

    def test_fault_runs_are_seed_deterministic(self, vocab, tiny_config):
        outcomes = []
        for _ in range(2):
            server, participants, test, config = build_federation(
                vocab, tiny_config, dropout_prob=0.3, straggler_prob=0.3, seed=5)
            result = ConstantMethod(server, participants, test, config=config).run(2)
            outcomes.append([(r.num_dropped, r.num_stragglers, r.metric_value,
                              r.simulated_time) for r in result.rounds])
        assert outcomes[0] == outcomes[1]


class TestSemiSyncScheduler:
    def test_deadline_drops_stragglers(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler="semisync", deadline_quantile=0.5)
        tuner = ConstantMethod(server, participants, test, config=config)
        result = tuner.run(num_rounds=1)
        round_result = result.rounds[0]
        # ConstantMethod durations are 1..N seconds; the 0.5-quantile deadline
        # must exclude the slowest participants.
        assert 0 < round_result.num_aggregated < round_result.num_selected
        assert round_result.num_stragglers > 0
        assert round_result.round_duration < max(
            p.participant_id + 1 for p in participants) + round_result.timeline.server_time

    def test_fixed_deadline_respected(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler="semisync", deadline_seconds=2.5)
        result = ConstantMethod(server, participants, test, config=config).run(1)
        round_result = result.rounds[0]
        assert round_result.num_aggregated == 2  # durations 1s and 2s beat 2.5s
        assert round_result.round_duration == pytest.approx(2.5)

    def test_deadline_extends_to_first_finisher(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler="semisync", deadline_seconds=0.1)
        result = ConstantMethod(server, participants, test, config=config).run(1)
        assert result.rounds[0].num_aggregated == 1  # never an empty round

    def test_semisync_is_seed_deterministic(self, vocab, tiny_config):
        metrics = []
        for _ in range(2):
            server, participants, test, config = build_federation(
                vocab, tiny_config, scheduler="semisync", deadline_quantile=0.6,
                straggler_prob=0.25, seed=9)
            result = ConstantMethod(server, participants, test, config=config).run(2)
            metrics.append([(r.metric_value, r.simulated_time, r.num_aggregated)
                            for r in result.rounds])
        assert metrics[0] == metrics[1]


class TestNothingOutlivesItsRound:
    """A round's per-participant results (and their updates) die with the round."""

    @pytest.mark.parametrize("transport", ["analytic", "wire"])
    @pytest.mark.parametrize("scheduler", ["sync", "semisync"])
    def test_no_update_is_alive_when_the_next_round_starts(self, vocab, tiny_config,
                                                           scheduler, transport):
        live_at_round_start = []

        class Census(ConstantMethod):
            def before_round(self, round_index, selected):
                gc.collect()
                live_at_round_start.append(sum(
                    isinstance(obj, ExpertUpdate) for obj in gc.get_objects()))

        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler=scheduler, transport=transport,
            deadline_quantile=0.5)
        result = Census(server, participants, test, config=config).run(num_rounds=3)
        assert all(r.num_aggregated > 0 for r in result.rounds)
        # whatever other tests left behind is there before round 0 too
        assert live_at_round_start == [live_at_round_start[0]] * 3


class TestAsyncScheduler:
    def test_staleness_discount_math(self):
        scheduler = AsyncScheduler(staleness_exponent=0.5)
        assert scheduler.staleness_discount(0) == pytest.approx(1.0)
        assert scheduler.staleness_discount(3) == pytest.approx(0.5)
        assert AsyncScheduler(staleness_exponent=0.0).staleness_discount(7) == 1.0
        assert AsyncScheduler(staleness_exponent=1.0).staleness_discount(1) == \
            pytest.approx(0.5)

    def test_async_run_produces_aggregations(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler="async", buffer_size=2, async_concurrency=3)
        tuner = ConstantMethod(server, participants, test, config=config)
        result = tuner.run(num_rounds=3)
        assert len(result.rounds) == 3
        assert server.round_index == 3
        times = [r.simulated_time for r in result.rounds]
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert result.total_time == pytest.approx(times[-1])
        # Three concurrent clients feed a buffer of two: the leftover client
        # that started on version v lands in a later aggregation, so stale
        # contributions must appear.
        assert any(r.mean_staleness > 0 for r in result.rounds)

    def test_async_is_seed_deterministic(self, vocab, tiny_config):
        metrics = []
        for _ in range(2):
            server, participants, test, config = build_federation(
                vocab, tiny_config, scheduler="async", buffer_size=2,
                async_concurrency=3, straggler_prob=0.2, seed=4)
            result = ConstantMethod(server, participants, test, config=config).run(3)
            metrics.append([(r.metric_value, r.simulated_time, r.mean_staleness)
                            for r in result.rounds])
        assert metrics[0] == metrics[1]

    def test_async_empty_availability_does_not_crash(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler="async", buffer_size=2,
            sampler="availability",
            availability_trace={v: [] for v in range(10)})
        tuner = ConstantMethod(server, participants, test, config=config)
        result = tuner.run(num_rounds=2)
        assert result.rounds == []  # nobody ever online: no aggregations, no crash

    def test_async_records_dropouts(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler="async", buffer_size=2,
            async_concurrency=3, dropout_prob=0.4, seed=2)
        result = ConstantMethod(server, participants, test, config=config).run(3)
        for round_result in result.rounds:
            assert round_result.num_selected == \
                round_result.num_aggregated + round_result.num_dropped
        assert sum(r.num_dropped for r in result.rounds) > 0

    def test_async_recovers_slots_when_clients_come_online(self, vocab, tiny_config):
        """Slots unfillable at version 0 are reclaimed after aggregations."""
        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler="async", buffer_size=2,
            async_concurrency=3, sampler="availability",
            availability_trace={0: [0]})  # later versions: everyone online
        result = ConstantMethod(server, participants, test, config=config).run(2)
        assert len(result.rounds) == 2
        # Version 0 could only ever run client 0; after the first aggregation
        # the freed + recovered slots must bring other clients in.
        assert set(result.rounds[0].timeline.participant_times) == {0}
        assert len(result.rounds[1].timeline.participant_times) > 1

    def test_async_rejects_process_executor(self):
        with pytest.raises(ValueError, match="serial"):
            make_scheduler(RunConfig(scheduler="async", executor="process"))

    def test_async_staleness_is_bounded_by_version(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler="async", buffer_size=1, async_concurrency=4)
        result = ConstantMethod(server, participants, test, config=config).run(4)
        for round_result in result.rounds:
            assert 0 <= round_result.mean_staleness <= round_result.round_index


class TestSchedulerFactory:
    def test_make_scheduler_selects_policy(self):
        assert isinstance(make_scheduler(RunConfig()), SyncScheduler)
        assert isinstance(make_scheduler(RunConfig(scheduler="semisync")), SemiSyncScheduler)
        assert isinstance(make_scheduler(RunConfig(scheduler="async")), AsyncScheduler)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(scheduler="nope")
        with pytest.raises(ValueError):
            RunConfig(dropout_prob=2.0)
        with pytest.raises(ValueError):
            RunConfig(executor="threads")

    def test_availability_sampler_requires_trace(self):
        with pytest.raises(ValueError):
            make_scheduler(RunConfig(sampler="availability"))
        scheduler = make_scheduler(RunConfig(sampler="availability",
                                             availability_trace={0: [0]}))
        assert isinstance(scheduler.sampler, AvailabilityTraceSampler)


# ----------------------------------------------------------- flux end-to-end
class TestFluxUnderRuntime:
    def _flux_tuner(self, vocab, tiny_config, **config_kwargs):
        from repro.core import FluxConfig, FluxFineTuner
        from repro.models.presets import ARCHITECTURE_DESCRIPTORS
        from repro.systems import CONSUMER_GPU, CostModel, MemoryModel

        server, participants, test, config = build_federation(
            vocab, tiny_config, num_clients=3, **config_kwargs)
        memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"])
        cost_models = {p.participant_id: CostModel(CONSUMER_GPU, memory)
                       for p in participants}
        return FluxFineTuner(server, participants, test, cost_models=cost_models,
                             config=config, flux_config=FluxConfig(seed=0))

    def test_flux_sync_matches_legacy_loop(self, vocab, tiny_config):
        """Acceptance: same per-round eval metrics and simulated-time totals."""
        reference = legacy_reference_run(self._flux_tuner(vocab, tiny_config), 2)
        result = self._flux_tuner(vocab, tiny_config).run(num_rounds=2)
        for round_result, expected in zip(result.rounds, reference):
            assert round_result.metric_value == expected["metric"]
            assert round_result.train_loss == expected["train_loss"]
            assert round_result.simulated_time == expected["simulated_time"]
        assert result.total_time == pytest.approx(reference[-1]["simulated_time"])

    @pytest.mark.slow
    def test_flux_process_executor_matches_serial(self, vocab, tiny_config):
        serial = self._flux_tuner(vocab, tiny_config).run(num_rounds=2)
        parallel_tuner = self._flux_tuner(vocab, tiny_config, executor="process")
        parallel = parallel_tuner.run(num_rounds=2)
        for a, b in zip(serial.rounds, parallel.rounds):
            assert a.train_loss == b.train_loss
            assert a.metric_value == b.metric_value
            assert a.simulated_time == b.simulated_time
        # Flux per-client state (utility EMA) must have been replayed too.
        baseline_states = self._flux_tuner(vocab, tiny_config)
        baseline_states.run(num_rounds=2)
        for pid, state in parallel_tuner.states.items():
            expected = baseline_states.states[pid].utilities.as_dict()
            assert state.utilities.as_dict() == expected

    def test_flux_semisync_and_async_run(self, vocab, tiny_config):
        for kwargs in ({"scheduler": "semisync", "deadline_quantile": 0.7},
                       {"scheduler": "async", "buffer_size": 2, "async_concurrency": 2}):
            result = self._flux_tuner(vocab, tiny_config, **kwargs).run(num_rounds=2)
            assert len(result.rounds) == 2
            assert all(0.0 <= r.metric_value <= 1.0 for r in result.rounds)
            assert result.total_time > 0


# ------------------------------------------------------------------- executor
class TestExecutorEquivalence:
    def _run(self, vocab, tiny_config, executor):
        server, participants, test, config = build_federation(
            vocab, tiny_config, num_clients=3, executor=executor)
        if executor == "process":
            config.executor_workers = 2
        tuner = ConstantMethod(server, participants, test, config=config)
        result = tuner.run(num_rounds=2)
        state = {p.participant_id: p._round_seed for p in participants}
        return result, state

    def test_process_pool_matches_serial(self, vocab, tiny_config):
        serial_result, serial_state = self._run(vocab, tiny_config, "serial")
        process_result, process_state = self._run(vocab, tiny_config, "process")
        assert process_state == serial_state  # mutated client state replayed
        for a, b in zip(serial_result.rounds, process_result.rounds):
            assert a.train_loss == b.train_loss
            assert a.metric_value == b.metric_value
            assert a.simulated_time == b.simulated_time

    def test_run_round_legacy_api_with_process_executor(self, vocab, tiny_config):
        """run_round stores the scheduler on the tuner; the live pool must not
        end up inside the pickled payload shipped to the workers."""
        server, participants, test, config = build_federation(
            vocab, tiny_config, num_clients=3, executor="process", executor_workers=2)
        tuner = ConstantMethod(server, participants, test, config=config)
        first, results = tuner.run_round(0)
        second, _ = tuner.run_round(1)  # pool exists on the tuner by now
        assert len(results) == 3
        assert second.round_index == 1
        tuner.close()
        assert tuner._legacy_scheduler is None  # idempotent release
        tuner.close()
