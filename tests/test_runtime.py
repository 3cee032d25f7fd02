"""Tests for the event-driven runtime: events, participant selection, faults, the
participant loop, schedulers."""

import dataclasses
import gc
from types import SimpleNamespace

import numpy as np
import pytest

import repro.runtime.scheduler as scheduler_module
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
    EventQueue,
    FaultInjector,
    SemiSyncScheduler,
    SyncScheduler,
    make_scheduler,
    scale_breakdown,
)
from repro.obs import NULL_TELEMETRY, Tracer
from repro.runtime.scheduler import run_participants
from repro.runtime.faults import STRAGGLER_SLOWDOWN
from repro.systems import RoundCostBreakdown, RoundTimeline

from fold_oracles import fedavg_states


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

    def test_empty_errors(self):
        queue = EventQueue()
        assert not queue
        with pytest.raises(IndexError):
            queue.pop()
        queue.push(1.0, "e")
        assert queue.snapshot()[0].time == 1.0
        assert len(queue) == 1  # a snapshot does not consume

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, "e")


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
            FaultInjector(straggler_prob=-0.1)

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
    config = RunConfig(**{"batch_size": 8, "max_local_batches": 1, "eval_max_samples": 12,
                          "seed": seed, **config_kwargs})
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


# ----------------------------------------------------------- participant loop
class TestSelectParticipants:
    """``FederatedFineTuner.select_participants``: the one uniform draw."""

    def _tuner(self, vocab, tiny_config, **config_kwargs):
        server, participants, test, config = build_federation(
            vocab, tiny_config, num_clients=5, seed=3, **config_kwargs)
        return ConstantMethod(server, participants, test, config=config)

    def test_uniform_matches_legacy_draw(self, vocab, tiny_config):
        tuner = self._tuner(vocab, tiny_config, participants_per_round=2)
        picked = np.random.default_rng(3).choice(5, size=2, replace=False)
        assert [p.participant_id for p in tuner.select_participants(0)] == \
            [int(i) for i in picked]

    def test_no_per_round_count_takes_everyone(self, vocab, tiny_config):
        tuner = self._tuner(vocab, tiny_config)
        state = tuner._rng.bit_generator.state
        assert tuner.select_participants(0) == tuner.participants
        assert tuner._rng.bit_generator.state == state  # no draw

    def test_draws_num_of_the_candidates(self, vocab, tiny_config):
        tuner = self._tuner(vocab, tiny_config, participants_per_round=2)
        idle = tuner.participants[1:4]
        picked = np.random.default_rng(3).choice(3, size=1, replace=False)
        assert tuner.select_participants(0, idle, 1) == [idle[int(picked[0])]]
        state = tuner._rng.bit_generator.state
        assert tuner.select_participants(0, idle[:1], 1) == idle[:1]
        assert tuner._rng.bit_generator.state == state  # a pool of one: no draw


class _LoggingTuner:
    """Just what :func:`run_participants` touches, logging every call."""

    def __init__(self, log, fail_on=None):
        self.log = log
        self.fail_on = fail_on
        self.prepared = []
        self.telemetry = NULL_TELEMETRY

    def prepare_round(self, round_index, participants):
        self.prepared.append((round_index, [p.participant_id for p in participants],
                              len(self.log)))

    def participant_round(self, participant, round_index):
        pid = participant.participant_id
        self.log.append(("train", pid, round_index))
        if pid == self.fail_on:
            raise RuntimeError(f"participant {pid} failed")
        return ParticipantRoundResult(
            updates=[], train_loss=float(pid),
            breakdown=RoundCostBreakdown(profiling=2.0, training=pid + 1.0,
                                         communication=0.5),
            overlap_profiling=pid % 2 == 1)

    def frame_upload(self, result):
        self.log.append(("frame", int(result.train_loss)))
        return ParticipantRoundResult(updates=result.updates, breakdown=result.breakdown,
                                      train_loss=result.train_loss,
                                      overlap_profiling=result.overlap_profiling,
                                      report={"framed": True})


def _traced(tuner, log=None):
    finished = []

    def sink(span):
        finished.append(span)
        if log is not None:
            log.append(("span", span.attributes["participant"]))

    tuner.telemetry = SimpleNamespace(tracer=Tracer(sink=sink))
    return finished


def _stub_participants(*ids):
    return [SimpleNamespace(participant_id=pid) for pid in ids]


class TestParticipantLoop:
    def test_trains_then_frames_each_participant_in_turn(self):
        log = []
        results = run_participants(_LoggingTuner(log), _stub_participants(2, 0, 1), 7)
        assert log == [("train", 2, 7), ("frame", 2), ("train", 0, 7), ("frame", 0),
                       ("train", 1, 7), ("frame", 1)]
        assert list(results) == [2, 0, 1]
        assert all(result.report == {"framed": True} for result in results.values())

    def test_prepares_everyone_once_before_anyone_trains(self):
        tuner = _LoggingTuner([])
        run_participants(tuner, _stub_participants(2, 0, 1), 7)
        assert tuner.prepared == [(7, [2, 0, 1], 0)]

    def test_no_participants_train_nobody(self):
        log = []
        tuner = _LoggingTuner(log)
        assert run_participants(tuner, [], 0) == {}
        assert log == [] and tuner.prepared == []

    def test_a_failing_participant_stops_the_round(self):
        log = []
        tuner = _LoggingTuner(log, fail_on=0)
        finished = _traced(tuner)
        with pytest.raises(RuntimeError, match="participant 0"):
            run_participants(tuner, _stub_participants(1, 0, 2), 0)
        assert log == [("train", 1, 0), ("frame", 1), ("train", 0, 0)]
        # the failed participant's span still closed, without a simulated duration
        assert [(s.attributes["participant"], s.sim_duration) for s in finished] == [
            (1, 4.0), (0, None)]
        assert not tuner.telemetry.tracer._stack

    def test_one_train_span_per_participant_with_its_cost(self):
        tuner = _LoggingTuner([])
        finished = _traced(tuner)
        participants = _stub_participants(0, 1, 2)
        run_participants(tuner, participants, 0)
        assert [(s.name, s.category) for s in finished] == [
            ("participant_round", "train")] * 3
        assert [s.attributes["participant"] for s in finished] == [0, 1, 2]
        # odd ids overlap profiling with the uplink: 0.5 s of their 2 s is hidden
        assert [s.sim_duration for s in finished] == [3.5, 4.0, 5.5]

    def test_train_spans_nest_in_the_open_round(self):
        tuner = _LoggingTuner([])
        finished = _traced(tuner)
        tracer = tuner.telemetry.tracer
        with tracer.span("round", category="round", round=3) as round_span:
            run_participants(tuner, _stub_participants(0, 1), 3)
        train = [s for s in finished if s.category == "train"]
        assert [s.parent_id for s in train] == [round_span.span_id] * 2
        assert [s.round for s in train] == [3, 3]

    def test_the_span_times_training_not_framing(self):
        log = []
        tuner = _LoggingTuner(log)
        _traced(tuner, log)
        run_participants(tuner, _stub_participants(0, 1), 0)
        assert log == [("train", 0, 0), ("span", 0), ("frame", 0),
                       ("train", 1, 0), ("span", 1), ("frame", 1)]

    @pytest.mark.parametrize("scheduler, calls", [
        ("sync", [[0, 1, 2]]), ("semisync", [[0, 1, 2]]), ("async", [])],
        ids=["sync", "semisync", "async"])
    def test_round_based_schedulers_train_through_it(self, vocab, tiny_config,
                                                     monkeypatch, scheduler, calls):
        """The async scheduler trains one client at a time and frames at delivery."""
        seen = []

        def recorded(tuner, participants, round_index):
            seen.append([p.participant_id for p in participants])
            return run_participants(tuner, participants, round_index)

        monkeypatch.setattr(scheduler_module, "run_participants", recorded)
        server, participants, test, config = build_federation(
            vocab, tiny_config, num_clients=3, scheduler=scheduler, buffer_size=1,
            deadline_quantile=1.0)
        result = ConstantMethod(server, participants, test, config=config).run(1)
        assert seen == calls
        assert result.rounds[0].num_aggregated == (3 if calls else 1)

    @pytest.mark.parametrize("scheduler_cls",
                             [SyncScheduler, SemiSyncScheduler, AsyncScheduler])
    def test_schedulers_take_no_executor(self, scheduler_cls):
        with pytest.raises(TypeError, match="executor"):
            scheduler_cls(executor=object())


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

    def test_run_round_returns_the_round_and_its_results(self, vocab, tiny_config):
        server, participants, test, config = build_federation(vocab, tiny_config)
        tuner = ConstantMethod(server, participants, test, config=config)
        round_result, results = SyncScheduler().run_round(tuner, 0)
        assert round_result.round_index == 0
        assert set(results) == {p.participant_id for p in participants}
        assert round_result.num_selected == len(participants)
        assert round_result.num_aggregated == len(participants)

    def test_run_round_twice_then_close_twice(self, vocab, tiny_config):
        """Rounds driven by hand, then close() twice: it is idempotent."""
        server, participants, test, config = build_federation(
            vocab, tiny_config, num_clients=3)
        tuner = ConstantMethod(server, participants, test, config=config)
        scheduler = SyncScheduler(FaultInjector.from_config(config))
        first, results = scheduler.run_round(tuner, 0)
        second, _ = scheduler.run_round(tuner, 1)
        assert len(results) == 3
        assert (first.round_index, second.round_index) == (0, 1)
        assert second.simulated_time == first.round_duration + second.round_duration
        tuner.close()
        tuner.close()

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
                                        straggler_prob=1.0)
        baseline = ConstantMethod(*baseline_setup[:3], config=baseline_setup[3]).run(1)
        slowed = ConstantMethod(*slowed_setup[:3], config=slowed_setup[3]).run(1)
        assert slowed.rounds[0].round_duration == \
            pytest.approx(STRAGGLER_SLOWDOWN * baseline.rounds[0].round_duration)
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

    def test_a_low_quantile_still_aggregates_the_first_finisher(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler="semisync", deadline_quantile=0.01)
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
        scheduler = AsyncScheduler()
        assert scheduler.staleness_discount(0) == pytest.approx(1.0)
        assert scheduler.staleness_discount(3) == pytest.approx(0.5)
        assert scheduler.staleness_discount(-2) == 1.0

    @staticmethod
    def _aggregate_stale_and_fresh(vocab, tiny_config, **knobs):
        """One async aggregation at version 3 of a buffer whose four updates of
        expert (0, 0) are 0, 2, 0 and 3 versions stale; returns the written
        state, the expected discounted-FedAvg inputs and the round.  A float64
        oracle: the written state must equal the fold oracle bit for bit."""
        tiny_config = dataclasses.replace(tiny_config, dtype="float64")
        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler="async", **knobs)
        tuner = ConstantMethod(server, participants, test, config=config)
        template = server.global_model.expert_state(0, 0)
        rng = np.random.default_rng(17)
        states, weights, buffer = [], [2.0, 1.0, 0.5, 3.0], []
        for participant, weight, start_version in zip(participants, weights, [3, 1, 3, 0]):
            state = {name: rng.normal(size=value.shape) for name, value in template.items()}
            states.append(state)
            update = ExpertUpdate(participant.participant_id, 0, 0, dict(state), weight)
            buffer.append({"participant": participant, "start_version": start_version,
                           "finish_time": 1.0, "result": ParticipantRoundResult(
                               updates=[update], breakdown=RoundCostBreakdown(training=1.0),
                               train_loss=0.0)})
        scheduler = make_scheduler(config)
        try:
            round_result = scheduler._aggregate(tuner, 3, buffer, 0, 1.0, 0.0)
        finally:
            tuner.close()
        return tuner.server.global_model.expert_state(0, 0), states, weights, round_result

    def test_the_discounted_weights_reach_the_fold(self, vocab, tiny_config):
        written, states, weights, round_result = self._aggregate_stale_and_fresh(
            vocab, tiny_config)
        self._assert_discounted_fedavg(written, states, weights, round_result)

    @pytest.mark.parametrize("knobs", [
        dict(num_shards=2),
        dict(num_shards=2, transport="wire", codec="fp64", aggregation_executor="service",
             aggregation_workers=2, service_transport="socketpair"),
    ], ids=["sharded", "wire-service"])
    def test_the_discounted_weights_reach_every_fold_plane(self, vocab, tiny_config, knobs):
        """The weights cross the wire and the fold service as the scheduler set them."""
        written, states, weights, round_result = self._aggregate_stale_and_fresh(
            vocab, tiny_config, **knobs)
        self._assert_discounted_fedavg(written, states, weights, round_result)

    @staticmethod
    def _assert_discounted_fedavg(written, states, weights, round_result):
        discounted = [weight * (1 + staleness) ** -0.5
                      for weight, staleness in zip(weights, [0, 2, 0, 3])]
        expected = fedavg_states(states, discounted)
        assert round_result.mean_staleness == 1.25
        for name, value in expected.items():
            assert written[name].tobytes() == value.tobytes(), name
        undiscounted = fedavg_states(states, weights)
        assert any(not np.array_equal(written[name], undiscounted[name])
                   for name in expected)

    def test_async_run_produces_aggregations(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler="async", buffer_size=2, participants_per_round=3)
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
                participants_per_round=3, straggler_prob=0.2, seed=4)
            result = ConstantMethod(server, participants, test, config=config).run(3)
            metrics.append([(r.metric_value, r.simulated_time, r.mean_staleness)
                            for r in result.rounds])
        assert metrics[0] == metrics[1]

    def test_async_records_dropouts(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler="async", buffer_size=2,
            participants_per_round=3, dropout_prob=0.4, seed=2)
        result = ConstantMethod(server, participants, test, config=config).run(3)
        for round_result in result.rounds:
            assert round_result.num_selected == \
                round_result.num_aggregated + round_result.num_dropped
        assert sum(r.num_dropped for r in result.rounds) > 0

    def test_async_staleness_is_bounded_by_version(self, vocab, tiny_config):
        server, participants, test, config = build_federation(
            vocab, tiny_config, scheduler="async", buffer_size=1, participants_per_round=4)
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

    def test_flux_semisync_and_async_run(self, vocab, tiny_config):
        for kwargs in ({"scheduler": "semisync", "deadline_quantile": 0.7},
                       {"scheduler": "async", "buffer_size": 2, "participants_per_round": 2}):
            result = self._flux_tuner(vocab, tiny_config, **kwargs).run(num_rounds=2)
            assert len(result.rounds) == 2
            assert all(0.0 <= r.metric_value <= 1.0 for r in result.rounds)
            assert result.total_time > 0

