"""Aggregation schedulers: when the server aggregates and on whose updates.

The scheduler owns the *control plane* of a federated run — participant
selection, simulated-time bookkeeping, fault handling and the aggregation
trigger — while the *work* of one participant round stays behind
:meth:`FederatedFineTuner.participant_round`.  Three policies are provided:

:class:`SyncScheduler`
    The paper's synchronous FedAvg loop: everyone selected trains, the round
    ends when the slowest participant finishes, the server aggregates.  With
    the default sampler and no fault injection this reproduces the legacy
    ``FederatedFineTuner`` loop bit-for-bit.

:class:`SemiSyncScheduler`
    Deadline-based aggregation: the round ends at a fixed deadline (or a
    quantile of this round's predicted durations); whoever finished by then is
    aggregated, stragglers are dropped.  Bounds round time under heterogeneity
    at the price of wasted straggler work.

:class:`AsyncScheduler`
    FedBuff-style buffered asynchrony: clients train continuously; each
    finished update enters a server buffer with the staleness it accumulated
    (server versions elapsed since the client downloaded the model) and is
    weight-discounted by ``(1 + staleness) ** -staleness_exponent``.  The
    server aggregates whenever the buffer holds ``buffer_size`` updates; every
    aggregation is reported as one "round".

All schedulers drive the shared :class:`~repro.runtime.events.EventQueue` and
draw randomness only from the fine-tuner's seeded run RNG plus the
per-(round, participant) fault RNGs, so identical configs replay identical
:class:`~repro.systems.timeline.RunTimeline`'s.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field as dataclasses_field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..comm import ChannelStats
from ..federated.client import Participant
from ..federated.orchestrator import (
    FederatedFineTuner,
    ParticipantRoundResult,
    RoundResult,
    RunResult,
)
from ..metrics import PerformanceTracker
from ..obs import NULL_TELEMETRY
from ..systems import RoundTimeline, RunTimeline
from .events import EventQueue
from .faults import FaultInjector, FaultOutcome, scale_breakdown
from .sampling import ClientSampler, UniformSampler, make_sampler


def run_participants(tuner: FederatedFineTuner, participants: Sequence[Participant],
                     round_index: int) -> Dict[int, ParticipantRoundResult]:
    """Run ``participant_round`` for every participant, in order; results keyed by id.

    Each result is framed (:meth:`FederatedFineTuner.frame_upload`) the moment
    its round returns.  Participants of one round are independent: each trains
    against the global model as of the round start and mutates only its own
    state.  Under telemetry every participant's round is one
    ``participant_round`` span carrying its simulated duration.
    """
    tracer = getattr(tuner, "telemetry", NULL_TELEMETRY).tracer
    results: Dict[int, ParticipantRoundResult] = {}
    for participant in participants:
        with tracer.span("participant_round", category="train",
                         participant=participant.participant_id) as span:
            result = tuner.participant_round(participant, round_index)
            span.set(sim_duration=result.breakdown.total(
                overlap_profiling=result.overlap_profiling))
        results[participant.participant_id] = tuner.frame_upload(result)
    return results


class Scheduler(abc.ABC):
    """Base class: the run loop shared by every aggregation policy."""

    name: str = "base"

    def __init__(
        self,
        sampler: Optional[ClientSampler] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        #: ``None`` delegates full-round selection to the fine-tuner's
        #: (overridable) ``select_participants`` — the uniform legacy policy.
        self.sampler = sampler
        self.faults = faults or FaultInjector()

    # ------------------------------------------------------------------- loop
    def run(self, tuner: FederatedFineTuner, num_rounds: int,
            stop_at_target: bool = False,
            target_metric: Optional[float] = None,
            checkpointer=None, resume: Optional[Dict] = None) -> RunResult:
        """Run ``num_rounds`` aggregation rounds of ``tuner`` under this policy.

        ``checkpointer`` (a :class:`~repro.runtime.checkpoint.RunCheckpointer`)
        snapshots the full run state every K completed rounds; ``resume`` is
        the bundle :func:`~repro.runtime.checkpoint.restore_run_state`
        produced, pre-seeding the tracker/timeline/rounds so the loop
        continues exactly where the interrupted run stopped.  ``num_rounds``
        is always the *total* round count.
        """
        if num_rounds < 1:
            raise ValueError("num_rounds must be positive")
        goal = target_metric if target_metric is not None else tuner.target_metric()
        if resume is not None:
            tracker: PerformanceTracker = resume["tracker"]
            run_timeline: RunTimeline = resume["run_timeline"]
            rounds: List[RoundResult] = list(resume["rounds"])
            start_round = int(resume["next_round"])
        else:
            tracker = PerformanceTracker(target=goal)
            run_timeline = RunTimeline()
            rounds = []
            start_round = 0
        telemetry = getattr(tuner, "telemetry", NULL_TELEMETRY)
        tracer = telemetry.tracer
        wire_codec = (tuner.wire_codec_name()
                      if getattr(tuner.config, "transport", "analytic") == "wire"
                      else None)
        try:
            if start_round < num_rounds:
                # start_round is only passed when actually resuming, so custom
                # Scheduler subclasses written against the historical
                # two-argument round_results signature keep working for every
                # non-durable run (checkpoint/resume requires the
                # start_round-aware signature).
                if start_round:
                    results_iter = self.round_results(tuner, num_rounds,
                                                      start_round=start_round)
                else:
                    results_iter = self.round_results(tuner, num_rounds)
                with tracer.span("run", category="run", scheduler=self.name,
                                 method=tuner.name, start_round=start_round,
                                 num_rounds=num_rounds):
                    for round_result in results_iter:
                        rounds.append(round_result)
                        run_timeline.add(round_result.timeline)
                        tracker.record(
                            round_index=round_result.round_index,
                            simulated_time=round_result.simulated_time,
                            metric_value=round_result.metric_value,
                            train_loss=round_result.train_loss,
                            comm_bytes=round_result.wire_bytes,
                            wire_seconds=round_result.wire_seconds,
                            payloads_lost=round_result.payloads_lost,
                            payloads_corrupted=round_result.payloads_corrupted,
                            edge_bytes=round_result.edge_bytes,
                        )
                        telemetry.end_round(round_result, codec=wire_codec)
                        if checkpointer is not None and checkpointer.due(len(rounds)):
                            # In background mode save() only captures; the
                            # write lands off the round loop and its record
                            # (mode/duration) is drained on a later round or
                            # at finish() below.
                            with tracer.span("checkpoint", category="checkpoint",
                                             round=round_result.round_index,
                                             rounds_completed=len(rounds)):
                                checkpointer.save(tuner, self, tracker,
                                                  run_timeline, rounds)
                            for record in checkpointer.drain_records():
                                telemetry.record_checkpoint(
                                    record.path, record.duration_s,
                                    mode=record.mode, write=record.write)
                        if stop_at_target and round_result.metric_value >= goal:
                            break
        finally:
            if checkpointer is not None:
                checkpointer.finish()
                for record in checkpointer.drain_records():
                    telemetry.record_checkpoint(
                        record.path, record.duration_s,
                        mode=record.mode, write=record.write)
        return RunResult(method=tuner.name, tracker=tracker, timeline=run_timeline,
                         rounds=rounds)

    @abc.abstractmethod
    def round_results(self, tuner: FederatedFineTuner, num_rounds: int,
                      start_round: int = 0) -> Iterator[RoundResult]:
        """Yield one :class:`RoundResult` per aggregation round.

        ``start_round`` resumes the loop mid-run: rounds ``[start_round,
        num_rounds)`` are produced, with any cross-round scheduler state
        expected to have been restored via :meth:`restore_state` first.
        """

    # ------------------------------------------------------------- durability
    def export_state(self) -> Dict:
        """Picklable cross-round scheduler state (empty for stateless policies).

        The synchronous and semi-synchronous schedulers carry no state
        between rounds (faults are keyed by ``(round, participant)``, sampling
        draws from the tuner's run RNG), so resuming them only needs
        ``start_round``.  The asynchronous scheduler overrides this to
        capture its in-flight event queue and buffer.
        """
        return {}

    def restore_state(self, state: Dict, tuner: FederatedFineTuner) -> None:
        """Restore an :meth:`export_state` snapshot (no-op for stateless policies)."""

    # ---------------------------------------------------------------- helpers
    def select(self, tuner: FederatedFineTuner, round_index: int) -> List[Participant]:
        if self.sampler is None:
            return tuner.select_participants(round_index)
        return self.sampler.sample(tuner.participants, tuner.config.participants_per_round,
                                   round_index, tuner._rng)

    def _sample(self, tuner: FederatedFineTuner, participants: Sequence[Participant],
                num: Optional[int], round_index: int) -> List[Participant]:
        sampler = self.sampler or UniformSampler()
        return sampler.sample(participants, num, round_index, tuner._rng)

    def _execute_round_work(self, tuner: FederatedFineTuner, round_index: int
                            ) -> Tuple[List[Participant], int,
                                       List[Tuple[Participant, ParticipantRoundResult,
                                                  float, FaultOutcome]]]:
        """Sample clients, run hooks and local work, apply fault outcomes.

        Clients the injector drops are filtered *before* they train: their
        work would be discarded anyway and never gates the round, so skipping
        it is observationally identical and avoids wasted compute.  Returns
        ``(selected, num_dropped, entries)`` where each entry is
        ``(participant, result, duration, fault)`` with straggler-scaled
        breakdowns.
        """
        tracer = getattr(tuner, "telemetry", NULL_TELEMETRY).tracer
        with tracer.span("select", category="select", round=round_index) as span:
            selected = self.select(tuner, round_index)
            tuner.before_round(round_index, selected)
            outcomes = {p.participant_id: self.faults.outcome(round_index, p.participant_id)
                        for p in selected}
            survivors = [p for p in selected if not outcomes[p.participant_id].dropped]
            span.set(selected=len(selected), survivors=len(survivors))
        raw_results = run_participants(tuner, survivors, round_index)
        entries = []
        for participant in survivors:
            result = raw_results[participant.participant_id]
            fault = outcomes[participant.participant_id]
            if fault.is_straggler:
                result = replace(result,
                                 breakdown=scale_breakdown(result.breakdown, fault.slowdown))
            entries.append((participant, result, self._result_duration(result), fault))
        return selected, len(selected) - len(survivors), entries

    def _aggregate_round(self, tuner: FederatedFineTuner, round_index: int,
                         timeline: RoundTimeline,
                         contributors: Sequence[Tuple[Participant, ParticipantRoundResult]]
                         ) -> Tuple[Dict[int, ParticipantRoundResult], List[float],
                                    ChannelStats, ChannelStats, List[ChannelStats]]:
        """Aggregate the contributors into the global model and fill ``timeline``.

        Updates flow through :meth:`FederatedFineTuner.transmit_updates` — a
        pass-through under the analytic transport, metered/faultable byte
        payloads under ``transport="wire"``, where a contributor's
        ``result.updates`` already hold the frames :func:`run_participants` made
        when it finished (:meth:`FederatedFineTuner.frame_upload`; the async
        scheduler's are still dense and are framed here, at delivery) — and
        reach the aggregation topology as a generator; the fold dispatch
        buckets them into its jobs by reference (under the wire transport
        byte-holding updates, decoded by the fold that consumes them).
        The returned per-participant results are the round's only holder of
        its uploads: callers drop them before the next round starts.
        :meth:`FederatedFineTuner.aggregate_round_updates` routes the stream
        either straight into the (possibly sharded) server or through the
        aggregation tree; the second returned :class:`~repro.comm.ChannelStats`
        totals the inter-tier backhaul and the final list breaks it down per
        aggregator tier (empty on a flat run).
        """
        results: Dict[int, ParticipantRoundResult] = {}
        losses: List[float] = []
        stats = ChannelStats()

        def delivered_updates():
            for participant, result in contributors:
                results[participant.participant_id] = result
                timeline.record_participant(participant.participant_id, result.breakdown,
                                            overlap_profiling=result.overlap_profiling)
                losses.append(result.train_loss)
                updates, transfer_stats = tuner.transmit_updates(participant, result.updates)
                stats.merge(transfer_stats)
                yield from updates

        contributions, edge_stats = tuner.aggregate_round_updates(delivered_updates())
        topology = getattr(tuner, "topology", None)
        tier_stats = list(getattr(topology, "last_tier_stats", []))
        num_updates = sum(contributions.values())
        timeline.server_time = tuner._server_aggregation_time(num_updates)
        tuner.after_aggregation(round_index, results)
        return results, losses, stats, edge_stats, tier_stats

    @staticmethod
    def _round_result(tuner: FederatedFineTuner, timeline: RoundTimeline,
                      losses: List[float], simulated_time: float, duration: float,
                      wire: ChannelStats, edge: ChannelStats,
                      tiers: List[ChannelStats], **bookkeeping) -> RoundResult:
        """The :class:`RoundResult` of an aggregated round (evaluates the global model).

        ``bookkeeping`` is the scheduler's own counts (``num_selected``,
        ``num_stragglers``, ``mean_staleness``, ...); everything else is what
        :meth:`_aggregate_round` measured.
        """
        return RoundResult(
            round_index=timeline.round_index,
            train_loss=float(np.mean(losses)) if losses else 0.0,
            metric_value=tuner.evaluate(),
            simulated_time=simulated_time,
            round_duration=duration,
            timeline=timeline,
            wire_bytes=wire.total_bytes,
            wire_seconds=wire.seconds,
            payloads_lost=wire.lost,
            payloads_corrupted=wire.corrupted,
            edge_bytes=edge.total_bytes,
            edge_seconds=edge.seconds,
            edge_payloads=edge.payloads,
            tier_bytes=[s.total_bytes for s in tiers],
            tier_seconds=[s.seconds for s in tiers],
            tier_payloads=[s.payloads for s in tiers],
            **bookkeeping,
        )

    @staticmethod
    def _result_duration(result: ParticipantRoundResult) -> float:
        return result.breakdown.total(overlap_profiling=result.overlap_profiling)


class SyncScheduler(Scheduler):
    """The synchronous FedAvg round loop (legacy behaviour)."""

    name = "sync"

    def round_results(self, tuner: FederatedFineTuner, num_rounds: int,
                      start_round: int = 0) -> Iterator[RoundResult]:
        for round_index in range(start_round, num_rounds):
            # Indexed, not unpacked: a name bound to the per-participant
            # results would keep the round's updates alive, across the yield,
            # until the next round had finished.
            yield self.run_round(tuner, round_index)[0]

    def run_round(self, tuner: FederatedFineTuner, round_index: int
                  ) -> Tuple[RoundResult, Dict[int, ParticipantRoundResult]]:
        """Execute one synchronous federated round."""
        tracer = getattr(tuner, "telemetry", NULL_TELEMETRY).tracer
        with tracer.span("round", category="round", round=round_index) as span:
            selected, num_dropped, entries = self._execute_round_work(tuner, round_index)
            timeline = RoundTimeline(round_index=round_index)
            results, losses, wire, edge, tiers = self._aggregate_round(
                tuner, round_index, timeline,
                [(participant, result) for participant, result, _, _ in entries])

            duration = timeline.round_duration()
            simulated_time = tuner.clock.advance(duration)
            span.set(sim_time=simulated_time, sim_duration=duration,
                     aggregated=len(results))
        round_result = self._round_result(
            tuner, timeline, losses, simulated_time, duration, wire, edge, tiers,
            num_selected=len(selected), num_aggregated=len(results),
            num_dropped=num_dropped,
            num_stragglers=sum(1 for _, _, _, fault in entries if fault.is_straggler))
        return round_result, results


class SemiSyncScheduler(Scheduler):
    """Deadline-based aggregation: take whoever finished, drop stragglers."""

    name = "semisync"

    def __init__(self, *args, deadline_seconds: Optional[float] = None,
                 deadline_quantile: float = 0.8, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        if not 0.0 < deadline_quantile <= 1.0:
            raise ValueError("deadline_quantile must be in (0, 1]")
        self.deadline_seconds = deadline_seconds
        self.deadline_quantile = deadline_quantile

    def round_results(self, tuner: FederatedFineTuner, num_rounds: int,
                      start_round: int = 0) -> Iterator[RoundResult]:
        for round_index in range(start_round, num_rounds):
            yield self._run_round(tuner, round_index)

    def _round_deadline(self, durations: Sequence[float]) -> float:
        if self.deadline_seconds is not None:
            deadline = self.deadline_seconds
        else:
            deadline = float(np.quantile(np.asarray(durations), self.deadline_quantile))
        # Never aggregate an empty round while someone is still working.
        return max(deadline, min(durations))

    def _run_round(self, tuner: FederatedFineTuner, round_index: int) -> RoundResult:
        tracer = getattr(tuner, "telemetry", NULL_TELEMETRY).tracer
        with tracer.span("round", category="round", round=round_index) as span:
            selected, num_dropped, entries = self._execute_round_work(tuner, round_index)

            queue = EventQueue()
            durations: List[float] = []
            for participant, result, duration, _ in entries:
                durations.append(duration)
                queue.push(duration, "finish", participant=participant, result=result)

            deadline = self._round_deadline(durations) if durations else 0.0
            arrivals = [(event.payload["participant"], event.payload["result"])
                        for event in queue.pop_until(deadline)]
            num_stragglers = len(queue)

            timeline = RoundTimeline(round_index=round_index)
            results, losses, wire, edge, tiers = self._aggregate_round(
                tuner, round_index, timeline, arrivals)

            duration = deadline + timeline.server_time
            timeline.duration_override = duration
            simulated_time = tuner.clock.advance(duration)
            span.set(sim_time=simulated_time, sim_duration=duration,
                     deadline=deadline, aggregated=len(results))
        return self._round_result(
            tuner, timeline, losses, simulated_time, duration, wire, edge, tiers,
            num_selected=len(selected), num_aggregated=len(results),
            num_dropped=num_dropped, num_stragglers=num_stragglers)


@dataclass
class _AsyncLoopState:
    """Cross-round state of one asynchronous run (checkpointable).

    Everything the FedBuff loop used to keep in generator locals lives here
    so :meth:`AsyncScheduler.export_state` can snapshot it between rounds and
    :meth:`AsyncScheduler.restore_state` can put a resumed run back exactly
    where the interrupted one stopped — in-flight trained-but-unaggregated
    results included.
    """

    version: int = 0
    task_counter: int = 0
    active: set = dataclasses_field(default_factory=set)
    buffer: List[dict] = dataclasses_field(default_factory=list)
    dropped_since_aggregation: int = 0
    last_aggregation_time: float = 0.0
    events_this_round: int = 0
    queue: EventQueue = dataclasses_field(default_factory=EventQueue)
    #: simulated time of the last processed finish event; with
    #: ``pending_refill`` it lets a resumed run replay the post-aggregation
    #: slot refill the interrupted run had not performed yet
    last_event_time: float = 0.0
    pending_refill: bool = False


class AsyncScheduler(Scheduler):
    """FedBuff-style buffered asynchronous aggregation.

    Clients train continuously (at most ``concurrency`` at a time): a client
    downloads the current global model, trains, and its update lands in the
    server buffer when it finishes; a new client is started in its place
    immediately.  Once the buffer holds ``buffer_size`` updates the server
    aggregates them with staleness-discounted weights and bumps the model
    version.  Local training is executed serially because each client must
    observe the global model exactly as of its simulated start time.
    """

    name = "async"

    #: hard cap on processed finish-events per aggregation round (guards
    #: against configs where dropout starves the buffer forever)
    MAX_EVENTS_PER_ROUND = 10_000

    def __init__(self, *args, buffer_size: int = 4, staleness_exponent: float = 0.5,
                 concurrency: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if buffer_size < 1:
            raise ValueError("buffer_size must be positive")
        if staleness_exponent < 0:
            raise ValueError("staleness_exponent must be non-negative")
        if concurrency is not None and concurrency < 1:
            raise ValueError("concurrency must be positive")
        self.buffer_size = buffer_size
        self.staleness_exponent = staleness_exponent
        self.concurrency = concurrency
        #: in-flight loop state — populated while :meth:`round_results` runs so
        #: a checkpoint taken between rounds can capture and later restore it
        self._st: Optional[_AsyncLoopState] = None

    def staleness_discount(self, staleness: int) -> float:
        """FedBuff's polynomial staleness discount for an update's weight.

        The only place a staleness reaches a weight: the fold plane folds the
        discounted weights it is handed and knows nothing of staleness.
        """
        return float((1.0 + max(staleness, 0)) ** -self.staleness_exponent)

    # ------------------------------------------------------------- durability
    def export_state(self) -> Dict:
        """The in-flight queue, buffer and counters, with picklable handles.

        Participants are referenced by id (re-bound on restore); the pending
        :class:`~repro.federated.orchestrator.ParticipantRoundResult` objects
        travel whole — they hold the already-trained updates whose work must
        not be redone (and could not be replayed bit-identically, since the
        interrupted run consumed RNG draws producing them).
        """
        st = self._st
        if st is None:
            return {}
        return {
            "version": st.version,
            "task_counter": st.task_counter,
            "active": sorted(st.active),
            "events_this_round": st.events_this_round,
            "dropped_since_aggregation": st.dropped_since_aggregation,
            "last_aggregation_time": st.last_aggregation_time,
            "last_event_time": st.last_event_time,
            "pending_refill": st.pending_refill,
            "buffer": [
                {
                    "participant_id": entry["participant"].participant_id,
                    "result": entry["result"],
                    "start_version": entry["start_version"],
                    "finish_time": entry["finish_time"],
                }
                for entry in st.buffer
            ],
            "pending": [
                {
                    "time": event.time,
                    "participant_id": event.payload["participant"].participant_id,
                    "result": event.payload["result"],
                    "start_version": event.payload["start_version"],
                    "dropped": event.payload["dropped"],
                }
                for event in st.queue.snapshot()
            ],
        }

    def restore_state(self, state: Dict, tuner: FederatedFineTuner) -> None:
        if not state:
            return
        st = _AsyncLoopState()
        st.version = int(state["version"])
        st.task_counter = int(state["task_counter"])
        st.active = set(state["active"])
        st.events_this_round = int(state["events_this_round"])
        st.dropped_since_aggregation = int(state["dropped_since_aggregation"])
        st.last_aggregation_time = float(state["last_aggregation_time"])
        st.last_event_time = float(state["last_event_time"])
        st.pending_refill = bool(state["pending_refill"])
        st.buffer = [
            {
                "participant": tuner.participant_by_id(entry["participant_id"]),
                "result": entry["result"],
                "start_version": entry["start_version"],
                "finish_time": entry["finish_time"],
            }
            for entry in state["buffer"]
        ]
        # Events re-push in firing order, so the rebuilt heap pops (time, seq)
        # ties exactly as the interrupted run would have.
        for pending in state["pending"]:
            st.queue.push(pending["time"], "finish",
                          participant=tuner.participant_by_id(pending["participant_id"]),
                          result=pending["result"],
                          start_version=pending["start_version"],
                          dropped=pending["dropped"])
        self._st = st

    # ------------------------------------------------------------------- loop
    def round_results(self, tuner: FederatedFineTuner, num_rounds: int,
                      start_round: int = 0) -> Iterator[RoundResult]:
        config = tuner.config
        concurrency = self.concurrency or config.participants_per_round or len(tuner.participants)
        concurrency = min(concurrency, len(tuner.participants))
        if start_round > 0:
            if self._st is None or self._st.version != start_round:
                raise ValueError(
                    "resuming the async scheduler mid-run requires its restored "
                    "loop state (see runtime.checkpoint.restore_run_state)")
            st = self._st
        else:
            st = self._st = _AsyncLoopState()

        tracer = getattr(tuner, "telemetry", NULL_TELEMETRY).tracer

        def start_client(now: float) -> bool:
            idle = [p for p in tuner.participants if p.participant_id not in st.active]
            picked = self._sample(tuner, idle, 1, st.version) if idle else []
            if not picked:
                # Nobody idle (or the availability trace left nobody online).
                return False
            participant = picked[0]
            st.active.add(participant.participant_id)
            tuner.before_round(st.version, [participant])
            with tracer.span("participant_round", category="train",
                             round=st.version,
                             participant=participant.participant_id) as span:
                result = tuner.participant_round(participant, st.version)
                fault = self.faults.outcome(st.task_counter, participant.participant_id)
                st.task_counter += 1
                if fault.is_straggler:
                    result = replace(result,
                                     breakdown=scale_breakdown(result.breakdown,
                                                               fault.slowdown))
                duration = self._result_duration(result)
                span.set(sim_duration=duration)
            st.queue.push(now + duration, "finish", participant=participant, result=result,
                          start_version=st.version, dropped=fault.dropped)
            return True

        def refill_slots(now: float) -> None:
            """Start clients until every concurrency slot is busy (or nobody
            can start) — slots lost to an empty sample earlier are recovered."""
            while len(st.active) < concurrency:
                if not start_client(now):
                    break

        if start_round == 0:
            # If nobody can start at all (e.g. an availability trace with no
            # one online at version 0), the queue stays empty and the run ends
            # early with the rounds produced so far.
            refill_slots(0.0)
        elif st.pending_refill:
            # The interrupted run was checkpointed at a yield point, *before*
            # its post-aggregation refill ran.  Replaying the refill here —
            # with the restored RNG and the restored event time — reproduces
            # exactly the client starts the uninterrupted run performed when
            # its caller pulled the next round.
            st.pending_refill = False
            refill_slots(st.last_event_time)

        while st.version < num_rounds and st.queue:
            event = st.queue.pop()
            now = event.time
            st.last_event_time = now
            participant = event.payload["participant"]
            st.active.discard(participant.participant_id)
            st.events_this_round += 1
            if st.events_this_round > self.MAX_EVENTS_PER_ROUND:
                raise RuntimeError(
                    "async federation starved: no aggregation within "
                    f"{self.MAX_EVENTS_PER_ROUND} client finishes (check dropout_prob)")
            if event.payload["dropped"]:
                st.dropped_since_aggregation += 1
            else:
                st.buffer.append({
                    "participant": participant,
                    "result": event.payload["result"],
                    "start_version": event.payload["start_version"],
                    "finish_time": now,
                })
            if len(st.buffer) >= self.buffer_size:
                round_result = self._aggregate(tuner, st.version, st.buffer,
                                               st.dropped_since_aggregation, now,
                                               st.last_aggregation_time)
                st.last_aggregation_time = now + round_result.timeline.server_time
                st.buffer = []
                st.dropped_since_aggregation = 0
                st.version += 1
                st.events_this_round = 0
                # The post-aggregation refill runs only if the caller keeps
                # consuming rounds: a run that stops here (num_rounds reached,
                # stop_at_target) never trains clients it would then discard.
                # A checkpoint taken at this yield records the refill as
                # pending and replays it on resume (see above).
                st.pending_refill = True
                yield round_result
                st.pending_refill = False
                # Freed (and any previously unfillable) slots restart on the
                # post-aggregation model.
                refill_slots(now)
            else:
                refill_slots(now)

    def _aggregate(self, tuner: FederatedFineTuner, version: int, buffer: List[dict],
                   num_dropped: int, now: float,
                   last_aggregation_time: float) -> RoundResult:
        tracer = getattr(tuner, "telemetry", NULL_TELEMETRY).tracer
        with tracer.span("round", category="round", round=version,
                         buffered=len(buffer)) as span:
            contributors: List[Tuple[Participant, ParticipantRoundResult]] = []
            stalenesses: List[int] = []
            for entry in buffer:
                staleness = version - entry["start_version"]
                stalenesses.append(staleness)
                discount = self.staleness_discount(staleness)
                result = entry["result"]
                discounted = replace(result, updates=[
                    replace(update, weight=update.weight * discount)
                    for update in result.updates])
                contributors.append((entry["participant"], discounted))

            timeline = RoundTimeline(round_index=version)
            _, losses, wire, edge, tiers = self._aggregate_round(
                tuner, version, timeline, contributors)

            duration = max(now + timeline.server_time - last_aggregation_time, 0.0)
            timeline.duration_override = duration
            simulated_time = tuner.clock.advance(duration)
            span.set(sim_time=simulated_time, sim_duration=duration)
        return self._round_result(
            tuner, timeline, losses, simulated_time, duration, wire, edge, tiers,
            num_selected=len(buffer) + num_dropped, num_aggregated=len(buffer),
            num_dropped=num_dropped,
            mean_staleness=float(np.mean(stalenesses)) if stalenesses else 0.0)


SCHEDULERS = ("sync", "semisync", "async")


def make_scheduler(config) -> Scheduler:
    """Build the scheduler stack a :class:`~repro.federated.RunConfig` selects."""
    name = getattr(config, "scheduler", "sync")
    # The default uniform policy stays with the fine-tuner's (overridable)
    # ``select_participants``; an explicit sampler choice takes precedence.
    sampler = None if getattr(config, "sampler", "uniform") == "uniform" \
        else make_sampler(config)
    faults = FaultInjector.from_config(config)
    if name == "sync":
        return SyncScheduler(sampler, faults)
    if name == "semisync":
        return SemiSyncScheduler(
            sampler, faults,
            deadline_seconds=getattr(config, "deadline_seconds", None),
            deadline_quantile=getattr(config, "deadline_quantile", 0.8),
        )
    if name == "async":
        return AsyncScheduler(
            sampler, faults,
            buffer_size=getattr(config, "buffer_size", 4),
            staleness_exponent=getattr(config, "staleness_exponent", 0.5),
            concurrency=getattr(config, "async_concurrency", None),
        )
    raise ValueError(f"unknown scheduler {name!r} (expected one of {SCHEDULERS})")
