"""Local-training executors: serial loop or process pool.

Within one round (or one asynchronous wave) participants are independent: each
trains against the global model as of the round start and mutates only its own
state.  :class:`ProcessPoolParticipantExecutor` exploits that to run
``FederatedFineTuner.participant_round`` for many clients in parallel worker
processes, which is what makes 100+-client rounds tractable on multi-core
hosts.  :class:`SerialExecutor` is the always-available fallback and the
default.

Parallel execution must be *observationally identical* to serial execution:
workers receive a pickled snapshot of the fine-tuner, run one participant's
round, and ship back both the round result and the participant's mutated
per-client state (batch-shuffling seed, Flux profiling cache and utilities),
which the parent re-imports via
:meth:`~repro.federated.orchestrator.FederatedFineTuner.import_participant_state`.
Because no participant reads another participant's state, replaying the
exports yields exactly the serial outcome.
"""

from __future__ import annotations

import abc
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm import (
    decode_update,
    encode_state_dict,
    encode_update,
    encode_updates,
    get_codec,
)
from ..federated.client import Participant
from ..obs import NULL_TELEMETRY, span_record

#: codec used to frame updates crossing the process boundary — lossless for
#: every float dtype, so parallel execution stays bit-identical to serial
_IPC_CODEC = "fp64"


def _frame_result(result) -> Tuple[object, List[bytes]]:
    """Split one round result into (update-less result, framed update payloads).

    The worker→parent hop is the wire serializer's first real consumer: expert
    updates travel as framed byte payloads rather than pickled numpy state
    dicts, exactly the representation a remote deployment would ship.
    """
    frames = encode_updates(result.updates, get_codec(_IPC_CODEC))
    return replace(result, updates=[]), frames


def _unframe_result(result, frames: Sequence[bytes]):
    return replace(result, updates=[decode_update(frame) for frame in frames])


def _run_participant_chunk(payload: bytes, participant_ids: Sequence[int],
                           round_index: int
                           ) -> List[Tuple[int, object, List[bytes], dict, Optional[dict]]]:
    """Worker-side: run a chunk of participants' rounds on one tuner snapshot.

    Chunking means the (potentially large) tuner payload crosses the process
    boundary once per worker rather than once per participant.  Participants
    within a chunk run sequentially against the same snapshot, which is
    exactly what the serial executor does — they are independent.

    With telemetry on (the pickled tuner carries the flag) each entry also
    ships a :func:`~repro.obs.span_record` of the participant's training,
    measured with the worker's own clocks; the parent adopts it into the live
    trace.  Telemetry off ships ``None``.
    """
    tuner = pickle.loads(payload)
    timed = getattr(tuner, "telemetry", NULL_TELEMETRY).enabled
    out = []
    for participant_id in participant_ids:
        participant = tuner.participant_by_id(participant_id)
        wall_start = time.time()
        perf_start = time.perf_counter()
        result = tuner.participant_round(participant, round_index)
        record = None
        if timed:
            record = span_record(
                "participant_round", "train", wall_start,
                time.perf_counter() - perf_start,
                sim_duration=result.breakdown.total(
                    overlap_profiling=result.overlap_profiling),
                participant=participant_id, worker_pid=os.getpid())
        stripped, frames = _frame_result(result)
        out.append((participant_id, stripped, frames,
                    tuner.export_participant_state(participant_id), record))
    return out


# ----------------------------------------------------------- aggregation fold
def frame_update(update, codec=None, references: Optional[Dict] = None
                 ) -> Tuple[bytes, int]:
    """One update as the ``(wire frame, staleness)`` pair fold jobs consume.

    Staleness rides alongside the frame because it is in-memory metadata that
    deliberately does not travel in wire frames (the schedulers discount
    weights before transmission); fold workers still need it so the
    ``staleness_fedavg`` strategy discounts exactly as a serial fold would.
    Every producer of pooled fold payloads must pair through here so the
    convention has exactly one home; :func:`_decode_framed_updates` is the
    worker-side inverse.

    An update that arrived over the wire transport carries its original frame
    (``update.wire_frame``); with no explicit ``codec`` requested that frame
    is forwarded *verbatim* instead of re-encoding the decoded state as fp64
    — bit-identical by construction (the state is the deterministic decode of
    exactly these bytes), and free of the old double-encode.  Self-contained
    codecs forward unconditionally; ``needs_reference`` codecs (top-k/sparse
    deltas) forward only when the caller passes a ``references`` dict to
    collect each key's fp64-framed reference state for the remote decoder
    (``references[key]`` is recorded once per key), and fall back to the
    lossless fp64 re-encode otherwise.
    """
    if codec is None:
        frame = getattr(update, "wire_frame", None)
        if frame is not None:
            wire_codec = get_codec(update.wire_codec)
            if not wire_codec.needs_reference:
                return frame, getattr(update, "staleness", 0)
            if references is not None and update.wire_reference is not None:
                if update.key not in references:
                    references[update.key] = encode_state_dict(
                        update.wire_reference, get_codec(_IPC_CODEC))
                return frame, getattr(update, "staleness", 0)
        codec = get_codec(_IPC_CODEC)
    return encode_update(update, codec), getattr(update, "staleness", 0)


def _reference_lookup_from(references: Optional[Dict]):
    """Worker-side decoder for a :func:`frame_update` ``references`` dict.

    Returns a ``reference_lookup(layer, expert)`` that lazily decodes the
    fp64 state-dict reference frames (cached per key), or ``None`` when no
    references travelled with the job — self-contained frames never look one
    up, so the lazy decode costs nothing unless a delta frame needs it.
    """
    if not references:
        return None
    from ..comm import decode_state_dict

    cache: Dict[Tuple[int, int], Dict] = {}

    def lookup(layer: int, expert: int):
        key = (layer, expert)
        state = cache.get(key)
        if state is None:
            frame = references.get(key)
            if frame is None:
                return None
            state = decode_state_dict(frame)
            cache[key] = state
        return state

    return lookup


def _decode_framed_updates(framed: Sequence[Tuple[bytes, int]],
                           reference_lookup=None) -> List:
    """Rebuild updates from :func:`frame_update` pairs in arrival order."""
    updates = []
    for frame, staleness in framed:
        update = decode_update(frame, reference_lookup=reference_lookup)
        update.staleness = int(staleness)
        updates.append(update)
    return updates


def _fold_legacy_frames(framed: Sequence[Tuple[bytes, int]],
                        reference_lookup, scratch
                        ) -> List[Tuple[Tuple[int, int], bytes, int]]:
    """The ``None``-strategy buffered FedAvg, restructured as a scratch fold.

    Bit-identical to the historical group-then-``fedavg_states`` fold: each
    frame decodes (into scratch) and folds immediately, in arrival order,
    with the identical multiply/add sequence — zero-weight contributions
    included, whose ``-0.0 + 0.0`` signs depend on fold order.  The only
    buffered state is the all-zero-weight fallback: while a key's running
    weight is zero, exact copies of its decoded states are kept so a key
    whose weights *stay* zero can degrade to the legacy uniform mean; the
    copies are dropped the moment a positive weight arrives.
    """
    from ..comm import finalize_weighted_sum, fold_weighted_state
    from ..federated.aggregation import fedavg_states

    codec = get_codec(_IPC_CODEC)
    accs: Dict[Tuple[int, int], Dict] = {}
    totals: Dict[Tuple[int, int], float] = {}
    counts: Dict[Tuple[int, int], int] = {}
    pending: Dict[Tuple[int, int], List[Dict]] = {}
    for frame, _ in framed:
        update = decode_update(frame, reference_lookup=reference_lookup,
                               scratch=scratch)
        key = update.key
        acc = accs.get(key)
        if acc is None:
            acc = accs[key] = {}
        fold_weighted_state(acc, update.state, update.weight, scratch=scratch)
        totals[key] = totals.get(key, 0.0) + float(update.weight)
        counts[key] = counts.get(key, 0) + 1
        if totals[key] <= 0:
            pending.setdefault(key, []).append(
                {name: np.array(value, dtype=np.float64)
                 for name, value in update.state.items()})
        else:
            pending.pop(key, None)
        scratch.recycle()
    out = []
    for key, acc in accs.items():
        if totals[key] > 0:
            state = finalize_weighted_sum(acc, totals[key])
        else:
            # the legacy uniform-mean fallback, replayed over the exact copies
            state = fedavg_states(pending[key], [0.0] * counts[key],
                                  scratch=scratch)
        out.append((key, encode_state_dict(state, codec), counts[key]))
    return out


def _fold_shard_frames(strategy, streaming: bool,
                       framed: Sequence[Tuple[bytes, int]],
                       references: Optional[Dict] = None,
                       scratch=None
                       ) -> List[Tuple[Tuple[int, int], bytes, int]]:
    """Worker-side: fold one shard's framed updates to per-key aggregates.

    Mirrors the serial server paths exactly: the ``None``-strategy buffered
    fold is the legacy per-key FedAvg (all-zero-weight uniform fallback
    included), anything else goes through the strategy's streaming
    accumulators (whose finalize raises on unfinalizable keys, as serial
    ``StreamingAggregator.apply`` does).  Returns ``(key, framed aggregated
    state, contribution count)`` triples; the state travels back as a
    lossless fp64 state-dict frame, so pooled == serial bit-for-bit.

    Frames decode into ``scratch`` (default: the calling thread's ambient
    pool, which in a process-pool worker or a service server persists across
    every round it folds) and are folded frame-by-frame, so the per-update
    cost is one decode-into-scratch plus one fused fold — no per-update
    allocations and no buffered update list.
    """
    from ..comm import StreamingAggregator
    from ..comm.scratch import thread_scratch

    if scratch is None:
        scratch = thread_scratch()
    lookup = _reference_lookup_from(references)
    if strategy is None and not streaming:
        return _fold_legacy_frames(framed, lookup, scratch)
    codec = get_codec(_IPC_CODEC)
    aggregator = StreamingAggregator(strategy, scratch=scratch)
    fold_payload = aggregator.fold_payload
    for frame, staleness in framed:
        fold_payload(frame, reference_lookup=lookup, staleness=int(staleness))
    counts = aggregator.contributions()
    return [(key, encode_state_dict(state, codec), counts[key])
            for key, state in aggregator.finalize().items()]


def _prefold_node_frames(strategy, pseudo_id: int,
                         framed: Sequence[Tuple[bytes, int]],
                         references: Optional[Dict] = None,
                         scratch=None) -> List[bytes]:
    """Worker-side: pre-fold one aggregation-tree node's framed updates.

    The node's partials come back as framed updates carrying the group's
    accumulated weight and the node's pseudo participant id — byte-for-byte
    what the serial tier fold would have encoded for the upward hop.
    Decode-and-fold runs through ``scratch`` exactly as
    :func:`_fold_shard_frames` does.
    """
    from ..comm import StreamingAggregator
    from ..comm.scratch import thread_scratch

    if scratch is None:
        scratch = thread_scratch()
    lookup = _reference_lookup_from(references)
    aggregator = StreamingAggregator(strategy, scratch=scratch)
    fold_payload = aggregator.fold_payload
    for frame, staleness in framed:
        fold_payload(frame, reference_lookup=lookup, staleness=int(staleness))
    return encode_updates(aggregator.partials(pseudo_id), get_codec(_IPC_CODEC))


def _tier_of_pseudo_id(pseudo_id: int) -> int:
    """The aggregation-tree tier a prefold job's pseudo participant id names."""
    from ..federated.topology import tier_of_pseudo_id

    return tier_of_pseudo_id(pseudo_id)


def _timed_fold_shard(strategy, streaming: bool, framed, shard: int,
                      references: Optional[Dict] = None):
    """Worker-side: :func:`_fold_shard_frames` plus a fold span record."""
    wall_start = time.time()
    perf_start = time.perf_counter()
    result = _fold_shard_frames(strategy, streaming, framed, references)
    record = span_record("fold_shard", "fold", wall_start,
                         time.perf_counter() - perf_start,
                         shard=shard, num_updates=len(framed),
                         worker_pid=os.getpid())
    return result, record


def _timed_prefold_node(strategy, pseudo_id: int, framed, node: int,
                        references: Optional[Dict] = None):
    """Worker-side: :func:`_prefold_node_frames` plus a fold span record."""
    wall_start = time.time()
    perf_start = time.perf_counter()
    result = _prefold_node_frames(strategy, pseudo_id, framed, references)
    record = span_record("prefold_node", "fold", wall_start,
                         time.perf_counter() - perf_start,
                         node=node, tier=_tier_of_pseudo_id(pseudo_id),
                         num_updates=len(framed), worker_pid=os.getpid())
    return result, record


class AggregationPool:
    """Process pool for server-side fold work (expert shards, tree nodes).

    The parallel twin of :class:`ProcessPoolParticipantExecutor`, but for the
    *aggregation* plane: :class:`~repro.federated.ShardedParameterServer`
    folds its shards concurrently and
    :class:`~repro.federated.topology.AggregationTree` tier-0 nodes pre-fold
    their subtrees in workers.  All payloads cross the process boundary as
    lossless fp64 wire frames (exactly the representation a distributed
    deployment would ship), so pooled aggregation is bit-identical to serial
    — test-enforced.  The underlying pool is created lazily and survives
    across rounds; like the participant executor it pickles pool-less, so a
    fine-tuner holding one can itself be shipped to training workers.
    """

    name = "process"

    #: whether fold dispatch should collect ``needs_reference`` wire frames'
    #: reference states into the jobs (the service pool's compressed wire
    #: opts in; process-pool workers share the parent host, so shipping the
    #: compact frame vs the fp64 re-encode only moves pickle bytes)
    wire_frames = False

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        #: worker-measured fold span records of the most recent ``timed=True``
        #: call (cleared per call), for the caller's tracer to ingest
        self.last_span_records: List[dict] = []

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_pool"] = None
        return state

    def _worker_strategy(self, strategy):
        from ..federated.strategies import picklable_strategy

        return picklable_strategy(strategy)

    def fold_shards(self, strategy, streaming: bool,
                    jobs: Sequence[Tuple],
                    timed: bool = False
                    ) -> List[Tuple[int, List[Tuple[Tuple[int, int], bytes, int]]]]:
        """Fold every shard's framed updates concurrently; results in job order.

        Jobs are ``(shard, framed)`` or ``(shard, framed, references)`` — the
        optional trailing dict carries fp64-framed reference states for
        ``needs_reference`` wire frames (see :func:`frame_update`).
        ``timed=True`` additionally measures each shard's fold in its worker
        and leaves the span records in :attr:`last_span_records`.
        """
        strategy = self._worker_strategy(strategy)
        pool = self._ensure_pool()
        self.last_span_records = []
        if timed:
            futures = [(job[0], pool.submit(_timed_fold_shard, strategy, streaming,
                                            job[1], job[0],
                                            job[2] if len(job) > 2 else None))
                       for job in jobs]
            out = []
            for shard, future in futures:
                result, record = future.result()
                self.last_span_records.append(record)
                out.append((shard, result))
            return out
        futures = [(job[0], pool.submit(_fold_shard_frames, strategy, streaming,
                                        job[1], job[2] if len(job) > 2 else None))
                   for job in jobs]
        return [(shard, future.result()) for shard, future in futures]

    def prefold_nodes(self, strategy,
                      jobs: Sequence[Tuple],
                      timed: bool = False) -> List[Tuple[int, List[bytes]]]:
        """Pre-fold every tree node's framed updates concurrently (job order).

        Jobs are ``(node, pseudo_id, framed)`` or ``(node, pseudo_id, framed,
        references)``.  ``timed=True`` measures each node's fold worker-side
        into :attr:`last_span_records`, as :meth:`fold_shards` does.
        """
        strategy = self._worker_strategy(strategy)
        pool = self._ensure_pool()
        self.last_span_records = []
        if timed:
            futures = [(job[0], pool.submit(_timed_prefold_node, strategy, job[1],
                                            job[2], job[0],
                                            job[3] if len(job) > 3 else None))
                       for job in jobs]
            out = []
            for node, future in futures:
                result, record = future.result()
                self.last_span_records.append(record)
                out.append((node, result))
            return out
        futures = [(job[0], pool.submit(_prefold_node_frames, strategy, job[1],
                                        job[2], job[3] if len(job) > 3 else None))
                   for job in jobs]
        return [(node, future.result()) for node, future in futures]

    def close(self) -> None:
        """Release the worker pool (idempotent; lazily recreated on next use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_aggregation_pool(config) -> Optional[AggregationPool]:
    """The fold pool a :class:`~repro.federated.RunConfig` selects (or ``None``)."""
    name = getattr(config, "aggregation_executor", "serial")
    if name == "serial":
        return None
    if name == "process":
        return AggregationPool(max_workers=getattr(config, "aggregation_workers", None))
    if name == "service":
        from ..service import ServiceAggregationPool  # local: service pulls in asyncio

        return ServiceAggregationPool(
            getattr(config, "aggregation_workers", None),
            transport=getattr(config, "service_transport", "tcp"),
            retry_attempts=getattr(config, "service_retry_attempts", 3),
            retry_delay_s=getattr(config, "service_retry_delay_s", 0.05),
            timeout_s=getattr(config, "service_timeout_s", 30.0),
            log_dir=getattr(config, "service_log_dir", None),
            wire_frames=getattr(config, "service_codec", "fp64") == "wire",
            window=getattr(config, "service_window", 8))
    raise ValueError(f"unknown aggregation executor {name!r}")


class ParticipantExecutor(abc.ABC):
    """Runs the local work of a set of independent participants."""

    name: str = "base"

    @abc.abstractmethod
    def run_participants(self, tuner, participants: Sequence[Participant],
                         round_index: int) -> Dict[int, object]:
        """Run ``participant_round`` for every participant; results keyed by id.

        The returned dict preserves the order of ``participants``.
        """

    def close(self) -> None:
        """Release any worker resources (idempotent)."""


class SerialExecutor(ParticipantExecutor):
    """In-process sequential execution (the legacy behaviour)."""

    name = "serial"

    def run_participants(self, tuner, participants: Sequence[Participant],
                         round_index: int) -> Dict[int, object]:
        tracer = getattr(tuner, "telemetry", NULL_TELEMETRY).tracer
        if not tracer.enabled:
            return {participant.participant_id:
                    tuner.participant_round(participant, round_index)
                    for participant in participants}
        results: Dict[int, object] = {}
        for participant in participants:
            with tracer.span("participant_round", category="train",
                             participant=participant.participant_id) as span:
                result = tuner.participant_round(participant, round_index)
                span.set(sim_duration=result.breakdown.total(
                    overlap_profiling=result.overlap_profiling))
            results[participant.participant_id] = result
        return results


class ProcessPoolParticipantExecutor(ParticipantExecutor):
    """Fan participants out over a ``concurrent.futures`` process pool.

    The fine-tuner is pickled once per call and shipped once per *worker*
    (participants are split into one contiguous chunk per worker); workers
    return ``(participant_id, result, state_export)`` triples and the parent
    imports the state back so subsequent rounds match serial execution
    exactly.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def __getstate__(self):
        # A live pool holds thread locks and cannot cross a pickle boundary.
        # This executor may sit on the fine-tuner (legacy run_round API) when
        # the tuner itself is pickled for the workers; ship it pool-less and
        # let any process that actually executes recreate its own pool.
        state = self.__dict__.copy()
        state["_pool"] = None
        return state

    def run_participants(self, tuner, participants: Sequence[Participant],
                         round_index: int) -> Dict[int, object]:
        if not participants:
            return {}
        pool = self._ensure_pool()
        payload = pickle.dumps(tuner, protocol=pickle.HIGHEST_PROTOCOL)
        workers = self.max_workers or os.cpu_count() or 1
        ids = [p.participant_id for p in participants]
        chunks = [chunk.tolist() for chunk in
                  np.array_split(np.asarray(ids), min(workers, len(ids)))]
        futures = [pool.submit(_run_participant_chunk, payload, chunk, round_index)
                   for chunk in chunks if chunk]
        tracer = getattr(tuner, "telemetry", NULL_TELEMETRY).tracer
        collected: Dict[int, object] = {}
        for future in futures:
            for participant_id, result, frames, state, record in future.result():
                tuner.import_participant_state(participant_id, state)
                if record is not None:
                    tracer.ingest(record)
                collected[participant_id] = _unframe_result(result, frames)
        return {pid: collected[pid] for pid in ids}  # preserve participants order

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(config) -> ParticipantExecutor:
    """Build the executor selected by a :class:`~repro.federated.RunConfig`."""
    name = getattr(config, "executor", "serial")
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessPoolParticipantExecutor(
            max_workers=getattr(config, "executor_workers", None))
    raise ValueError(f"unknown executor {name!r}")
