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

Both executors end a participant's round with
:meth:`~repro.federated.orchestrator.FederatedFineTuner.frame_upload`: under
``transport="wire"`` the result they hand back holds the upload's wire frames
and no tensors.  The IPC payload of one participant is therefore the run
codec's frames as they are (``topk:0.25:int4``: 12x fewer bytes than fp64;
the parent re-attaches the delta reference from its own cache and decodes
nothing), and lossless fp64 frames of the in-memory updates only under the
analytic transport.
"""

from __future__ import annotations

import abc
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from copy import copy
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm import decode_update, encode_updates, get_codec
from ..federated.client import Participant
from ..obs import NULL_TELEMETRY, span_record

#: codec used to frame in-memory updates crossing the process boundary —
#: lossless for every float dtype, so parallel execution stays bit-identical
#: to serial
_IPC_CODEC = "fp64"


def _frame_result(result) -> Tuple[object, Optional[List[bytes]]]:
    """Split one round result into (what pickles as it is, fp64 frames of the rest).

    The worker→parent hop ships expert updates as framed byte payloads rather
    than pickled numpy state dicts, exactly the representation a remote
    deployment would ship.  An upload the worker already framed for the wire
    (:meth:`~repro.federated.orchestrator.FederatedFineTuner.frame_upload`)
    *is* bytes: its updates stay on the result, verbatim, minus the reference
    they decode against (the parent holds the same one), and no fp64 frames
    are made (``None``).
    """
    if all(update.framed for update in result.updates):
        shipped = [copy(update) for update in result.updates]
        for update in shipped:
            update.wire_reference = None
        return replace(result, updates=shipped), None
    frames = encode_updates(result.updates, get_codec(_IPC_CODEC))
    return replace(result, updates=[]), frames


def _unframe_result(tuner, result, frames: Optional[Sequence[bytes]]):
    """Parent-side inverse of :func:`_frame_result`; decodes no wire frame."""
    if frames is not None:
        return replace(result, updates=[decode_update(frame) for frame in frames])
    for update in result.updates:
        if get_codec(update.wire_codec).needs_reference:
            update.wire_reference = tuner.uplink_reference(update.layer, update.expert)
    return result


def _run_participant_chunk(payload: bytes, participant_ids: Sequence[int],
                           round_index: int
                           ) -> List[Tuple[int, object, Optional[List[bytes]], dict,
                                           Optional[dict]]]:
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
        stripped, frames = _frame_result(tuner.frame_upload(result))
        out.append((participant_id, stripped, frames,
                    tuner.export_participant_state(participant_id), record))
    return out


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
            return {participant.participant_id: tuner.frame_upload(
                        tuner.participant_round(participant, round_index))
                    for participant in participants}
        results: Dict[int, object] = {}
        for participant in participants:
            with tracer.span("participant_round", category="train",
                             participant=participant.participant_id) as span:
                result = tuner.participant_round(participant, round_index)
                span.set(sim_duration=result.breakdown.total(
                    overlap_profiling=result.overlap_profiling))
            results[participant.participant_id] = tuner.frame_upload(result)
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
                collected[participant_id] = _unframe_result(tuner, result, frames)
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
