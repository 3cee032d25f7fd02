"""Fold dispatch and fold jobs: where a fold runs, and the one arithmetic it runs.

**Dispatch.**  Every fold site — each tier of an
:class:`~repro.federated.topology.AggregationTree`, the shards of a
:class:`~repro.federated.ParameterServer` — builds the same thing: a list of
jobs, one per tree node or shard, each holding that node's
:class:`~repro.federated.aggregation.ExpertUpdate`'s in arrival order, and
hands it to :func:`prefold_nodes` / :func:`fold_shards`.  Those two functions
are the only place that knows whether a job folds here or on an aggregator
server, and their ``pool`` argument is the whole decision: without a pool the
job folds on a local :class:`~repro.comm.StreamingAggregator` (a framed update
through :meth:`~repro.comm.StreamingAggregator.fold_frames`, a sender's upload
at a time, into the caller's scratch pool; a dense one through ``add``); with
one, every update becomes the wire frame a service job carries
(:func:`frame_update`) and the :class:`~repro.service.ServiceAggregationPool`
runs the jobs on its servers.

**Jobs.**  The aggregator servers fold a job's frames with
:func:`fold_shard_frames` / :func:`prefold_node_frames`: the same
``fold_frames`` call over the same bytes in the same order, so a service fold
equals the local fold bit for bit (``tests/test_service.py``), and the fold
itself is held to the frame-at-a-time fold job it replaced and to the buffered
FedAvg reference, both in ``tests/fold_oracles.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm import (
    Codec,
    ScratchPool,
    StreamingAggregator,
    decode_state_dict,
    encode_state_dict,
    encode_update,
    encode_updates,
    get_codec,
)
from ..comm.aggregator import ExpertKey
from ..comm.serialization import parse_update
from ..federated.aggregation import ExpertUpdate
from ..federated.topology import tier_of_pseudo_id
from ..obs import NULL_TRACER

#: codec of what a job returns (shard aggregates, node partials): they are
#: float64 fold sums, and fp64 frames them losslessly
JOB_CODEC = "fp64"

FramedUpdate = bytes
State = Dict[str, np.ndarray]


def _lossless_codec(state: State) -> Codec:
    """The cast codec of ``state``'s own width: ``fp32`` when every tensor is
    float32 (a float32 model's references and updates), else ``fp64``.

    Lossless either way, so a service fold stays bit-identical to the local
    fold, and a float32 tensor travels at its own four bytes an element.
    """
    narrow = all(np.asarray(value).dtype == np.float32 for value in state.values())
    return get_codec("fp32" if narrow else "fp64")


def frame_update(update, references: Dict[ExpertKey, bytes],
                 framed_references: Optional[Dict[int, Tuple[object, bytes]]] = None
                 ) -> FramedUpdate:
    """One update as the wire frame a service job carries.

    An update that carries a frame (a wire-transport upload, a tree partial)
    is forwarded as that frame (``update.wire_frame``): its state *is* the
    deterministic decode of those bytes, so nothing is decoded or re-encoded
    on the way.  A frame of a ``needs_reference`` codec (top-k / sparse
    deltas) also records its reference state in ``references`` — one
    state-dict frame per expert key per job, at the lossless codec of the
    state's dtype — for the server-side decode.
    Jobs dispatched together (a tree tier's nodes) that delta against the same
    reference states share those frames through ``framed_references``: a
    reference state is framed once, whatever the number of jobs that carry it.
    An update with no frame (analytic transport, a decoded tree partial), or
    with a delta frame whose reference is gone, is encoded at the lossless
    codec of its state's dtype (``fp32`` for a float32 model's update,
    ``fp64`` for a float64 partial).
    """
    frame = update.wire_frame
    if frame is not None and get_codec(update.wire_codec).needs_reference:
        reference = update.wire_reference
        if reference is None:
            frame = None
        elif update.key not in references:
            # keyed on the state's identity, and holding it so the id stays its
            held = None if framed_references is None else framed_references.get(id(reference))
            if held is None:
                held = (reference, encode_state_dict(reference, _lossless_codec(reference)))
                if framed_references is not None:
                    framed_references[id(reference)] = held
            references[update.key] = held[1]
    if frame is None:
        frame = encode_update(update, _lossless_codec(update.state))
    return frame


# ------------------------------------------------------------- the one fold
def _fold_framed(aggregator: StreamingAggregator, framed: Sequence[FramedUpdate],
                 references: Dict[ExpertKey, State]) -> None:
    """Fold frames, in order, a sender's upload as one group."""
    aggregator.fold_frames(
        framed, reference_lookup=lambda layer, expert: references.get((layer, expert)))


def _fold_updates(updates: Sequence[ExpertUpdate],
                  scratch: Optional[ScratchPool]) -> StreamingAggregator:
    """Fold one job's updates here, in arrival order, into a fresh aggregator.

    A framed update is decoded by the fold, with its neighbours (runs of
    framed updates go through :func:`_fold_framed` against the reference
    states they carry) and into ``scratch``: its lazy ``state`` is never read,
    so nothing dense outlives the fold.  An update that holds a state folds
    through ``add``; the run before it is folded first, so every key sees its
    contributions in arrival order.
    """
    aggregator = StreamingAggregator(scratch=scratch)
    framed: List[FramedUpdate] = []
    references: Dict[ExpertKey, State] = {}
    for update in updates:
        if update.framed:
            framed.append(update.wire_frame)
            if update.wire_reference is not None:
                references[update.key] = update.wire_reference
            continue
        if framed:
            _fold_framed(aggregator, framed, references)
            framed = []
        aggregator.add(update)
    if framed:
        _fold_framed(aggregator, framed, references)
    return aggregator


def _fold_job_frames(framed: Sequence[FramedUpdate],
                     references: Optional[Dict[ExpertKey, bytes]],
                     scratch: Optional[ScratchPool]) -> StreamingAggregator:
    """Fold a service job's frames, in order, into a fresh aggregator.

    Frames decode into ``scratch`` (an aggregator server passes its own
    :class:`~repro.comm.ScratchPool`, which stays warm across every round it
    folds); without one the fold allocates per group, to the same bits.  Every
    reference a job carries was recorded for a delta frame of that job
    (:func:`frame_update`), so all of them are decoded up front.
    """
    aggregator = StreamingAggregator(scratch=scratch)
    # The references are only read, and their frames outlive the fold: decoded
    # under a pool of their own (never recycled) they are views of the frames.
    views = ScratchPool()
    _fold_framed(aggregator, framed,
                 {key: decode_state_dict(frame, scratch=views)
                  for key, frame in (references or {}).items()})
    return aggregator


def _shard_result(aggregator: StreamingAggregator) -> List[Tuple[ExpertKey, State, int]]:
    """``(key, aggregated state, contributions)`` per key of a folded shard.

    Finalizing raises on a key whose contributions all weigh zero.
    """
    counts = aggregator.contributions()
    return [(key, state, counts[key]) for key, state in aggregator.finalize().items()]


# --------------------------------------------------------- server-side jobs
def fold_shard_frames(framed: Sequence[FramedUpdate],
                      references: Optional[Dict[ExpertKey, bytes]] = None,
                      scratch=None) -> List[Tuple[ExpertKey, bytes, int]]:
    """Fold one shard's job to ``(key, fp64 state-dict frame, count)`` triples."""
    codec = get_codec(JOB_CODEC)
    return [(key, encode_state_dict(state, codec), count) for key, state, count
            in _shard_result(_fold_job_frames(framed, references, scratch))]


def prefold_node_frames(pseudo_id: int, framed: Sequence[FramedUpdate],
                        references: Optional[Dict[ExpertKey, bytes]] = None,
                        scratch=None) -> List[bytes]:
    """Pre-fold one aggregation-tree node's job to its partials' fp64 frames.

    The partials carry the group's accumulated weight and the node's pseudo
    participant id — byte for byte what the local tier fold frames for the
    upward hop.
    """
    aggregator = _fold_job_frames(framed, references, scratch)
    return encode_updates(aggregator.partials(pseudo_id), get_codec(JOB_CODEC))


# ----------------------------------------------------------------- dispatch
def _on_servers(pool, fold, jobs: Sequence[Tuple], tracer) -> List[Tuple]:
    """Run ``jobs`` through ``fold`` (``pool.prefold_nodes`` / ``pool.fold_shards``).

    Each job goes with its updates as frames plus the references they need; the fold spans the servers measured go to ``tracer``.
    """
    framed_references: Dict = {}    # jobs dispatched together share a reference's frame
    service_jobs = []
    for *head, updates in jobs:
        references: Dict[ExpertKey, bytes] = {}
        service_jobs.append((*head, [frame_update(update, references, framed_references)
                                     for update in updates], references))
    folded = fold(service_jobs, timed=tracer.enabled)
    for record in pool.last_span_records:
        tracer.ingest(record)
    return folded


def _received_partial(frame: bytes) -> ExpertUpdate:
    """A partial frame a server returned, as the byte-holding update it is.

    Verified and parsed here, as the uplink verifies a participant's frames;
    decoded once, by whoever folds it.
    """
    parsed = parse_update(frame)
    return ExpertUpdate(participant_id=parsed.participant_id, layer=parsed.layer,
                        expert=parsed.expert, state=None, weight=parsed.weight,
                        wire_frame=frame, wire_codec=JOB_CODEC)


def prefold_nodes(jobs: Sequence[Tuple[int, int, Sequence[ExpertUpdate]]],
                  pool=None, *, scratch: Optional[ScratchPool] = None,
                  tracer=NULL_TRACER) -> List[Tuple[int, List[ExpertUpdate]]]:
    """Pre-fold one tree tier: ``(node, pseudo_id, updates)`` jobs → ``(node, partials)``.

    A node's partials are one update per expert key of positive weight,
    carrying the group's accumulated weight, the node's pseudo participant id
    and their lossless fp64 ``wire_frame`` — the bytes the upward hop sends.  Folded
    here they hold their dense state too; folded on ``pool``'s servers they
    hold the returned bytes only.  Partial order is accumulator insertion
    order either way, so the two are bit-identical.  ``tracer`` gets one fold
    span per job: timed here, or measured by the server and ingested.
    """
    if pool is not None:
        return [(node, [_received_partial(frame) for frame in frames])
                for node, frames in _on_servers(pool, pool.prefold_nodes, jobs, tracer)]
    codec = get_codec(JOB_CODEC)
    out = []
    for node, pseudo_id, updates in jobs:
        tier = tier_of_pseudo_id(pseudo_id)
        with tracer.span("prefold_node" if tier == 0 else "fold_node", category="fold",
                         node=node, tier=tier, num_updates=len(updates)):
            partials = _fold_updates(updates, scratch).partials(pseudo_id)
            for partial, frame in zip(partials, encode_updates(partials, codec)):
                partial.wire_frame, partial.wire_codec = frame, JOB_CODEC
        out.append((node, partials))
    return out


def fold_shards(jobs: Sequence[Tuple[int, Sequence[ExpertUpdate]]],
                pool=None, *, scratch: Optional[ScratchPool] = None,
                tracer=NULL_TRACER
                ) -> List[Tuple[int, List[Tuple[ExpertKey, State, int]]]]:
    """Fold the root's shards: ``(shard, updates)`` jobs → ``(shard, [(key, state, count)])``.

    A key whose contributions all weigh zero cannot be averaged and raises,
    here or (as a :class:`~repro.service.ServiceError`) on the server.
    """
    if pool is not None:
        return [(shard, [(key, decode_state_dict(frame), count) for key, frame, count in result])
                for shard, result in _on_servers(pool, pool.fold_shards, jobs, tracer)]
    out = []
    for shard, updates in jobs:
        with tracer.span("fold_shard", category="fold", shard=shard,
                         num_updates=len(updates)):
            out.append((shard, _shard_result(_fold_updates(updates, scratch))))
    return out
