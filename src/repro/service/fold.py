"""Fold jobs: the one payload shape and the one arithmetic of the service plane.

Both ends of the service import this module.  The dispatch side
(:class:`~repro.federated.ParameterServer`,
:class:`~repro.federated.topology.AggregationTree`) turns each update into the
``(wire frame, staleness)`` pair a job carries with :func:`frame_update`; the
aggregator servers fold a job's pairs with :func:`fold_shard_frames` /
:func:`prefold_node_frames`.  Every fold is a
:class:`~repro.comm.StreamingAggregator` fed the job's frames in arrival
order, a sender's upload at a time
(:meth:`~repro.comm.StreamingAggregator.fold_frames`) — the same arithmetic
the serial server runs — so a service fold equals the serial fold bit for bit
(``tests/test_service.py``), and the fold itself is held to the
frame-at-a-time fold job it replaced and to the buffered FedAvg reference,
both in ``tests/fold_oracles.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..comm import (
    ScratchPool,
    StreamingAggregator,
    decode_state_dict,
    encode_state_dict,
    encode_update,
    encode_updates,
    get_codec,
)
from ..comm.aggregator import ExpertKey

#: codec of everything a job carries that did not arrive as a frame
#: (references, in-memory updates, folded results): lossless for every float
#: dtype, so a service fold stays bit-identical to the serial fold
JOB_CODEC = "fp64"

FramedUpdate = Tuple[bytes, int]


def frame_update(update, references: Dict[ExpertKey, bytes],
                 framed_references: Optional[Dict[int, Tuple[object, bytes]]] = None
                 ) -> FramedUpdate:
    """One update as the ``(wire frame, staleness)`` pair fold jobs consume.

    Staleness rides alongside the frame because it is in-memory metadata that
    deliberately does not travel in wire frames (the schedulers discount
    weights before transmission); the ``staleness_fedavg`` strategy still
    needs it server-side to discount exactly as a serial fold would.

    An update that arrived over the wire transport is forwarded as the frame
    it arrived as (``update.wire_frame``): its state *is* the deterministic
    decode of those bytes, so nothing is decoded or re-encoded on the way.  A
    frame of a ``needs_reference`` codec (top-k / sparse deltas) also records
    its reference state in ``references`` — one fp64 state-dict frame per
    expert key per job — for the server-side decode.  Jobs dispatched together
    (a tree tier's nodes) that delta against the same reference states share
    those frames through ``framed_references``: a reference state is framed
    once, whatever the number of jobs that carry it.  An update with no frame
    (analytic transport, tree partials), or with a delta frame whose reference
    is gone, is encoded as a lossless fp64 frame.
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
                held = (reference, encode_state_dict(reference, get_codec(JOB_CODEC)))
                if framed_references is not None:
                    framed_references[id(reference)] = held
            references[update.key] = held[1]
    if frame is None:
        frame = encode_update(update, get_codec(JOB_CODEC))
    return frame, update.staleness


def _fold_frames(strategy, framed: Sequence[FramedUpdate],
                 references: Optional[Dict[ExpertKey, bytes]],
                 scratch) -> StreamingAggregator:
    """Fold a job's ``(frame, staleness)`` pairs, in order, into one aggregator.

    Frames decode into ``scratch`` (an aggregator server passes its own
    :class:`~repro.comm.ScratchPool`, which stays warm across every round it
    folds), a sender's upload as one group: no per-update allocation and no
    buffered update list.  Without one the fold allocates per group, to the
    same bits.  Every reference a job carries was recorded for a delta frame
    of that job (:func:`frame_update`), so all of them are decoded up front.
    """
    aggregator = StreamingAggregator(strategy, scratch=scratch)
    # The references are only read, and their frames outlive the fold: decoded
    # under a pool of their own (never recycled) they are views of the frames.
    views = ScratchPool()
    states = {key: decode_state_dict(frame, scratch=views)
              for key, frame in (references or {}).items()}

    def lookup(layer: int, expert: int):
        return states.get((layer, expert))

    aggregator.fold_frames([frame for frame, _ in framed],
                           [int(staleness) for _, staleness in framed],
                           reference_lookup=lookup)
    return aggregator


def fold_shard_frames(strategy, framed: Sequence[FramedUpdate],
                      references: Optional[Dict[ExpertKey, bytes]] = None,
                      scratch=None) -> List[Tuple[ExpertKey, bytes, int]]:
    """Fold one shard's job to ``(key, fp64 state-dict frame, count)`` triples.

    Finalizing raises on a key whose contributions all weigh zero, exactly as
    the serial :meth:`~repro.comm.StreamingAggregator.apply` does.
    """
    aggregator = _fold_frames(strategy, framed, references, scratch)
    codec = get_codec(JOB_CODEC)
    counts = aggregator.contributions()
    return [(key, encode_state_dict(state, codec), counts[key])
            for key, state in aggregator.finalize().items()]


def prefold_node_frames(strategy, pseudo_id: int, framed: Sequence[FramedUpdate],
                        references: Optional[Dict[ExpertKey, bytes]] = None,
                        scratch=None) -> List[bytes]:
    """Pre-fold one aggregation-tree node's job to its partials' fp64 frames.

    The partials carry the group's accumulated weight and the node's pseudo
    participant id — byte for byte what the serial tier fold frames for the
    upward hop.
    """
    aggregator = _fold_frames(strategy, framed, references, scratch)
    return encode_updates(aggregator.partials(pseudo_id), get_codec(JOB_CODEC))
