"""The unit of aggregation: one participant's update for one expert.

Following the paper, participants exchange only *expert* parameters: each
participant uploads the post-training state of the experts it tuned plus a
weight (how many tokens contributed).  The server folds them per expert
(:class:`~repro.comm.StreamingAggregator`, weighted FedAvg) and
writes the result back into the global model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..comm.serialization import decode_update

ExpertKey = Tuple[int, int]  # (layer index, expert index)


@dataclass
class ExpertUpdate:
    """One participant's update for one expert.

    ``state`` is either given or — under ``transport="wire"`` — decoded on
    demand.  A wire update holds bytes, not tensors: the client frames its
    upload when its round ends
    (:meth:`~repro.federated.orchestrator.FederatedFineTuner.frame_upload`)
    and from then on the update is ``state=None`` plus :attr:`wire_frame` /
    :attr:`wire_codec` / :attr:`wire_reference` / :attr:`wire_raw_bytes`; the
    uplink sends those bytes and only verifies what arrives.  The first read
    of ``state`` decodes exactly those bytes against exactly that reference
    (:func:`repro.comm.decode_update`) and keeps the result.  No fold reads
    it: the fold dispatch (:mod:`repro.service.fold`) hands a framed update's
    bytes to :meth:`~repro.comm.StreamingAggregator.fold_frames`, here or on
    an aggregator server, so each frame is decoded once, by whoever folds it,
    and nothing dense outlives the fold.  ``state`` stays the documented
    accessor: everything that does read it — ``==``, ``repr``,
    ``dataclasses.replace``, a caller inspecting an upload — sees the bits an
    eager decode at the uplink would have produced (and ends
    :attr:`framed`: the value then lives in two places).
    """

    participant_id: int
    layer: int
    expert: int
    state: Optional[Dict[str, np.ndarray]]
    weight: float = 1.0
    #: the exact wire frame this update is sent as and arrived as
    #: (``transport="wire"`` only) — downstream fold dispatch forwards it
    #: verbatim instead of re-encoding the decoded state as fp64, which is
    #: bit-identical by construction (``state`` *is* the deterministic decode
    #: of these bytes).
    #: In-memory provenance, never re-serialized itself: ``repr``/``compare``
    #: exclude it so update equality and logs are unchanged.
    wire_frame: Optional[bytes] = field(default=None, repr=False, compare=False)
    #: codec name of :attr:`wire_frame` (``None`` when no frame is carried)
    wire_codec: Optional[str] = field(default=None, repr=False, compare=False)
    #: the reference state :attr:`wire_frame` decodes against, for
    #: ``needs_reference`` codecs (top-k/sparse deltas); forwarded alongside
    #: the frame so a remote decoder reconstructs the identical state.  Shared
    #: read-only by every update of one expert key and server version.
    wire_reference: Optional[Dict[str, np.ndarray]] = field(
        default=None, repr=False, compare=False)
    #: what the tensors :attr:`wire_frame` was encoded from cost raw, at their
    #: own dtype, recorded at encode time so the uplink's
    #: ``wire_density`` never decodes a frame to measure it
    wire_raw_bytes: int = field(default=0, repr=False, compare=False)

    @property
    def key(self) -> ExpertKey:
        return (self.layer, self.expert)

    @property
    def framed(self) -> bool:
        """Whether the bytes alone hold the value: a frame and no decoded state."""
        return self.__dict__["state"] is None and self.wire_frame is not None


def _get_state(self: ExpertUpdate) -> Optional[Dict[str, np.ndarray]]:
    state = self.__dict__["state"]
    if state is None and self.wire_frame is not None:
        state = self.__dict__["state"] = decode_update(
            self.wire_frame, reference=self.wire_reference).state
    return state


def _set_state(self: ExpertUpdate, state: Optional[Dict[str, np.ndarray]]) -> None:
    self.__dict__["state"] = state


# ``state`` has no default, so the dataclass left no class attribute behind:
# the generated ``__init__`` assigns through this property, and ``fields()``,
# ``replace``, ``==`` and ``repr`` read through it.  The value lives under its
# own name in the instance ``__dict__``, so pickles (async-scheduler
# checkpoints hold in-flight updates) keep the layout they always had.
ExpertUpdate.state = property(_get_state, _set_state)
