"""Metered transport channel between a participant and the server.

A :class:`Channel` charges each payload for real airtime — latency plus
``len(payload)`` bytes over the participant's link bandwidth (from its
:class:`~repro.systems.cost_model.CostModel`) — and applies loss/corruption
faults drawn from a :class:`~repro.runtime.faults.ChannelFaultInjector` (any
object with compatible ``outcome``/``corrupt`` hooks works).  Every transfer
is recorded into :class:`ChannelStats`, which is where *measured* payload
bytes come from.

Measured airtime is reported (``RoundResult.wire_seconds``) alongside — not
instead of — the analytic communication seconds the methods charge into their
cost breakdowns: the simulated clock stays on the analytic estimates, so the
wire measurements can disagree with them without double-charging time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class TransferRecord:
    """Outcome of one payload crossing the channel."""

    payload: Optional[bytes]
    nbytes: int
    seconds: float
    direction: str = "up"
    lost: bool = False
    corrupted: bool = False

    @property
    def delivered(self) -> bool:
        return not self.lost


@dataclass
class ChannelStats:
    """Accumulated wire measurements (per channel, round or run)."""

    payloads: int = 0
    bytes_up: float = 0.0
    bytes_down: float = 0.0
    seconds: float = 0.0
    lost: int = 0
    corrupted: int = 0
    decode_failures: int = 0

    @property
    def total_bytes(self) -> float:
        return self.bytes_up + self.bytes_down

    def record(self, transfer: TransferRecord) -> None:
        self.payloads += 1
        if transfer.direction == "down":
            self.bytes_down += transfer.nbytes
        else:
            self.bytes_up += transfer.nbytes
        self.seconds += transfer.seconds
        if transfer.lost:
            self.lost += 1
        if transfer.corrupted:
            self.corrupted += 1

    def merge(self, other: "ChannelStats") -> "ChannelStats":
        self.payloads += other.payloads
        self.bytes_up += other.bytes_up
        self.bytes_down += other.bytes_down
        self.seconds += other.seconds
        self.lost += other.lost
        self.corrupted += other.corrupted
        self.decode_failures += other.decode_failures
        return self


class Channel:
    """One participant's up/down link to the parameter server."""

    def __init__(self, participant_id: int = 0, cost_model=None, faults=None,
                 latency_s: float = 0.0) -> None:
        if latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        self.participant_id = participant_id
        self.cost_model = cost_model
        self.faults = faults
        self.latency_s = latency_s
        self.stats = ChannelStats()
        self._sequence = 0

    @property
    def bandwidth_bytes_per_s(self) -> Optional[float]:
        if self.cost_model is None:
            return None
        return self.cost_model.device.network_bytes_per_s

    def transfer_seconds(self, nbytes: int) -> float:
        """Airtime for ``nbytes``: latency plus serialization at link speed."""
        bandwidth = self.bandwidth_bytes_per_s
        if bandwidth is None:
            return self.latency_s
        return self.latency_s + nbytes / bandwidth

    def export_state(self) -> dict:
        """Picklable resume state: the payload sequence position and stats.

        The sequence number keys the channel fault stream, so restoring it
        resumes loss/corruption draws exactly where an interrupted run left
        them (used by :mod:`repro.runtime.checkpoint`).  Stats are copied on
        both export and import, so a snapshot is a true point-in-time capture
        and two channels never alias one counter object.
        """
        return {"sequence": self._sequence, "stats": replace(self.stats)}

    def import_state(self, state: dict) -> None:
        """Restore an :meth:`export_state` snapshot."""
        self._sequence = int(state["sequence"])
        self.stats = replace(state["stats"])

    def send(self, payload: bytes, direction: str = "up") -> TransferRecord:
        """Transfer one framed payload, applying any configured faults.

        A lost payload still consumed its airtime (the sender transmitted it);
        a corrupted one arrives with flipped bytes for the decoder's checksum
        to catch.
        """
        if direction not in ("up", "down"):
            raise ValueError("direction must be 'up' or 'down'")
        sequence = self._sequence
        self._sequence += 1
        nbytes = len(payload)
        seconds = self.transfer_seconds(nbytes)
        lost = corrupted = False
        delivered: Optional[bytes] = payload
        if self.faults is not None:
            outcome = self.faults.outcome(sequence, self.participant_id)
            if outcome.lost:
                lost, delivered = True, None
            elif outcome.corrupted:
                corrupted = True
                delivered = self.faults.corrupt(payload, sequence, self.participant_id)
        record = TransferRecord(payload=delivered, nbytes=nbytes, seconds=seconds,
                                direction=direction, lost=lost, corrupted=corrupted)
        self.stats.record(record)
        return record
