"""Seeded fault injection: stragglers and dropouts.

Real federated fleets lose clients mid-round (network churn, battery, user
interaction) and see order-of-magnitude slowdowns from background load.  The
:class:`FaultInjector` layers both on top of the analytical
:class:`~repro.systems.cost_model.CostModel` durations: a straggler's round
time is multiplied by :data:`STRAGGLER_SLOWDOWN`, a dropped client
contributes nothing.

Every draw comes from a generator derived from ``(seed, round, participant)``
rather than from call order or module-level ``np.random``, so fault outcomes
are reproducible run-to-run *and* independent of the order participants
train in.  The same keying makes the injectors *stateless between rounds*: a
resumed run (:mod:`repro.runtime.checkpoint`) replays exactly the faults the
interrupted run would have seen without the checkpoint having to capture any
injector state.  (The :class:`ChannelFaultInjector` stream is keyed on each channel's
payload sequence number, which *is* checkpointed — by the channel itself via
:meth:`repro.comm.Channel.export_state`.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..systems import RoundCostBreakdown

#: how many times longer a straggler's round takes (the order-of-magnitude
#: background-load slowdown of the fleets Fig. 21 models)
STRAGGLER_SLOWDOWN = 4.0


@dataclass(frozen=True)
class FaultOutcome:
    """What the injector decided for one (round, participant) pair."""

    slowdown: float = 1.0
    dropped: bool = False

    @property
    def is_straggler(self) -> bool:
        return self.slowdown > 1.0


def scale_breakdown(breakdown: RoundCostBreakdown, factor: float) -> RoundCostBreakdown:
    """A copy of ``breakdown`` with every phase scaled by ``factor``.

    ``RoundCostBreakdown.total`` is linear in its phases (including under
    profiling overlap), so scaling the phases scales the total identically.
    """
    if factor == 1.0:
        return breakdown
    return RoundCostBreakdown(**{phase: value * factor
                                 for phase, value in breakdown.as_dict().items()})


@dataclass
class FaultInjector:
    """Seeded straggler and dropout injection for one run."""

    dropout_prob: float = 0.0
    straggler_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("dropout_prob", "straggler_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @property
    def active(self) -> bool:
        return self.dropout_prob > 0.0 or self.straggler_prob > 0.0

    def outcome(self, round_index: int, participant_id: int) -> FaultOutcome:
        """The (deterministic) fault outcome for one participant this round."""
        if not self.active:
            return FaultOutcome()
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFF, 0x7A17,
                                    int(round_index), int(participant_id)]))
        # Fixed draw order keeps the stream stable as probabilities change.
        drop_draw, straggle_draw = rng.random(2)
        if drop_draw < self.dropout_prob:
            return FaultOutcome(dropped=True)
        if straggle_draw < self.straggler_prob:
            return FaultOutcome(slowdown=STRAGGLER_SLOWDOWN)
        return FaultOutcome()

    @classmethod
    def from_config(cls, config) -> "FaultInjector":
        """Build the injector a :class:`~repro.federated.RunConfig` describes."""
        return cls(
            dropout_prob=config.dropout_prob,
            straggler_prob=config.straggler_prob,
            seed=config.seed,
        )


@dataclass(frozen=True)
class ChannelFaultOutcome:
    """What the channel injector decided for one payload."""

    lost: bool = False
    corrupted: bool = False


@dataclass
class ChannelFaultInjector:
    """Seeded per-payload loss and corruption for wire transport.

    The same determinism contract as :class:`FaultInjector`: every draw comes
    from ``(seed, participant, payload sequence number)``, so wire faults
    replay identically run-to-run and independently of execution order.  A
    lost payload never reaches the server; a corrupted one arrives with
    flipped bytes and is caught by the frame checksum
    (:class:`~repro.comm.serialization.PayloadCorruptedError`).
    """

    loss_prob: float = 0.0
    corrupt_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("loss_prob", "corrupt_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @property
    def active(self) -> bool:
        return self.loss_prob > 0.0 or self.corrupt_prob > 0.0

    def _rng(self, salt: int, sequence: int, participant_id: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFF, salt,
                                    int(sequence), int(participant_id)]))

    def outcome(self, sequence: int, participant_id: int) -> ChannelFaultOutcome:
        """The (deterministic) fate of one payload on one participant's link."""
        if not self.active:
            return ChannelFaultOutcome()
        loss_draw, corrupt_draw = self._rng(0xC4A7, sequence, participant_id).random(2)
        if loss_draw < self.loss_prob:
            return ChannelFaultOutcome(lost=True)
        if corrupt_draw < self.corrupt_prob:
            return ChannelFaultOutcome(corrupted=True)
        return ChannelFaultOutcome()

    def corrupt(self, payload: bytes, sequence: int, participant_id: int) -> bytes:
        """Flip a few bytes of ``payload`` (deterministically per sequence)."""
        if not payload:
            return payload
        rng = self._rng(0xBADD, sequence, participant_id)
        data = bytearray(payload)
        flips = max(1, len(data) // 4096)
        # Distinct positions: XOR flips at a repeated position would cancel
        # out and deliver the payload byte-identical despite being counted
        # as corrupted.
        for position in rng.choice(len(data), size=min(flips, len(data)), replace=False):
            data[int(position)] ^= 0xFF
        return bytes(data)

    @classmethod
    def from_config(cls, config) -> "ChannelFaultInjector":
        return cls(
            loss_prob=config.channel_loss_prob,
            corrupt_prob=config.channel_corrupt_prob,
            seed=config.seed,
        )
