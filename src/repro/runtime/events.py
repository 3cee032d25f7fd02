"""Discrete-event machinery for the federated runtime.

The runtime models a federated deployment as a stream of timestamped events on
a simulated clock (the same simulated seconds produced by
:class:`~repro.systems.cost_model.CostModel` and accumulated by
:class:`~repro.systems.timeline.SimulatedClock`).  An :class:`EventQueue` is a
plain binary heap keyed on ``(time, sequence)``: events fire in simulated-time
order, and events that share a timestamp fire in insertion order, which keeps
every scheduler deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass(frozen=True)
class Event:
    """One timestamped occurrence in the simulated federation."""

    time: float
    seq: int
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    Ordering is ``(time, seq)``: strictly increasing sequence numbers break
    timestamp ties in FIFO order, so two runs that push the same events in the
    same order pop them in the same order.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0

    def push(self, time: float, kind: str, **payload: Any) -> Event:
        """Schedule ``kind`` at simulated second ``time``."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        event = Event(time=float(time), seq=self._seq, kind=kind, payload=payload)
        self._seq += 1
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)[2]

    def snapshot(self) -> List[Event]:
        """Every queued event in firing order, without consuming the queue.

        Re-pushing a snapshot into a fresh queue (in order) reproduces the
        original pop order exactly — sequence numbers are reassigned densely
        but preserve the relative tie-breaking — which is what makes the
        asynchronous scheduler's in-flight state checkpointable.
        """
        return [item[2] for item in sorted(self._heap, key=lambda item: item[:2])]

    def pop_until(self, time: float) -> List[Event]:
        """Pop every event with ``event.time <= time`` in firing order."""
        fired: List[Event] = []
        while self._heap and self._heap[0][0] <= time:
            fired.append(self.pop())
        return fired

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
