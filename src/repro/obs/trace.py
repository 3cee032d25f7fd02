"""Nested span tracing for federated runs.

A :class:`Span` is one timed unit of run structure — ``run > round >
select/train/transmit/fold/checkpoint`` — carrying *both* clocks:

* **real time**: a ``time.time()`` wall-clock start (comparable across
  processes on one host, which is what lets aggregator servers contribute
  spans) plus a ``time.perf_counter()``-measured duration;
* **simulated time**: the event-clock seconds the run charges for the same
  work (``sim_time`` / ``sim_duration``), set wherever the simulation knows
  them — round durations, participant cost breakdowns, channel airtime.

:class:`Tracer` maintains the open-span stack: ``span(...)`` is a context
manager, children record their parent's id, and the ``round`` attribute is
inherited from the nearest enclosing span so every span of a round can be
attributed (and, on resume, pruned) by round index.  Finished spans are
handed to a ``sink`` callable — :class:`repro.obs.run.RunTelemetry` appends
them to the JSONL event log.

Aggregator servers (:mod:`repro.service`) are the only code that runs
outside the coordinator's tracer: they measure each fold job as a plain dict
(:func:`span_record`) that travels back with the job's result and is
re-parented into the live trace via :meth:`Tracer.ingest`.

:class:`NullTracer` is the default when telemetry is off: ``span()`` returns
a pre-built no-op context manager, so instrumentation sites cost one
attribute lookup and one method call — nothing is allocated and nothing is
recorded (overhead is gated by ``perf_harness.py --suite telemetry``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    """One timed unit of run structure (see module docstring for the clocks)."""

    name: str
    category: str
    span_id: int
    parent_id: Optional[int] = None
    round: Optional[int] = None
    wall_start: float = 0.0
    duration_s: float = 0.0
    sim_time: Optional[float] = None
    sim_duration: Optional[float] = None
    attributes: Dict = field(default_factory=dict)
    _perf_start: float = field(default=0.0, repr=False, compare=False)

    def set(self, sim_time: Optional[float] = None,
            sim_duration: Optional[float] = None, **attributes) -> "Span":
        """Attach simulated-clock values and extra attributes mid-span."""
        if sim_time is not None:
            self.sim_time = float(sim_time)
        if sim_duration is not None:
            self.sim_duration = float(sim_duration)
        self.attributes.update(attributes)
        return self

    def as_event(self) -> Dict:
        """The span as a JSONL event dict (plain JSON-safe types only)."""
        return {
            "type": "span",
            "name": self.name,
            "cat": self.category,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "round": self.round,
            "wall_start": self.wall_start,
            "duration_s": self.duration_s,
            "sim_time": self.sim_time,
            "sim_duration": self.sim_duration,
            "attrs": dict(self.attributes),
        }


class _SpanContext:
    """Context manager closing one span and handing it to the tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self._span)
        return False


class _NullSpan(Span):
    """Shared inert span: ``set`` discards everything."""

    def set(self, sim_time=None, sim_duration=None, **attributes) -> "Span":  # noqa: ARG002
        return self


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan(name="", category="", span_id=0)
_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """The telemetry-off tracer: every operation is a constant-time no-op."""

    enabled = False

    def span(self, name: str, category: str = "run", **kwargs):  # noqa: ARG002
        return _NULL_CONTEXT

    def ingest(self, record: Dict, **kwargs) -> None:  # noqa: ARG002
        """Discard an aggregator server's span record."""


NULL_TRACER = NullTracer()


class Tracer:
    """Records nested spans and streams finished ones to ``sink``.

    The tracer is single-threaded by design: the run loop, participant
    training, serial folds and exporters all live on the coordinator thread,
    and aggregator servers contribute via :meth:`ingest` rather than sharing
    the stack.
    """

    enabled = True

    def __init__(self, sink: Optional[Callable[[Span], None]] = None) -> None:
        self.sink = sink
        self._stack: List[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------ spans
    def span(self, name: str, category: str = "run",
             round: Optional[int] = None,
             sim_time: Optional[float] = None,
             sim_duration: Optional[float] = None,
             **attributes) -> _SpanContext:
        """Open a nested span (a context manager yielding the :class:`Span`).

        ``round`` is inherited from the nearest enclosing span when not given,
        so e.g. a ``train`` span opened inside a ``round`` span is
        automatically attributed to that round.
        """
        parent = self._stack[-1] if self._stack else None
        if round is None and parent is not None:
            round = parent.round
        span = Span(
            name=name,
            category=category,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            round=round,
            wall_start=time.time(),
            sim_time=sim_time,
            sim_duration=sim_duration,
            attributes=dict(attributes),
            _perf_start=time.perf_counter(),
        )
        self._next_id += 1
        self._stack.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.duration_s = time.perf_counter() - span._perf_start
        # Exceptions may unwind several spans at once; pop everything the
        # finished span still covers so the stack cannot grow stale entries.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if self.sink is not None:
            self.sink(span)

    def ingest(self, record: Dict, round: Optional[int] = None) -> None:
        """Adopt an aggregator server's :func:`span_record` into the live trace.

        The record becomes a child of the currently open span (a server's
        fold is measured while its dispatching fold span is open), keeps its
        server-measured wall start and duration, and inherits the enclosing
        round unless the record or caller pins one.
        """
        parent = self._stack[-1] if self._stack else None
        if round is None:
            round = record.get("round")
        if round is None and parent is not None:
            round = parent.round
        span = Span(
            name=record.get("name", "span"),
            category=record.get("cat", "work"),
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            round=round,
            wall_start=float(record.get("wall_start", time.time())),
            duration_s=float(record.get("duration_s", 0.0)),
            sim_time=record.get("sim_time"),
            sim_duration=record.get("sim_duration"),
            attributes=dict(record.get("attrs", {})),
        )
        self._next_id += 1
        if self.sink is not None:
            self.sink(span)


def span_record(name: str, category: str, wall_start: float, duration_s: float,
                sim_duration: Optional[float] = None, **attrs) -> Dict:
    """A picklable span measurement for work done outside the tracer's process.

    Aggregator servers cannot reach the coordinator's tracer; they time a
    fold job with ``time.time()`` / ``time.perf_counter()`` and ship one of
    these dicts back with its result, which the coordinator adopts via
    :meth:`Tracer.ingest`.
    """
    record = {"name": name, "cat": category, "wall_start": float(wall_start),
              "duration_s": float(duration_s), "attrs": dict(attrs)}
    if sim_duration is not None:
        record["sim_duration"] = float(sim_duration)
    return record
