"""Simulated wall-clock for federated rounds."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .cost_model import RoundCostBreakdown


@dataclass
class SimulatedClock:
    """A monotonically advancing simulated clock (seconds)."""

    _now: float = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("cannot advance the clock by a negative amount")
        self._now += seconds
        return self._now


@dataclass
class RoundTimeline:
    """Aggregated timing of one federated round across all participants.

    The round completes when the slowest participant finishes (synchronous
    FedAvg), after which the server aggregates.  Per-phase totals are kept for
    the overhead-breakdown experiment (Figure 20).
    """

    round_index: int
    participant_times: Dict[int, float] = field(default_factory=dict)
    participant_breakdowns: Dict[int, RoundCostBreakdown] = field(default_factory=dict)
    server_time: float = 0.0
    #: set by non-synchronous schedulers (deadline-based or buffered rounds)
    #: whose wall-clock span is not "slowest participant + aggregation"
    duration_override: Optional[float] = None

    def record_participant(self, participant_id: int, breakdown: RoundCostBreakdown,
                           overlap_profiling: bool = False) -> None:
        self.participant_breakdowns[participant_id] = breakdown
        self.participant_times[participant_id] = breakdown.total(overlap_profiling=overlap_profiling)

    def round_duration(self) -> float:
        """Wall-clock duration: slowest participant plus server aggregation."""
        if self.duration_override is not None:
            return self.duration_override
        slowest = max(self.participant_times.values(), default=0.0)
        return slowest + self.server_time

    def phase_totals(self) -> Dict[str, float]:
        """Sum of per-phase times across participants (plus server aggregation)."""
        totals: Dict[str, float] = {
            "profiling": 0.0, "merging": 0.0, "assignment": 0.0, "training": 0.0,
            "offloading": 0.0, "quantization": 0.0, "communication": 0.0,
        }
        for breakdown in self.participant_breakdowns.values():
            for phase, value in breakdown.as_dict().items():
                totals[phase] += value
        totals["aggregation"] = self.server_time
        return totals


@dataclass
class RunTimeline:
    """Collection of round timelines for a whole fine-tuning run."""

    rounds: List[RoundTimeline] = field(default_factory=list)

    def add(self, timeline: RoundTimeline) -> None:
        self.rounds.append(timeline)

    def total_time(self) -> float:
        return sum(r.round_duration() for r in self.rounds)

    def phase_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for round_timeline in self.rounds:
            for phase, value in round_timeline.phase_totals().items():
                totals[phase] = totals.get(phase, 0.0) + value
        return totals
