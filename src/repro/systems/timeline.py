"""Simulated wall-clock for federated rounds."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

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

    Per-phase totals are kept for the overhead-breakdown experiment
    (Figure 20).  The round's duration is
    :attr:`~repro.federated.RoundResult.round_duration`, which the scheduler
    sets; :meth:`round_duration` is the synchronous rule it uses.
    """

    round_index: int
    participant_times: Dict[int, float] = field(default_factory=dict)
    participant_breakdowns: Dict[int, RoundCostBreakdown] = field(default_factory=dict)
    server_time: float = 0.0

    def record_participant(self, participant_id: int, breakdown: RoundCostBreakdown,
                           overlap_profiling: bool = False) -> None:
        self.participant_breakdowns[participant_id] = breakdown
        self.participant_times[participant_id] = breakdown.total(overlap_profiling=overlap_profiling)

    def round_duration(self) -> float:
        """Synchronous FedAvg's duration: the slowest participant, then the server aggregates."""
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
