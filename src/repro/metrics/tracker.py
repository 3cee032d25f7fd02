"""Time-to-accuracy queries over a federated run's rounds."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence


@dataclass
class PerformanceTracker:
    """Answers time-to-accuracy queries over a run's rounds.

    The tracker is the substrate behind the paper's primary metric: the
    elapsed (simulated) time needed to reach a dataset-specific target value.
    It keeps no record of its own: ``rounds`` is the run's
    :class:`~repro.federated.RoundResult` list, read as it stands.
    """

    target: float
    rounds: Sequence = field(default_factory=list)

    # ------------------------------------------------------------- summaries
    def best_metric(self) -> float:
        return max((r.metric_value for r in self.rounds), default=0.0)

    def final_metric(self) -> float:
        return self.rounds[-1].metric_value if self.rounds else 0.0

    def time_to_target(self, target: Optional[float] = None) -> Optional[float]:
        """Simulated time at which the metric first reached ``target``.

        Returns ``None`` if the target was never reached.
        """
        goal = self.target if target is None else target
        for r in self.rounds:
            if r.metric_value >= goal:
                return r.simulated_time
        return None

    def times(self) -> List[float]:
        return [r.simulated_time for r in self.rounds]

    def metric_values(self) -> List[float]:
        return [r.metric_value for r in self.rounds]

    def as_series(self) -> List[dict]:
        """The rounds rendered as plain dicts (for benchmark reports)."""
        return [
            {
                "round": r.round_index,
                "time_s": round(r.simulated_time, 3),
                "metric": round(r.metric_value, 4),
                "relative_accuracy": round(
                    r.metric_value / self.target if self.target > 0 else 0.0, 4),
                "train_loss": round(r.train_loss, 4),
                "comm_bytes": round(r.wire_bytes, 1),
                "wire_seconds": round(r.wire_seconds, 4),
                "payloads_lost": r.payloads_lost,
                "payloads_corrupted": r.payloads_corrupted,
                "edge_bytes": round(r.edge_bytes, 1),
            }
            for r in self.rounds
        ]
