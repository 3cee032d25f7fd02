"""Time-to-accuracy tracking for federated fine-tuning runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class RoundMetric:
    """Metric snapshot recorded at the end of one federated round."""

    round_index: int
    simulated_time: float   # seconds of simulated wall-clock
    metric_value: float     # ROUGE-L or accuracy
    relative_accuracy: float
    train_loss: Optional[float] = None
    #: measured wire payload bytes this round (0 under the analytic transport)
    comm_bytes: float = 0.0
    #: measured uplink airtime this round (0 under the analytic transport)
    wire_seconds: float = 0.0
    #: payloads the channel faults lost / corrupted this round
    payloads_lost: int = 0
    payloads_corrupted: int = 0
    #: measured aggregator-tier backhaul bytes (0 on a flat run)
    edge_bytes: float = 0.0


@dataclass
class PerformanceTracker:
    """Records per-round metrics and answers time-to-accuracy queries.

    The tracker is the substrate behind the paper's primary metric: the
    elapsed (simulated) time needed to reach a dataset-specific target value.
    """

    target: float
    history: List[RoundMetric] = field(default_factory=list)

    def record(self, round_index: int, simulated_time: float, metric_value: float,
               train_loss: Optional[float] = None, comm_bytes: float = 0.0,
               wire_seconds: float = 0.0, payloads_lost: int = 0,
               payloads_corrupted: int = 0, edge_bytes: float = 0.0) -> RoundMetric:
        """Append one round's result.

        The wire-level fields (``wire_seconds``, ``payloads_lost``,
        ``payloads_corrupted``, ``edge_bytes``) default to zero so historical
        positional call sites keep working.
        """
        entry = RoundMetric(
            round_index=round_index,
            simulated_time=simulated_time,
            metric_value=metric_value,
            relative_accuracy=metric_value / self.target if self.target > 0 else 0.0,
            train_loss=train_loss,
            comm_bytes=comm_bytes,
            wire_seconds=wire_seconds,
            payloads_lost=int(payloads_lost),
            payloads_corrupted=int(payloads_corrupted),
            edge_bytes=edge_bytes,
        )
        self.history.append(entry)
        return entry

    # ------------------------------------------------------------- summaries
    def best_metric(self) -> float:
        return max((m.metric_value for m in self.history), default=0.0)

    def final_metric(self) -> float:
        return self.history[-1].metric_value if self.history else 0.0

    def time_to_target(self, target: Optional[float] = None) -> Optional[float]:
        """Simulated time at which the metric first reached ``target``.

        Returns ``None`` if the target was never reached.
        """
        goal = self.target if target is None else target
        for entry in self.history:
            if entry.metric_value >= goal:
                return entry.simulated_time
        return None

    def times(self) -> List[float]:
        return [m.simulated_time for m in self.history]

    def metric_values(self) -> List[float]:
        return [m.metric_value for m in self.history]

    def as_series(self) -> List[dict]:
        """History rendered as plain dicts (for benchmark reports)."""
        return [
            {
                "round": m.round_index,
                "time_s": round(m.simulated_time, 3),
                "metric": round(m.metric_value, 4),
                "relative_accuracy": round(m.relative_accuracy, 4),
                "train_loss": None if m.train_loss is None else round(m.train_loss, 4),
                "comm_bytes": round(m.comm_bytes, 1),
                "wire_seconds": round(m.wire_seconds, 4),
                "payloads_lost": m.payloads_lost,
                "payloads_corrupted": m.payloads_corrupted,
                "edge_bytes": round(m.edge_bytes, 1),
            }
            for m in self.history
        ]
