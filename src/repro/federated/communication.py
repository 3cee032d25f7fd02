"""Communication accounting for parameter exchange.

Thin helpers translating "how many experts moved between a participant and the
server" into (via the participant's device profile) seconds.  The
orchestrator charges these times into each round's cost breakdown.

``bytes_per_param`` follows the wire precision of the method: full-precision
methods ship FP16/BF16 (2 bytes), quantized methods ship ``bits / 8`` bytes per
parameter (:func:`bytes_per_param_for_bits`), so e.g. FMQ's INT4 round trips
charge a quarter of the FP16 transfer time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..systems import CostModel

#: wire bytes per parameter for full-precision (FP16/BF16) exchange
FULL_PRECISION_BYTES_PER_PARAM = 2.0


def bytes_per_param_for_bits(bits: int) -> float:
    """Wire bytes per parameter when experts are quantized to ``bits`` bits."""
    if bits < 1:
        raise ValueError("bits must be positive")
    return bits / 8.0


@dataclass
class ExchangePlan:
    """Experts a participant downloads and uploads in one round."""

    download_experts: int
    upload_experts: int
    bytes_per_param: float = FULL_PRECISION_BYTES_PER_PARAM

    def communication_seconds(self, cost_model: CostModel) -> float:
        """Total transfer time for this exchange on the participant's link."""
        down = cost_model.download_time(self.download_experts, bytes_per_param=self.bytes_per_param)
        up = cost_model.upload_time(self.upload_experts, bytes_per_param=self.bytes_per_param)
        return down + up
