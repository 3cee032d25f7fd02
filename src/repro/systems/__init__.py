"""Device, memory and cost models: the simulated-hardware substrate."""

from .cost_model import (
    FORWARD_FLOPS_PER_PARAM,
    TRAIN_FLOPS_PER_PARAM,
    CostModel,
    RoundCostBreakdown,
    upload_costs,
)
from .device import (
    CONSUMER_GPU,
    DEVICE_PRESETS,
    L20_SERVER,
    SMALL_GPU,
    DeviceProfile,
    heterogeneous_fleet,
)
from .memory import (
    DEFAULT_EXPERT_FRACTION,
    TRAINING_OVERHEAD,
    MemoryModel,
)
from .timeline import RoundTimeline, SimulatedClock

__all__ = [
    "DeviceProfile",
    "CONSUMER_GPU",
    "SMALL_GPU",
    "L20_SERVER",
    "DEVICE_PRESETS",
    "heterogeneous_fleet",
    "MemoryModel",
    "DEFAULT_EXPERT_FRACTION",
    "TRAINING_OVERHEAD",
    "CostModel",
    "RoundCostBreakdown",
    "FORWARD_FLOPS_PER_PARAM",
    "TRAIN_FLOPS_PER_PARAM",
    "upload_costs",
    "SimulatedClock",
    "RoundTimeline",
]
