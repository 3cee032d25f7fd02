"""Memory accounting for (partial) MoE models on constrained devices.

Given a full-scale :class:`~repro.models.config.ArchitectureDescriptor` and a
participant's :class:`~repro.systems.device.DeviceProfile`, this module derives
the expert budgets the paper denotes :math:`B_i` (experts loadable into GPU
memory) and :math:`B^{tune}_i` (experts that can be fine-tuned within the
round-time constraint).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.config import ArchitectureDescriptor
from .device import DeviceProfile

#: fraction of an MoE LLM's parameters that live in routed experts; the paper
#: cites "more than two-thirds", DeepSeek/LLaMA-MoE are closer to 0.75-0.9.
DEFAULT_EXPERT_FRACTION = 0.8

#: multiplier covering optimizer state + activations for a trainable expert
#: (Adam keeps two extra copies; activations roughly one more).
TRAINING_OVERHEAD = 4.0


@dataclass
class MemoryModel:
    """Byte-level memory model of one full-scale MoE architecture."""

    descriptor: ArchitectureDescriptor
    expert_fraction: float = DEFAULT_EXPERT_FRACTION
    bytes_per_param: int = 2

    @property
    def total_bytes(self) -> float:
        return self.descriptor.total_params * self.bytes_per_param

    @property
    def expert_bytes_total(self) -> float:
        return self.total_bytes * self.expert_fraction

    @property
    def dense_bytes(self) -> float:
        """Non-expert (attention, embeddings, norms, gates) bytes."""
        return self.total_bytes - self.expert_bytes_total

    @property
    def num_experts_total(self) -> int:
        return self.descriptor.n_layers * self.descriptor.experts_per_layer

    @property
    def bytes_per_expert(self) -> float:
        return self.expert_bytes_total / self.num_experts_total

    @property
    def params_per_expert(self) -> float:
        return self.descriptor.total_params * self.expert_fraction / self.num_experts_total

    # ------------------------------------------------------------ participant
    def max_loadable_experts(self, device: DeviceProfile,
                             reserve_fraction: float = 0.1) -> int:
        """The paper's :math:`B_i`: routed experts that fit in GPU memory.

        Dense components are always resident; a ``reserve_fraction`` of GPU
        memory is kept for activations and workspace.
        """
        available = device.gpu_memory_bytes * (1.0 - reserve_fraction) - self.dense_bytes
        if available <= 0:
            return 0
        return int(min(available // self.bytes_per_expert, self.num_experts_total))

    def max_tuning_experts(self, device: DeviceProfile, round_time_budget_s: float,
                           tokens_per_round: float, flops_per_param: float = 6.0,
                           reserve_fraction: float = 0.1) -> int:
        """The paper's :math:`B^{tune}_i`: experts trainable within the round budget.

        Two constraints apply: (1) memory — a trainable expert costs
        ``TRAINING_OVERHEAD`` times its parameter bytes; (2) compute — training
        ``k`` experts on ``tokens_per_round`` tokens must fit into the round
        time budget at the device's effective throughput.
        """
        if round_time_budget_s <= 0 or tokens_per_round <= 0:
            raise ValueError("round budget and token count must be positive")
        available = device.gpu_memory_bytes * (1.0 - reserve_fraction) - self.dense_bytes
        memory_limit = int(max(available, 0) // (self.bytes_per_expert * TRAINING_OVERHEAD))
        flops_per_expert = flops_per_param * self.params_per_expert * tokens_per_round
        compute_limit = int((round_time_budget_s * device.effective_flops) // max(flops_per_expert, 1.0))
        limit = min(memory_limit, compute_limit, self.num_experts_total)
        return max(limit, 0)
