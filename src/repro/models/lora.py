"""LoRA adapters for expert FFNs.

The paper's implementation section (§7) notes that Flux "supports the
integration of additional fine-tuning optimization techniques, such as Adapter
and LoRA".  This module provides that integration: :class:`LoRALinear` adds a
trainable low-rank update to a frozen linear layer, :class:`LoRAExpert` puts
one on each projection of an expert, :func:`apply_lora_to_experts` wraps a
model's experts in place, and :meth:`LoRAExpert.adapter_state` is what a
participant uploads instead of the full expert weights
(:func:`lora_parameter_savings` measures the saving).  A layer holding a
LoRA expert runs the MoE layer's per-expert loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..autograd import Linear, Module, Parameter, Tensor
from .experts import ExpertFFN
from .transformer import MoETransformer

ExpertKey = Tuple[int, int]


class LoRALinear(Module):
    """A frozen linear layer plus a trainable low-rank update.

    ``y = x W^T + (x A^T) B^T * (alpha / rank)`` where ``A`` is ``(rank, in)``
    and ``B`` is ``(out, rank)``.  ``B`` starts at zero so the wrapped layer is
    initially identical to the original.
    """

    def __init__(self, base: Linear, rank: int = 4, alpha: float = 8.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if rank < 1:
            raise ValueError("LoRA rank must be positive")
        rng = rng or np.random.default_rng()
        self.base = base
        self.rank = rank
        self.alpha = alpha
        self.scaling = alpha / rank
        for param in self.base.parameters():
            param.requires_grad = False
        self.lora_a = Parameter(rng.normal(0.0, 0.02, size=(rank, base.in_features)))
        self.lora_b = Parameter(np.zeros((base.out_features, rank)))

    def forward(self, x: Tensor) -> Tensor:
        frozen = self.base(x)
        update = (x @ self.lora_a.transpose()) @ self.lora_b.transpose()
        return frozen + update * self.scaling

    def adapter_state(self) -> Dict[str, np.ndarray]:
        return {"lora_a": self.lora_a.data.copy(), "lora_b": self.lora_b.data.copy()}


class LoRAExpert(Module):
    """An :class:`ExpertFFN` whose three projections carry LoRA adapters (SiLU, like it)."""

    def __init__(self, expert: ExpertFFN, rank: int = 4, alpha: float = 8.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.d_model = expert.d_model
        self.d_ff = expert.d_ff
        self.w_gate = LoRALinear(expert.w_gate, rank=rank, alpha=alpha, rng=rng)
        self.w_up = LoRALinear(expert.w_up, rank=rank, alpha=alpha, rng=rng)
        self.w_down = LoRALinear(expert.w_down, rank=rank, alpha=alpha, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.w_down(self.w_gate(x).silu() * self.w_up(x))

    def adapter_state(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name in ("w_gate", "w_up", "w_down"):
            for key, value in getattr(self, name).adapter_state().items():
                state[f"{name}.{key}"] = value
        return state


def apply_lora_to_experts(model: MoETransformer, expert_keys: Optional[Iterable[ExpertKey]] = None,
                          rank: int = 4, alpha: float = 8.0, seed: int = 0
                          ) -> Dict[ExpertKey, LoRAExpert]:
    """Wrap (a subset of) the model's experts with LoRA adapters, in place.

    Returns a mapping from expert key to the :class:`LoRAExpert` now installed
    in the model; only the adapter matrices are trainable afterwards.
    """
    rng = np.random.default_rng(seed)
    if expert_keys is None:
        expert_keys = list(model.iter_expert_ids())
    wrapped: Dict[ExpertKey, LoRAExpert] = {}
    for layer, expert in expert_keys:
        base = model.get_expert(layer, expert)
        lora_expert = LoRAExpert(base, rank=rank, alpha=alpha, rng=rng)
        model.blocks[layer].moe.experts[expert] = lora_expert
        wrapped[(layer, expert)] = lora_expert
    return wrapped


def lora_parameter_savings(model: MoETransformer, rank: int = 4) -> float:
    """Fraction of expert-update bytes saved by exchanging LoRA adapters only."""
    config = model.config
    full = config.expert_parameter_count()
    adapters = 3 * rank * (config.d_model + config.d_ff)
    if full == 0:
        return 0.0
    return 1.0 - adapters / full
