"""MoE transformer model substrate (stand-in for LLaMA-MoE / DeepSeek-MoE)."""

from .attention import MultiHeadSelfAttention, causal_mask
from .checkpoint import load_checkpoint, load_model, save_checkpoint
from .config import ArchitectureDescriptor, MoEModelConfig
from .customize import customized_moe, resolve_exps_config
from .experts import ExpertFFN
from .gating import GatingNetwork, GroupedRouting, RoutingRecord
from .lora import LoRAExpert, LoRALinear, apply_lora_to_experts, lora_parameter_savings
from .moe_layer import MoELayer
from .presets import (
    ARCHITECTURE_DESCRIPTORS,
    PRESETS,
    deepseek_moe_mini,
    get_preset,
    llama_moe_mini,
    table1_rows,
    tiny_moe,
)
from .rerouting import ExpertRemap
from .transformer import MoETransformer, MoETransformerBlock

__all__ = [
    "MoEModelConfig",
    "ArchitectureDescriptor",
    "MultiHeadSelfAttention",
    "causal_mask",
    "GatingNetwork",
    "RoutingRecord",
    "GroupedRouting",
    "ExpertFFN",
    "LoRALinear",
    "LoRAExpert",
    "apply_lora_to_experts",
    "lora_parameter_savings",
    "MoELayer",
    "ExpertRemap",
    "MoETransformer",
    "MoETransformerBlock",
    "customized_moe",
    "resolve_exps_config",
    "save_checkpoint",
    "load_checkpoint",
    "load_model",
    "llama_moe_mini",
    "deepseek_moe_mini",
    "tiny_moe",
    "get_preset",
    "PRESETS",
    "ARCHITECTURE_DESCRIPTORS",
    "table1_rows",
]
