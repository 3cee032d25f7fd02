"""Model presets: scaled-down trainable configs and full-scale descriptors.

Two kinds of objects live here:

* ``*_mini`` configurations — small MoE transformers that preserve the
  architectural properties Flux exploits (many experts per layer, top-k
  routing, expert-dominated parameter counts, optional shared experts) while
  being trainable on CPU within seconds.
* :data:`ARCHITECTURE_DESCRIPTORS` — analytical descriptions of the real
  LLaMA-MoE / DeepSeek-MoE / Mixtral / Qwen2-MoE models used to regenerate the
  paper's Table 1 and to parameterise the device cost model (per-expert memory
  and FLOPs at full scale).
"""

from __future__ import annotations

from typing import Dict, List

from .config import ArchitectureDescriptor, MoEModelConfig

#: Full-scale MoE LLMs listed in the paper's Table 1.  Parameter counts and
#: on-disk sizes reproduce the table rows (sizes assume 2-byte parameters).
ARCHITECTURE_DESCRIPTORS: Dict[str, ArchitectureDescriptor] = {
    "llama-moe": ArchitectureDescriptor("LLaMA-MoE", n_layers=32, experts_per_layer=16,
                                        total_params=6.7e9),
    "deepseek-moe": ArchitectureDescriptor("Deepseek-MoE", n_layers=28, experts_per_layer=64,
                                           total_params=16.4e9),
    "deepseek-v2-lite": ArchitectureDescriptor("Deepseek-v2-lite", n_layers=27, experts_per_layer=64,
                                               total_params=15.7e9),
    "mixtral-8x7b": ArchitectureDescriptor("Mixtral-8x7B", n_layers=64, experts_per_layer=8,
                                           total_params=46.7e9),
    "qwen2-moe": ArchitectureDescriptor("Qwen2-MoE", n_layers=28, experts_per_layer=64,
                                        total_params=57.4e9),
}


def llama_moe_mini(vocab_size: int = 256, seed: int = 0, n_layers: int = 4,
                   num_experts: int = 8, d_model: int = 32,
                   dtype: str = "float32") -> MoEModelConfig:
    """Scaled-down LLaMA-MoE: uniform experts, top-2 routing, no shared experts.

    The real LLaMA-MoE uses 32 layers x 16 experts with top-4 routing; the mini
    version keeps the expert-heavy parameter balance and skewed routing while
    staying CPU-trainable.
    """
    return MoEModelConfig(
        name="llama-moe-mini",
        vocab_size=vocab_size,
        d_model=d_model,
        n_layers=n_layers,
        n_heads=4,
        d_ff=d_model * 2,
        num_experts=num_experts,
        top_k=2,
        num_shared_experts=0,
        max_seq_len=64,
        tie_embeddings=True,
        seed=seed,
        dtype=dtype,
    )


def deepseek_moe_mini(vocab_size: int = 256, seed: int = 0, n_layers: int = 4,
                      num_experts: int = 16, d_model: int = 32,
                      dtype: str = "float32") -> MoEModelConfig:
    """Scaled-down DeepSeek-MoE: fine-grained experts plus one shared expert.

    DeepSeek-MoE's signature is many small experts (64 per layer) plus shared
    experts every token visits; the mini version keeps both properties.
    """
    return MoEModelConfig(
        name="deepseek-moe-mini",
        vocab_size=vocab_size,
        d_model=d_model,
        n_layers=n_layers,
        n_heads=4,
        d_ff=d_model,
        num_experts=num_experts,
        top_k=2,
        num_shared_experts=1,
        max_seq_len=64,
        tie_embeddings=True,
        seed=seed,
        dtype=dtype,
    )


def tiny_moe(vocab_size: int = 64, seed: int = 0,
             dtype: str = "float32") -> MoEModelConfig:
    """Very small config used by unit tests and property-based tests."""
    return MoEModelConfig(
        name="tiny-moe",
        vocab_size=vocab_size,
        d_model=16,
        n_layers=2,
        n_heads=2,
        d_ff=16,
        num_experts=4,
        top_k=2,
        max_seq_len=32,
        seed=seed,
        dtype=dtype,
    )


PRESETS = {
    "llama-moe-mini": llama_moe_mini,
    "deepseek-moe-mini": deepseek_moe_mini,
    "tiny-moe": tiny_moe,
}


def get_preset(name: str, **kwargs) -> MoEModelConfig:
    """Look up a preset configuration by name."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset '{name}'; available: {sorted(PRESETS)}")
    return PRESETS[name](**kwargs)


def table1_rows() -> List[dict]:
    """Rows of the paper's Table 1 (model / layers / experts / params / size)."""
    return [descriptor.row() for descriptor in ARCHITECTURE_DESCRIPTORS.values()]
