"""Model configuration for the MoE transformer substrate."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Union

from .experts import ACTIVATIONS


@dataclass
class MoEModelConfig:
    """Architecture hyper-parameters for a decoder-only MoE transformer.

    The configuration intentionally mirrors the knobs of LLaMA-MoE and
    DeepSeek-MoE that matter for Flux: the number of MoE layers, the number of
    experts per layer (which may differ across layers, matching Flux's
    ``customized_moe`` API), top-k routing, and optional shared experts
    (DeepSeek-style experts that every token passes through).
    """

    name: str = "moe-transformer"
    vocab_size: int = 256
    d_model: int = 32
    n_layers: int = 4
    n_heads: int = 4
    d_ff: int = 64
    num_experts: Union[int, Sequence[int]] = 8
    top_k: int = 2
    num_shared_experts: int = 0
    max_seq_len: int = 64
    dropout: float = 0.0
    rms_norm_eps: float = 1e-6
    tie_embeddings: bool = True
    activation: str = "silu"
    gate_noise_std: float = 0.0
    seed: int = 0
    #: parameter/compute dtype of the built model: "float64" (numerics default)
    #: or "float32" (training/benchmark fast path, ~2x GEMM throughput)
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        experts = self.experts_per_layer()
        if any(e < 1 for e in experts):
            raise ValueError("every layer needs at least one expert")
        if any(self.top_k > e for e in experts):
            raise ValueError("top_k cannot exceed the number of experts in any layer")

    def experts_per_layer(self) -> List[int]:
        """Number of routed experts in each MoE layer."""
        if isinstance(self.num_experts, int):
            return [self.num_experts] * self.n_layers
        experts = list(self.num_experts)
        if len(experts) != self.n_layers:
            raise ValueError(
                f"num_experts list has {len(experts)} entries but model has {self.n_layers} layers"
            )
        return experts

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def total_experts(self) -> int:
        """Total number of routed experts across all layers."""
        return sum(self.experts_per_layer())

    def with_experts(self, exps_config: Union[int, Sequence[int]]) -> "MoEModelConfig":
        """Return a copy of this config with a different per-layer expert count."""
        return replace(self, num_experts=exps_config)

    def expert_parameter_count(self) -> int:
        """Number of parameters in a single expert FFN (SwiGLU: 3 matrices)."""
        return 3 * self.d_model * self.d_ff

    def dense_parameter_count(self) -> int:
        """Parameters outside the routed experts (embeddings, attention, norms, gates, shared experts)."""
        attn = self.n_layers * 4 * self.d_model * self.d_model
        norms = self.n_layers * 2 * self.d_model + self.d_model
        gates = sum(self.d_model * e for e in self.experts_per_layer())
        shared = self.n_layers * self.num_shared_experts * self.expert_parameter_count()
        embeddings = self.vocab_size * self.d_model
        if not self.tie_embeddings:
            embeddings *= 2
        return attn + norms + gates + shared + embeddings

    def total_parameter_count(self) -> int:
        """Analytical total parameter count of the model."""
        return self.dense_parameter_count() + self.total_experts * self.expert_parameter_count()

    def expert_fraction(self) -> float:
        """Fraction of all parameters held by routed experts.

        The paper reports that experts account for more than two-thirds of an
        MoE LLM; this property lets tests assert the substrate preserves that
        structural property.
        """
        total = self.total_parameter_count()
        if total == 0:
            return 0.0
        return self.total_experts * self.expert_parameter_count() / total


@dataclass
class ArchitectureDescriptor:
    """Analytical description of a full-scale MoE LLM (for Table 1).

    These descriptors reproduce the #layers/#experts/#parameters/size rows of
    the paper's Table 1 without instantiating the (multi-billion-parameter)
    models.
    """

    name: str
    n_layers: int
    experts_per_layer: int
    total_params: float  # absolute number of parameters
    bytes_per_param: int = 2  # FP16/BF16 storage, matching the paper's sizes

    @property
    def params_billions(self) -> float:
        return self.total_params / 1e9

    @property
    def size_gb(self) -> float:
        # Decimal gigabytes, matching how the paper's Table 1 reports
        # checkpoint sizes (params x 2 bytes / 1e9).
        return self.total_params * self.bytes_per_param / 1e9

    def row(self) -> dict:
        """Render the Table 1 row for this architecture."""
        return {
            "model": self.name,
            "layers": self.n_layers,
            "experts": self.experts_per_layer,
            "params_B": round(self.params_billions, 1),
            "size_GB": round(self.size_gb, 2),
        }
