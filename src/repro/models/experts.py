"""Expert feed-forward networks used inside MoE layers."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..autograd import Linear, Module, Tensor
from ..autograd.init import AllocationOnlyGenerator

#: per-expert weight matrices in stacking order
EXPERT_WEIGHT_KEYS = ("w_gate", "w_up", "w_down")


def stack_expert_weights(experts: Sequence["ExpertFFN"]) -> Dict[str, np.ndarray]:
    """Stack each weight matrix of ``experts`` into one ``(num_experts, ...)`` array.

    The returned arrays are the canonical "stacked" representation used by the
    batched MoE dispatch path, clustering features and weighted merging —
    consumers read slices of these arrays instead of re-stacking flattened
    per-expert vectors on every call.
    """
    experts = list(experts)
    if not experts:
        raise ValueError("cannot stack an empty expert list")
    return {
        key: np.stack([getattr(expert, key).weight.data for expert in experts])
        for key in EXPERT_WEIGHT_KEYS
    }


def sparsify_expert(expert: "ExpertFFN", density: float,
                    bits: Optional[int] = None) -> np.ndarray:
    """Structured channel sparsification (+ optional fake low-bit quantization).

    Scores every ``d_ff`` channel by the squared L2 mass of its gate row, up
    row and down column, zeroes the lowest-scoring ``1 - density`` fraction
    across all three matrices **in place**, and — when ``bits`` is given —
    round-trips each matrix through symmetric per-row quantization
    (:func:`repro.quantization.quantize_array`).

    The zeroed channels are *exactly* dead afterwards: zero entries always
    quantize to code 0 (so quantization preserves them), a channel whose gate
    row and up row are both zero contributes exactly zero to the layer output,
    and every gradient it receives is exactly zero — which is what lets the
    ``dispatch="sparse"`` fast path skip those rows bit-identically, and keeps
    them dead under further SGD/Adam fine-tuning.

    Returns the (sorted) indices of the surviving channels.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    gate = expert.w_gate.weight.data
    up = expert.w_up.weight.data
    down = expert.w_down.weight.data
    d_ff = gate.shape[0]
    keep = max(1, int(np.ceil(density * d_ff)))
    if keep < d_ff:
        scores = (np.square(gate).sum(axis=1) + np.square(up).sum(axis=1)
                  + np.square(down).sum(axis=0))
        kept = np.sort(np.argpartition(scores, -keep)[-keep:])
        dead = np.setdiff1d(np.arange(d_ff), kept, assume_unique=True)
        gate[dead] = 0.0
        up[dead] = 0.0
        down[:, dead] = 0.0
    else:
        kept = np.arange(d_ff)
    if bits is not None:
        from ..quantization import quantize_array  # deferred: package cycle
        for matrix in (gate, up, down):
            matrix[...] = quantize_array(matrix, bits).dequantize()
    return kept


class ExpertFFN(Module):
    """A SwiGLU feed-forward expert (LLaMA / DeepSeek style).

    ``output = w_down( silu(w_gate(x)) * w_up(x) )``

    Each expert owns three weight matrices; the paper's observation that
    experts dominate the parameter count of MoE LLMs follows directly from
    replicating this block per expert.
    """

    def __init__(self, d_model: int, d_ff: int, activation: str = "silu",
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.d_model = d_model
        self.d_ff = d_ff
        self.activation = activation
        rng = rng or np.random.default_rng()
        self.w_gate = Linear(d_model, d_ff, bias=False, rng=rng)
        self.w_up = Linear(d_model, d_ff, bias=False, rng=rng)
        self.w_down = Linear(d_ff, d_model, bias=False, rng=rng)

    @classmethod
    def allocate(cls, d_model: int, d_ff: int, activation: str = "silu") -> "ExpertFFN":
        """An expert whose matrices are allocated but not drawn.

        For experts whose three matrices are all set right away (a copy about
        to ``load_state``, a merge): the values are uninitialised memory
        until then.  Shapes and dtype are those of ``cls(d_model, d_ff)``.
        """
        return cls(d_model, d_ff, activation=activation,
                   rng=AllocationOnlyGenerator(np.random.PCG64(0)))

    def _activate(self, x: Tensor) -> Tensor:
        if self.activation == "silu":
            return x.silu()
        if self.activation == "gelu":
            return x.gelu()
        if self.activation == "relu":
            return x.relu()
        raise ValueError(f"unknown activation: {self.activation}")

    def forward(self, x: Tensor) -> Tensor:
        return self.w_down(self._activate(self.w_gate(x)) * self.w_up(x))

    # ------------------------------------------------------------- utilities
    def weight_vector(self) -> np.ndarray:
        """Flatten all expert weights into one vector (used for clustering)."""
        return np.concatenate([
            self.w_gate.weight.data.reshape(-1),
            self.w_up.weight.data.reshape(-1),
            self.w_down.weight.data.reshape(-1),
        ])

    def load_weight_vector(self, vector: np.ndarray) -> None:
        """Inverse of :meth:`weight_vector`."""
        sizes = [self.w_gate.weight.data.size, self.w_up.weight.data.size, self.w_down.weight.data.size]
        if vector.size != sum(sizes):
            raise ValueError("weight vector size mismatch")
        gate, up, down = np.split(vector, np.cumsum(sizes)[:-1])
        self.w_gate.weight.data[...] = gate.reshape(self.w_gate.weight.data.shape)
        self.w_up.weight.data[...] = up.reshape(self.w_up.weight.data.shape)
        self.w_down.weight.data[...] = down.reshape(self.w_down.weight.data.shape)

    def state(self) -> Dict[str, np.ndarray]:
        """Copy of the expert's weights keyed by matrix name."""
        return {
            "w_gate": self.w_gate.weight.data.copy(),
            "w_up": self.w_up.weight.data.copy(),
            "w_down": self.w_down.weight.data.copy(),
        }

    def load_state(self, state: Dict[str, np.ndarray]) -> None:
        self.w_gate.weight.data[...] = state["w_gate"]
        self.w_up.weight.data[...] = state["w_up"]
        self.w_down.weight.data[...] = state["w_down"]

    def num_parameters(self, trainable_only: bool = False) -> int:
        return super().num_parameters(trainable_only=trainable_only)

    @staticmethod
    def merge(experts, weights, d_model: int, d_ff: int, activation: str = "silu",
              stacked: Optional[Dict[str, np.ndarray]] = None,
              out: Optional["ExpertFFN"] = None) -> "ExpertFFN":
        """An expert whose matrices are the weighted average of ``experts``.

        Parameters
        ----------
        experts:
            Sequence of :class:`ExpertFFN` to merge.
        weights:
            Non-negative merge coefficients, one per expert.  They are
            normalised internally so callers may pass raw importance scores
            (activation frequency × attention, per the paper's Eq. 2).
        stacked:
            Optional pre-stacked weight arrays (rows of
            :func:`stack_expert_weights` / slices of
            :meth:`~repro.models.moe_layer.MoELayer.stacked_expert_weights`)
            covering ``experts``; when given, the merge reads them directly
            instead of re-stacking per call.
        out:
            An expert of the members' shape and dtype to write the average
            into (and return) instead of allocating a new one.
        """
        experts = list(experts)
        weights = np.asarray(list(weights), dtype=np.float64)
        if len(experts) == 0:
            raise ValueError("cannot merge an empty expert set")
        if len(experts) != len(weights):
            raise ValueError("one merge weight per expert is required")
        if np.any(weights < 0):
            raise ValueError("merge weights must be non-negative")
        total = weights.sum()
        if total <= 0:
            weights = np.ones(len(experts)) / len(experts)
        else:
            weights = weights / total
        if stacked is None:
            stacked = stack_expert_weights(experts)
        from ..autograd import default_dtype
        source_dtype = stacked["w_gate"].dtype
        if out is not None:
            merged = out
        elif source_dtype.kind == "f":
            # inherit the members' dtype so merging never upcasts a float32
            # model's compacted experts back to float64
            with default_dtype(source_dtype):
                merged = ExpertFFN.allocate(d_model, d_ff, activation=activation)
        else:
            merged = ExpertFFN.allocate(d_model, d_ff, activation=activation)
        for key in EXPERT_WEIGHT_KEYS:
            if stacked[key].shape[0] != len(experts):
                raise ValueError("stacked weight arrays must cover exactly the merged experts")
            getattr(merged, key).weight.data[...] = np.tensordot(weights, stacked[key], axes=1)
        return merged
