"""Top-k gating network and routing bookkeeping for MoE layers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from ..autograd import Linear, Module, Tensor, is_grad_enabled


@dataclass
class RoutingRecord:
    """Routing statistics captured during a single forward pass of one MoE layer.

    Attributes
    ----------
    num_experts:
        Number of *original* expert ids the gate routes over (routing is always
        expressed in original-expert coordinates even on a compact model).
    token_counts:
        How many token-slot assignments each original expert received.
    total_tokens:
        Number of (non-padding) tokens processed in the pass.
    attention_sums:
        Sum of attention-received scores of the tokens routed to each expert;
        divided by ``token_counts`` this yields the per-expert average
        attention used by importance-based merging.
    gate_weight_sums:
        Sum of gate probabilities assigned to each expert.
    sample_ids:
        Per-expert set of sample identifiers whose tokens touched the expert;
        this realises the paper's :math:`D^e_i` (the data relevant to expert e).
    """

    num_experts: int
    token_counts: np.ndarray
    total_tokens: int
    attention_sums: np.ndarray
    gate_weight_sums: np.ndarray
    sample_ids: List[Set[int]]

    @classmethod
    def empty(cls, num_experts: int) -> "RoutingRecord":
        return cls(
            num_experts=num_experts,
            token_counts=np.zeros(num_experts, dtype=np.int64),
            total_tokens=0,
            attention_sums=np.zeros(num_experts, dtype=np.float64),
            gate_weight_sums=np.zeros(num_experts, dtype=np.float64),
            sample_ids=[set() for _ in range(num_experts)],
        )

    def activation_frequency(self) -> np.ndarray:
        """Fraction of token assignments that each expert received."""
        total = self.token_counts.sum()
        if total == 0:
            return np.zeros(self.num_experts)
        return self.token_counts / total

    def average_attention(self) -> np.ndarray:
        """Mean attention-received score of the tokens routed to each expert."""
        counts = np.maximum(self.token_counts, 1)
        return self.attention_sums / counts


class GroupedRouting:
    """:class:`RoutingRecord` statistics of several groups of batch rows, kept apart.

    One pass may carry several participants' sequences.  ``rows`` names the
    group of each batch row of the pass being recorded; every statistic gains
    a leading group axis, and ``sample_ids`` holds ``num_groups *
    num_experts`` sets, group-major.  :meth:`record` is one group's record.
    """

    def __init__(self, num_groups: int, num_experts: int) -> None:
        self.num_groups = num_groups
        self.num_experts = num_experts
        self.rows: Optional[np.ndarray] = None
        self.token_counts = np.zeros((num_groups, num_experts), dtype=np.int64)
        self.total_tokens = np.zeros(num_groups, dtype=np.int64)
        self.attention_sums = np.zeros((num_groups, num_experts), dtype=np.float64)
        self.gate_weight_sums = np.zeros((num_groups, num_experts), dtype=np.float64)
        self.sample_ids: List[Set[int]] = [set() for _ in range(num_groups * num_experts)]

    def record(self, group: int) -> RoutingRecord:
        """Group ``group``'s statistics as a :class:`RoutingRecord` (views, not copies)."""
        experts = self.num_experts
        return RoutingRecord(
            num_experts=experts,
            token_counts=self.token_counts[group],
            total_tokens=int(self.total_tokens[group]),
            attention_sums=self.attention_sums[group],
            gate_weight_sums=self.gate_weight_sums[group],
            sample_ids=self.sample_ids[group * experts:(group + 1) * experts],
        )


class GatingNetwork(Module):
    """Linear router producing top-k expert assignments for each token.

    ``num_experts`` is the number of *original* experts; when a compact model
    merges experts the gate still scores the original ids and an external
    remap (see :mod:`repro.models.rerouting`) translates them to local slots.
    """

    def __init__(self, d_model: int, num_experts: int, top_k: int,
                 noise_std: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if top_k > num_experts:
            raise ValueError("top_k cannot exceed num_experts")
        self.d_model = d_model
        self.num_experts = num_experts
        self.top_k = top_k
        self.noise_std = noise_std
        self._rng = rng or np.random.default_rng()
        self.proj = Linear(d_model, num_experts, bias=False, rng=self._rng)

    def forward(self, x: Tensor, with_probs: bool = True):
        """Route a batch of token embeddings.

        Parameters
        ----------
        x:
            ``(num_tokens, d_model)`` flattened token representations.
        with_probs:
            When ``False`` the full softmax distribution is skipped (it is a
            bookkeeping signal the MoE layer itself never consumes) and the
            third return value is ``None``.

        Returns
        -------
        tuple ``(top_idx, top_weights, probs)`` where ``top_idx`` is an integer
        array ``(num_tokens, top_k)`` of original expert ids, ``top_weights`` a
        :class:`Tensor` of normalised gate weights with gradients attached, and
        ``probs`` the full softmax distribution (as data, for bookkeeping).
        """
        logits = self.proj(x)
        if self.noise_std > 0 and self.training:
            noise = self._rng.normal(0.0, self.noise_std, size=logits.shape)
            logits = logits + Tensor(noise.astype(logits.data.dtype, copy=False))
        logits_data = logits.data
        num_tokens = logits_data.shape[0]
        # softmax is strictly monotone per row, so ranking logits ranks probs
        if self.top_k == 1:
            top_idx = np.argmax(logits_data, axis=-1)[:, None]
        elif self.top_k == 2:
            # two argmax passes beat a full row sort for the common top-2 case
            rows = np.arange(num_tokens)
            first = np.argmax(logits_data, axis=-1)
            masked = logits_data.copy()
            masked[rows, first] = -np.inf
            second = np.argmax(masked, axis=-1)
            top_idx = np.stack([first, second], axis=1)
        else:
            top_idx = np.argsort(-logits_data, axis=-1)[:, : self.top_k]
        if with_probs:
            # Full distribution is a profiling signal only — graph-free.
            shifted = logits_data - logits_data.max(axis=-1, keepdims=True)
            exp = np.exp(shifted)
            probs_data = exp / exp.sum(axis=-1, keepdims=True)
        else:
            probs_data = None
        # Renormalised top-k probabilities equal a softmax over the selected
        # logits (the partition function cancels), so the differentiable part
        # of the gate is a single fused (tokens, top_k) softmax node whose
        # backward scatter-assigns straight into the logits gradient ((token,
        # expert) pairs are unique — no scatter-add needed).
        flat_index = (np.arange(num_tokens)[:, None] * self.num_experts + top_idx).reshape(-1)
        top_logits = logits_data.reshape(-1)[flat_index].reshape(num_tokens, self.top_k)
        shifted_top = top_logits - top_logits.max(axis=-1, keepdims=True)
        np.exp(shifted_top, out=shifted_top)
        weights_data = shifted_top / shifted_top.sum(axis=-1, keepdims=True)
        requires = is_grad_enabled() and logits.requires_grad
        top_weights = Tensor(weights_data, requires_grad=requires,
                             _prev=(logits,) if requires else ())

        def _backward() -> None:
            grad_out = top_weights.grad
            dot = (grad_out * weights_data).sum(axis=-1, keepdims=True)
            d_top = weights_data * (grad_out - dot)
            grad = np.zeros_like(logits.data)
            grad.reshape(-1)[flat_index] = d_top.reshape(-1)
            logits._accumulate(grad, owned=True)

        top_weights._backward = _backward
        return top_idx, top_weights, probs_data
