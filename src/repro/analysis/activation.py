"""Expert-activation profiling and analysis.

:func:`profile_activation` runs forward-only passes over a set of batches and
collects, for every MoE layer, the per-expert activation frequency, the set of
samples routed to each expert, and the mean attention score of the tokens each
expert processed.  This is the measurement underlying the paper's Figure 2
(activation skew across layers), Figure 5 (quantized-profiling error) and
Figure 6 (activation drift across rounds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set

import numpy as np

from ..autograd import no_grad
from ..data import Batch
from ..models import MoETransformer


@dataclass
class ActivationProfile:
    """Per-layer activation statistics of one model over one dataset slice."""

    frequencies: List[np.ndarray]              # per layer: (num_experts,)
    attention_scores: List[np.ndarray]         # per layer: mean attention per expert
    sample_sets: List[List[Set[int]]]          # per layer, per expert: sample ids (D_i^e)
    token_counts: List[np.ndarray]             # per layer: raw token counts
    total_tokens: int

    @property
    def num_layers(self) -> int:
        return len(self.frequencies)

    def layer_variance(self) -> np.ndarray:
        """Variance of activation frequencies within each layer (Figure 2, right)."""
        return np.asarray([float(np.var(freq)) for freq in self.frequencies])

    def frequency_matrix(self) -> np.ndarray:
        """Stack per-layer frequencies into a ``(layers, max_experts)`` matrix."""
        max_experts = max(len(freq) for freq in self.frequencies)
        matrix = np.zeros((self.num_layers, max_experts))
        for layer, freq in enumerate(self.frequencies):
            matrix[layer, : len(freq)] = freq
        return matrix

    def samples_for_expert(self, layer: int, expert: int) -> Set[int]:
        """The paper's :math:`D^e_i`: samples whose tokens reached this expert."""
        return set(self.sample_sets[layer][expert])

    def flat_frequencies(self) -> np.ndarray:
        """All per-expert frequencies concatenated across layers."""
        return np.concatenate(self.frequencies) if self.frequencies else np.zeros(0)


def profile_activation(model: MoETransformer, batches: Sequence[Batch]) -> ActivationProfile:
    """Measure expert activation of ``model`` over ``batches`` (forward only).

    Routing statistics are all a profile keeps, so each pass stops at the last
    layer's router: that layer's experts, its residual, the final norm and the
    LM head are never computed.  The model leaves in the train/eval mode it
    came in.
    """
    if not batches:
        raise ValueError("profiling requires at least one batch")
    model.set_routing_accumulation(True)
    was_training = model.training
    model.eval()
    last = model.blocks[-1]
    try:
        with no_grad():
            for batch in batches:
                x = model.run_blocks(model.embed(batch.input_ids), stop=model.num_layers - 1,
                                     attention_mask=batch.attention_mask,
                                     sample_ids=batch.sample_ids)
                x = last.attention_half(x, attention_mask=batch.attention_mask)
                last.moe.route(last.moe_norm(x), token_attention=last.attn.last_token_attention,
                               sample_ids=batch.sample_ids, token_mask=batch.attention_mask)
    finally:
        model.train(was_training)
    records = model.routing_records(accumulated=True)
    model.set_routing_accumulation(False)

    frequencies = [record.activation_frequency() for record in records]
    attention = [record.average_attention() for record in records]
    sample_sets = [[set(s) for s in record.sample_ids] for record in records]
    token_counts = [record.token_counts.copy() for record in records]
    total_tokens = int(records[0].total_tokens) if records else 0
    return ActivationProfile(
        frequencies=frequencies,
        attention_scores=attention,
        sample_sets=sample_sets,
        token_counts=token_counts,
        total_tokens=total_tokens,
    )


def estimation_error(reference: ActivationProfile, estimate: ActivationProfile,
                     epsilon: float = 1e-3) -> float:
    """Mean relative error (%) between two activation-frequency profiles.

    Used to quantify how closely quantized-model profiling tracks the
    full-precision model (Figure 5) and the cost of stale profiling
    (Figure 14).
    """
    if reference.num_layers != estimate.num_layers:
        raise ValueError("profiles cover different numbers of layers")
    errors: List[float] = []
    for ref_freq, est_freq in zip(reference.frequencies, estimate.frequencies):
        if len(ref_freq) != len(est_freq):
            raise ValueError("profiles cover different numbers of experts")
        denom = np.maximum(ref_freq, epsilon)
        errors.extend(np.abs(ref_freq - est_freq) / denom)
    return float(np.mean(errors) * 100.0)


def frequency_drift(previous: ActivationProfile, current: ActivationProfile) -> np.ndarray:
    """Absolute per-expert activation-frequency change between two rounds (pp).

    The CDF of these values reproduces Figure 6(b); small drift is what makes
    stale profiling viable.
    """
    drifts: List[np.ndarray] = []
    for prev_freq, curr_freq in zip(previous.frequencies, current.frequencies):
        drifts.append(np.abs(curr_freq - prev_freq) * 100.0)
    return np.concatenate(drifts) if drifts else np.zeros(0)
