"""Expert-activation profiling and analysis.

:func:`profile_activation` runs forward-only passes over a set of batches and
collects, for every MoE layer, the per-expert activation frequency, the set of
samples routed to each expert, and the mean attention score of the tokens each
expert processed.  This is the measurement underlying the paper's Figure 2
(activation skew across layers), Figure 5 (quantized-profiling error) and
Figure 6 (activation drift across rounds).  :func:`profile_round` measures
several participants' batches at once — every participant of a Flux round
profiles the same quantized model — and splits the statistics per
participant; ``profile_activation`` is its one-participant case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Set, Tuple

import numpy as np

from ..autograd import no_grad
from ..data import Batch
from ..models import GroupedRouting, MoETransformer, RoutingRecord

#: most sequences one profiling pass carries.  Passes are length-sorted, so a
#: pass pads little; fewer, longer passes pay fewer per-pass Python calls, but
#: past this size the padded attention grows faster than the calls shrink.
PASS_SEQUENCES = 64


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

    def samples_for_expert(self, layer: int, expert: int) -> Set[int]:
        """The paper's :math:`D^e_i`: samples whose tokens reached this expert."""
        return set(self.sample_sets[layer][expert])


def profile_activation(model: MoETransformer, batches: Sequence[Batch]) -> ActivationProfile:
    """Measure expert activation of ``model`` over ``batches`` (forward only).

    The one-participant case of :func:`profile_round`.
    """
    return profile_round(model, [batches])[0]


def profile_round(model: MoETransformer,
                  batches_by_participant: Sequence[Sequence[Batch]]) -> List[ActivationProfile]:
    """Measure expert activation of every participant's batches in shared passes.

    All sequences are sorted by length and run in passes of at most
    :data:`PASS_SEQUENCES`; each pass's routing statistics are split per
    participant as they are recorded (:class:`~repro.models.GroupedRouting`),
    so each returned profile counts its own participant's tokens and samples
    alone.  Routing statistics are all a profile keeps, so each pass stops at
    the last layer's router: that layer's experts, its residual, the final
    norm and the LM head are never computed.  The model leaves in the
    train/eval mode it came in.
    """
    groups = [list(batches) for batches in batches_by_participant]
    if not groups or not all(groups):
        raise ValueError("profiling requires at least one batch")
    layers = model.moe_layers()
    grouped = [GroupedRouting(len(groups), layer.num_original_experts) for layer in layers]
    was_training = model.training
    model.eval()
    last = model.blocks[-1]
    try:
        for layer, stats in zip(layers, grouped):
            layer.routing_groups = stats
        with no_grad():
            for input_ids, mask, sample_ids, rows in profiling_passes(groups):
                for stats in grouped:
                    stats.rows = rows
                x = model.run_blocks(model.embed(input_ids), stop=model.num_layers - 1,
                                     attention_mask=mask, sample_ids=sample_ids)
                x = last.attention_half(x, attention_mask=mask)
                last.moe.route(last.moe_norm(x), token_attention=last.attn.last_token_attention,
                               sample_ids=sample_ids, token_mask=mask)
    finally:
        model.train(was_training)
        for layer in layers:
            layer.routing_groups = None
    return [_profile([stats.record(group) for stats in grouped])
            for group in range(len(groups))]


def profiling_passes(batches_by_participant: Sequence[Sequence[Batch]]
                     ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """``(input_ids, attention_mask, sample_ids, participant)`` per :func:`profile_round` pass.

    Rows are sorted by length and split into the fewest passes of at most
    :data:`PASS_SEQUENCES`, of near-equal size.  A row keeps its columns (so
    its positions), and a pass is cut to its longest row's last real token:
    what is cut is padding.
    """
    groups = batches_by_participant
    batches = [batch for own in groups for batch in own]
    count = sum(batch.batch_size for batch in batches)
    width = max(batch.seq_len for batch in batches)
    input_ids = np.zeros((count, width), dtype=np.int64)
    mask = np.zeros((count, width), dtype=bool)
    start = 0
    for batch in batches:
        stop = start + batch.batch_size
        input_ids[start:stop, :batch.seq_len] = batch.input_ids
        mask[start:stop, :batch.seq_len] = batch.attention_mask
        start = stop
    sample_ids = np.concatenate([batch.sample_ids for batch in batches])
    participant = np.repeat(np.arange(len(groups)),
                            [sum(batch.batch_size for batch in own) for own in groups])
    extent = np.where(mask.any(axis=1), width - np.argmax(mask[:, ::-1], axis=1), 0)
    order = np.argsort(extent, kind="stable")
    for rows in np.array_split(order, -(-count // PASS_SEQUENCES)):
        seq_len = max(int(extent[rows[-1]]), 1)
        yield input_ids[rows, :seq_len], mask[rows, :seq_len], sample_ids[rows], participant[rows]


def _profile(records: Sequence[RoutingRecord]) -> ActivationProfile:
    """One participant's profile from its per-layer routing records (whose sets it takes)."""
    return ActivationProfile(
        frequencies=[record.activation_frequency() for record in records],
        attention_scores=[record.average_attention() for record in records],
        sample_sets=[list(record.sample_ids) for record in records],
        token_counts=[record.token_counts.copy() for record in records],
        total_tokens=int(records[0].total_tokens) if records else 0,
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
