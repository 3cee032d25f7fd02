"""Shared helpers for the baseline federated MoE fine-tuners.

All baselines reuse the round loop of
:class:`~repro.federated.orchestrator.FederatedFineTuner`; this module adds the
small pieces they share — turning a locally trained model's experts into
federated :class:`~repro.federated.aggregation.ExpertUpdate` objects and
building the participant communication plan.

Because the baselines only implement ``participant_round``, they inherit the
whole server-side aggregation topology for free: their updates aggregate
by weighted FedAvg under whatever shard count and edge tier
:class:`~repro.federated.RunConfig` selects, and
their runs checkpoint/resume through :mod:`repro.runtime.checkpoint` with no
method-specific state to capture (all baseline cross-round state lives in
the participants' batch seeds, which the checkpoint layer already snapshots).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple


from ..federated import ExpertUpdate, FederatedFineTuner, Participant
from ..federated.client import LocalTrainResult
from ..federated.communication import ExchangePlan
from ..models import MoETransformer
from ..systems import CostModel

ExpertKey = Tuple[int, int]


def expert_updates_from_model(
    participant_id: int,
    model: MoETransformer,
    result: LocalTrainResult,
    expert_keys: Optional[Iterable[ExpertKey]] = None,
    quantize_bits: Optional[int] = None,
) -> List[ExpertUpdate]:
    """Package (a subset of) a locally trained model's experts as updates.

    ``expert_keys`` are in the model's local coordinates, which for the
    full-model baselines coincide with the original expert ids.  With
    ``quantize_bits`` set, each expert state is round-tripped through low-bit
    quantization before upload (FMQ's accumulated precision error).
    """
    from ..quantization import quantize_array

    if expert_keys is None:
        expert_keys = list(model.iter_expert_ids())
    updates: List[ExpertUpdate] = []
    for layer, expert in expert_keys:
        state = model.expert_state(layer, expert)
        if quantize_bits is not None:
            state = {name: quantize_array(value, quantize_bits).dequantize()
                     for name, value in state.items()}
        weight = result.expert_token_counts.get((layer, expert), result.num_samples)
        updates.append(ExpertUpdate(
            participant_id=participant_id,
            layer=layer,
            expert=expert,
            state=state,
            weight=float(max(weight, 1)),
        ))
    return updates


def communication_seconds(participant: Participant, cost_model: Optional[CostModel],
                          download_experts: int, upload_experts: int,
                          bytes_per_param: float = 2.0) -> float:
    """Transfer time for a participant's round, or 0 without a cost model."""
    if cost_model is None:
        return 0.0
    exchange = ExchangePlan(download_experts=download_experts, upload_experts=upload_experts,
                            bytes_per_param=bytes_per_param)
    return exchange.communication_seconds(cost_model)


__all__ = [
    "FederatedFineTuner",
    "ExpertKey",
    "expert_updates_from_model",
    "communication_seconds",
]
