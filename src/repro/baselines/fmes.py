"""FMES baseline: federated MoE fine-tuning with expert selection (FedMoE-style).

Each participant selects its most frequently activated experts (up to its
tuning budget) and *discards* all other experts: tokens routed to a dropped
expert simply skip the expert computation in that layer (their FFN contribution
is zero).  Selection uses activation frequency measured with a quantized
profiling pass — the criterion the paper argues is insufficient — and no
merged replacement preserves the dropped experts' information, which is what
limits FMES's final accuracy relative to Flux.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


from ..analysis import ActivationProfile
from ..core.profiling import QuantizedProfiler
from ..federated import ExpertUpdate, Participant, ParticipantRoundResult
from ..models import MoETransformer
from ..systems import RoundCostBreakdown
from .base import FederatedFineTuner, communication_seconds

ExpertKey = Tuple[int, int]


def select_top_activated(profile: ActivationProfile, budget: int) -> List[ExpertKey]:
    """Globally rank experts by activation frequency and keep the top ``budget``."""
    scored: List[Tuple[float, ExpertKey]] = []
    for layer, frequencies in enumerate(profile.frequencies):
        for expert, frequency in enumerate(frequencies):
            scored.append((float(frequency), (layer, expert)))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [key for _, key in scored[:budget]]


def build_selected_model(model: MoETransformer, selected: List[ExpertKey]
                         ) -> Tuple[MoETransformer, Dict[ExpertKey, ExpertKey]]:
    """Make ``model`` compact in place, keeping only the selected experts.

    ``model`` holds the full expert lists (a copy of the global model, or the
    server's training replica).  Each layer keeps its selected experts — the
    modules they are — plus one frozen zero-output expert (the layer's first
    resident spare) as its last slot; every non-selected original expert id is
    remapped onto it, which implements the "skip the expert computation"
    behaviour the paper describes for discarded experts.
    """
    selected_by_layer: Dict[int, List[int]] = {}
    for layer, expert in selected:
        selected_by_layer.setdefault(layer, []).append(expert)

    slot_map: Dict[ExpertKey, ExpertKey] = {}
    for layer, moe in enumerate(model.moe_layers()):
        moe.restore_full_experts()
        keep = sorted(selected_by_layer.get(layer, []))
        for slot, original in enumerate(keep):
            model.get_expert(layer, original).unfreeze()
            slot_map[(layer, slot)] = (layer, original)
        # Zero-output skip expert for every dropped id.
        for param in moe.spare_expert(0).parameters():
            param.data[...] = 0.0
        dropped = [e for e in range(moe.num_original_experts) if e not in keep]
        moe.mount_compact(keep, [dropped])
    return model, slot_map


class FMESFineTuner(FederatedFineTuner):
    """Activation-frequency expert selection with discarded non-tuning experts."""

    name = "fmes"

    def __init__(self, *args, profiling_bits: int = 4, profiling_max_batches: int = 4, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.profiler = QuantizedProfiler(bits=profiling_bits, max_batches=profiling_max_batches)

    def participant_round(self, participant: Participant, round_index: int) -> ParticipantRoundResult:
        global_model = self.server.global_model
        cost_model = self.cost_model_for(participant)
        max_seq_len = global_model.config.max_seq_len

        profiling_batches = participant.local_batches(
            self.config.batch_size, max_batches=self.profiler.max_batches, max_seq_len=max_seq_len)
        outcome = self.profiler.profile(global_model, profiling_batches, cost_model=cost_model)
        selected = select_top_activated(outcome.profile, participant.resources.max_tuning_experts)

        batches = participant.local_batches(
            self.config.batch_size, max_batches=self.config.max_local_batches,
            max_seq_len=max_seq_len)
        # Mounted on the server's resident replica for the length of the block.
        with self.server.training_replica() as replica:
            compact, slot_map = build_selected_model(replica, selected)
            result = participant.local_finetune(
                compact, batches,
                learning_rate=self.config.learning_rate,
                trainable_experts=set(slot_map.keys()),
                iterations=self.config.local_iterations,
            )

            updates: List[ExpertUpdate] = []
            for (layer, slot), (_, original) in slot_map.items():
                weight = result.expert_token_counts.get((layer, original), result.num_samples)
                updates.append(ExpertUpdate(
                    participant_id=participant.participant_id,
                    layer=layer,
                    expert=original,
                    state=compact.expert_state(layer, slot),
                    weight=float(max(weight, 1)),
                ))

        breakdown = RoundCostBreakdown()
        if cost_model is not None:
            breakdown.profiling = outcome.profiling_seconds
            breakdown.quantization = outcome.quantization_seconds
            breakdown.training = cost_model.training_time(
                cost_model.scaled_tokens(result.num_samples),
                tuning_experts=len(selected), frozen_experts=0)
            breakdown.communication = communication_seconds(
                participant, cost_model,
                download_experts=len(selected), upload_experts=len(selected))
        return ParticipantRoundResult(
            updates=updates,
            breakdown=breakdown,
            train_loss=result.mean_loss,
            report={"selected_experts": len(selected)},
        )
