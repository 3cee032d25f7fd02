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
from ..models import ExpertFFN, ExpertRemap, MoETransformer
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


def build_selected_model(global_model: MoETransformer, selected: List[ExpertKey]
                         ) -> Tuple[MoETransformer, Dict[ExpertKey, ExpertKey]]:
    """Compact model keeping only the selected experts; dropped experts are skipped.

    Each layer gets one frozen zero-output expert as its last slot; every
    non-selected original expert id is remapped onto it, which implements the
    "skip the expert computation" behaviour the paper describes for discarded
    experts.
    """
    compact = MoETransformer.copy_of(global_model)
    selected_by_layer: Dict[int, List[int]] = {}
    for layer, expert in selected:
        selected_by_layer.setdefault(layer, []).append(expert)

    slot_map: Dict[ExpertKey, ExpertKey] = {}
    for layer in range(global_model.num_layers):
        keep = sorted(selected_by_layer.get(layer, []))
        local_experts: List[ExpertFFN] = []
        mapping: Dict[int, int] = {}
        for slot, original in enumerate(keep):
            expert = ExpertFFN(global_model.config.d_model,
                               global_model.get_expert(layer, original).d_ff,
                               activation=global_model.config.activation)
            expert.load_state(global_model.get_expert(layer, original).state())
            local_experts.append(expert)
            mapping[original] = slot
            slot_map[(layer, slot)] = (layer, original)
        # Zero-output skip expert for every dropped id.
        skip = ExpertFFN(global_model.config.d_model,
                         global_model.config.d_ff,
                         activation=global_model.config.activation)
        for param in skip.parameters():
            param.data[...] = 0.0
        skip.freeze()
        skip_slot = len(local_experts)
        local_experts.append(skip)
        num_original = global_model.experts_per_layer()[layer]
        for original in range(num_original):
            if original not in mapping:
                mapping[original] = skip_slot
        remap = ExpertRemap(num_original, mapping)
        compact.blocks[layer].moe.set_compact_experts(local_experts, remap)
    return compact, slot_map


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

        compact, slot_map = build_selected_model(global_model, selected)
        batches = participant.local_batches(
            self.config.batch_size, max_batches=self.config.max_local_batches,
            max_seq_len=max_seq_len)
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
