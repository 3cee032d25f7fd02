"""FMD baseline: federated MoE fine-tuning with dynamic expert offloading.

Every participant fine-tunes the *full* expert set.  Experts that do not fit in
GPU memory (beyond the participant's :math:`B_i` budget) live in host RAM and
are swapped over PCIe whenever the gate routes tokens to them — the standard
offloading recipe of memory-constrained MoE serving, applied to fine-tuning.
FMD therefore converges like full fine-tuning but pays a large per-round
offloading cost, which is exactly how the paper characterises it.
"""

from __future__ import annotations

from ..federated import Participant, ParticipantRoundResult
from ..systems import RoundCostBreakdown
from .base import FederatedFineTuner, communication_seconds, expert_updates_from_model


class FMDFineTuner(FederatedFineTuner):
    """Full-model fine-tuning with CPU<->GPU expert offloading."""

    name = "fmd"

    #: every resident-set miss swaps an expert in and the evicted one out
    OFFLOAD_ROUND_TRIPS = 2

    def participant_round(self, participant: Participant, round_index: int) -> ParticipantRoundResult:
        with self.server.training_replica() as local_model:
            batches = participant.local_batches(
                self.config.batch_size,
                max_batches=self.config.max_local_batches,
                max_seq_len=local_model.config.max_seq_len,
            )
            result = participant.local_finetune(
                local_model, batches,
                learning_rate=self.config.learning_rate,
                trainable_experts=None,
            )
            updates = expert_updates_from_model(participant.participant_id, local_model, result)
            total_experts = sum(local_model.experts_per_layer())

        cost_model = self.cost_model_for(participant)
        breakdown = RoundCostBreakdown()
        if cost_model is not None:
            resident = min(participant.resources.max_experts, total_experts)
            overflow = max(total_experts - resident, 0)
            swaps_per_batch = overflow * self.OFFLOAD_ROUND_TRIPS
            breakdown.training = cost_model.training_time(
                cost_model.scaled_tokens(result.num_samples),
                tuning_experts=total_experts, frozen_experts=0)
            breakdown.offloading = cost_model.offload_time(swaps_per_batch * result.num_batches)
            breakdown.communication = communication_seconds(
                participant, cost_model,
                download_experts=total_experts, upload_experts=total_experts)
        return ParticipantRoundResult(
            updates=updates,
            breakdown=breakdown,
            train_loss=result.mean_loss,
            report={"offloaded_experts": max(total_experts
                                             - participant.resources.max_experts, 0)},
        )
