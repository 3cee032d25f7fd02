"""FMQ baseline: federated MoE fine-tuning on a quantized model.

All expert parameters are quantized to INT4 so the whole model fits into the
participant's GPU; fine-tuning runs on the dequantized (lossy) weights and the
trained experts are re-quantized before upload.  The round-trip every round is
what makes FMQ cheap per round but unstable: precision errors accumulate in the
aggregated global model, which is the behaviour the paper reports (unstable
convergence, lowest final accuracy).
"""

from __future__ import annotations

from ..federated import Participant, ParticipantRoundResult
from ..federated.communication import bytes_per_param_for_bits
from ..quantization import quantize_model
from ..systems import RoundCostBreakdown
from .base import FederatedFineTuner, communication_seconds, expert_updates_from_model


class FMQFineTuner(FederatedFineTuner):
    """Quantized full-model fine-tuning (INT4 by default)."""

    name = "fmq"

    def __init__(self, *args, bits: int = 4, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if bits not in (2, 3, 4, 8):
            raise ValueError("bits must be one of 2, 3, 4, 8")
        self.bits = bits

    def wire_codec_name(self) -> str:
        """FMQ ships quantized payloads, so wire transport defaults to the
        matching ``int{bits}`` codec; an explicit ``RunConfig.codec`` choice
        (even ``"fp64"``) wins, and 3-bit models — which have no byte-packable
        wire codec — fall back to the base default."""
        if self.config.codec is None and self.bits in (2, 4, 8):
            return f"int{self.bits}"
        return super().wire_codec_name()

    def participant_round(self, participant: Participant, round_index: int) -> ParticipantRoundResult:
        # quantize_model leaves its source untouched and builds its own clone
        local_model = quantize_model(self.server.global_model, self.bits)
        batches = participant.local_batches(
            self.config.batch_size,
            max_batches=self.config.max_local_batches,
            max_seq_len=local_model.config.max_seq_len,
        )
        result = participant.local_finetune(
            local_model, batches,
            learning_rate=self.config.learning_rate,
            trainable_experts=None,
            iterations=self.config.local_iterations,
        )
        # Uploaded expert states are re-quantized: the source of FMQ's
        # accumulated precision error across rounds.
        updates = expert_updates_from_model(
            participant.participant_id, local_model, result, quantize_bits=self.bits)

        cost_model = self.cost_model_for(participant)
        breakdown = RoundCostBreakdown()
        if cost_model is not None:
            total_experts = sum(local_model.experts_per_layer())
            breakdown.quantization = cost_model.quantization_time(total_experts)
            breakdown.training = cost_model.training_time(
                cost_model.scaled_tokens(result.num_samples),
                tuning_experts=total_experts, frozen_experts=0, quantized=True)
            # Both directions travel at the quantized wire precision.
            breakdown.communication = communication_seconds(
                participant, cost_model,
                download_experts=total_experts, upload_experts=total_experts,
                bytes_per_param=bytes_per_param_for_bits(self.bits))
        return ParticipantRoundResult(
            updates=updates,
            breakdown=breakdown,
            train_loss=result.mean_loss,
            report={"bits": self.bits},
        )
