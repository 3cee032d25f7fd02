"""Federated participants: local data, local resources, local fine-tuning.

A :class:`Participant` owns a non-IID shard of the dataset, a device profile,
and the resource budgets the paper derives from it (:math:`B_i` experts
loadable, :math:`B^{tune}_i` experts trainable per round).  The participant's
:meth:`Participant.local_finetune` runs genuine gradient-descent fine-tuning of
whichever experts the calling method marked trainable, and reports per-expert
gradient magnitudes and token counts — the raw signals Flux's expert-utility
definition consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..autograd import Adam, Parameter
from ..data import Batch, Sample, SyntheticDataset, make_batches
from ..models import MoETransformer
from ..systems import CONSUMER_GPU, CostModel, DeviceProfile, MemoryModel

ExpertKey = Tuple[int, int]


@dataclass
class ParticipantResources:
    """Per-participant expert budgets (the paper's :math:`B_i` and :math:`B^{tune}_i`)."""

    max_experts: int          # experts loadable into GPU memory (B_i)
    max_tuning_experts: int   # experts trainable within the round budget (B_tune_i)

    def __post_init__(self) -> None:
        if self.max_experts < 1:
            raise ValueError("a participant must be able to load at least one expert")
        if self.max_tuning_experts < 1:
            raise ValueError("a participant must be able to tune at least one expert")
        if self.max_tuning_experts > self.max_experts:
            raise ValueError("cannot tune more experts than can be loaded")

    @property
    def max_non_tuning_experts(self) -> int:
        """Budget left for merged / frozen experts (B_i - B_tune_i)."""
        return self.max_experts - self.max_tuning_experts

    @classmethod
    def from_device(cls, memory: MemoryModel, device: DeviceProfile,
                    round_time_budget_s: float = 600.0,
                    tokens_per_round: float = 16 * 256) -> "ParticipantResources":
        """Derive budgets for a full-scale architecture from the device profile."""
        max_experts = max(memory.max_loadable_experts(device), 1)
        max_tuning = max(memory.max_tuning_experts(device, round_time_budget_s, tokens_per_round), 1)
        return cls(max_experts=max_experts, max_tuning_experts=min(max_tuning, max_experts))


@dataclass
class LocalTrainResult:
    """Outcome of one participant's local fine-tuning pass."""

    mean_loss: float
    num_batches: int
    num_tokens: int
    num_samples: int
    #: L2 norm of the accumulated gradient of each trainable expert
    expert_grad_norms: Dict[ExpertKey, float] = field(default_factory=dict)
    #: token assignments observed per expert (original-id coordinates)
    expert_token_counts: Dict[ExpertKey, int] = field(default_factory=dict)


class Participant:
    """One federated-learning participant."""

    def __init__(
        self,
        participant_id: int,
        dataset: SyntheticDataset,
        device: DeviceProfile = CONSUMER_GPU,
        resources: Optional[ParticipantResources] = None,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
    ) -> None:
        if len(dataset) == 0:
            raise ValueError("participant needs at least one local sample")
        self.participant_id = participant_id
        self.dataset = dataset
        self.device = device
        self.resources = resources or ParticipantResources(max_experts=8, max_tuning_experts=4)
        self.cost_model = cost_model
        self.seed = seed
        self._round_seed = seed

    # ------------------------------------------------------------------ data
    def __repr__(self) -> str:
        return (f"Participant(id={self.participant_id}, samples={len(self.dataset)}, "
                f"device={self.device.name})")

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    # ------------------------------------------------------------------ wire
    def make_channel(self, cost_model=None, faults=None, latency_s: float = 0.0):
        """Build this participant's metered uplink/downlink channel.

        Bandwidth comes from ``cost_model`` (the participant's own when not
        given); ``faults`` is a
        :class:`~repro.runtime.faults.ChannelFaultInjector` for payload
        loss/corruption.
        """
        from ..comm import Channel

        return Channel(
            participant_id=self.participant_id,
            cost_model=cost_model if cost_model is not None else self.cost_model,
            faults=faults,
            latency_s=latency_s,
        )

    def local_batches(self, batch_size: int, max_batches: Optional[int] = None,
                      sample_ids: Optional[Iterable[int]] = None,
                      max_seq_len: Optional[int] = None) -> List[Batch]:
        """Build this round's local batches (optionally restricted to ``sample_ids``)."""
        samples: Sequence[Sample] = self.dataset.samples
        if sample_ids is not None:
            wanted = set(int(s) for s in sample_ids)
            filtered = [s for s in samples if s.sample_id in wanted]
            if filtered:
                samples = filtered
        self._round_seed += 1
        batches = make_batches(samples, batch_size=batch_size, vocab=self.dataset.vocab,
                               shuffle=True, seed=self._round_seed, max_seq_len=max_seq_len)
        if max_batches is not None:
            batches = batches[:max_batches]
        return batches

    # -------------------------------------------------------------- training
    def local_finetune(
        self,
        model: MoETransformer,
        batches: Sequence[Batch],
        learning_rate: float = 5e-3,
        trainable_experts: Optional[Set[ExpertKey]] = None,
        iterations: int = 1,
    ) -> LocalTrainResult:
        """Fine-tune ``model`` in place on ``batches``.

        Only routed experts receive gradients.  When ``trainable_experts`` is
        given, experts outside the set are frozen (Flux / FMES); ``None`` makes
        every *local* expert trainable (FMD / FMQ).  Expert keys refer to the
        model's local expert slots.
        """
        if not batches:
            raise ValueError("local_finetune requires at least one batch")
        model.freeze_non_expert_parameters()
        # Resolved once per call: ``parameters()`` walks the module tree.
        expert_params: Dict[ExpertKey, List[Parameter]] = {
            (layer_index, expert_index): list(expert.parameters())
            for layer_index, layer in enumerate(model.moe_layers())
            for expert_index, expert in enumerate(layer.experts)
        }
        if trainable_experts is not None:
            for key, expert_parameters in expert_params.items():
                for param in expert_parameters:
                    param.requires_grad = key in trainable_experts

        params = [p for p in model.parameters() if p.requires_grad]
        if not params:
            raise ValueError("no trainable experts selected")
        optimizer = Adam(params, lr=learning_rate)

        grad_sq: Dict[ExpertKey, float] = {}
        token_counts: Dict[ExpertKey, int] = {}
        losses: List[float] = []
        total_tokens = 0

        model.train()
        for _ in range(max(iterations, 1)):
            for batch in batches:
                optimizer.zero_grad()
                # No ``sample_ids``: only ``profile_activation`` reads the
                # per-expert sample sets they would fill; the token counts
                # read below do not need them.
                loss = model.compute_loss(
                    batch.input_ids,
                    labels=batch.labels,
                    attention_mask=batch.attention_mask,
                )
                if loss.requires_grad:
                    loss.backward()
                    self._accumulate_expert_stats(model, expert_params, grad_sq, token_counts)
                    optimizer.step()
                # else: no routed token touched a trainable expert in this
                # batch — a legitimate zero-gradient step, not an error.
                losses.append(loss.item())
                total_tokens += batch.num_tokens

        grad_norms = {key: float(np.sqrt(value)) for key, value in grad_sq.items()}
        return LocalTrainResult(
            mean_loss=float(np.mean(losses)),
            num_batches=len(batches) * max(iterations, 1),
            num_tokens=total_tokens,
            num_samples=sum(batch.batch_size for batch in batches),
            expert_grad_norms=grad_norms,
            expert_token_counts=token_counts,
        )

    @staticmethod
    def _accumulate_expert_stats(model: MoETransformer,
                                 expert_params: Dict[ExpertKey, List[Parameter]],
                                 grad_sq: Dict[ExpertKey, float],
                                 token_counts: Dict[ExpertKey, int]) -> None:
        for key, expert_parameters in expert_params.items():
            for param in expert_parameters:
                if param.grad is not None:
                    grad_sq[key] = grad_sq.get(key, 0.0) + float((param.grad ** 2).sum())
        for layer_index, layer in enumerate(model.moe_layers()):
            record = layer.last_routing
            if record is not None:
                for expert_index, count in enumerate(record.token_counts):
                    if count:
                        key = (layer_index, expert_index)
                        token_counts[key] = token_counts.get(key, 0) + int(count)
