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

from ..autograd import Adam, AdamBuffers, Module, Parameter
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


class ExpertTraining:
    """What expert-only fine-tuning needs of a model, resolved once and kept on it.

    :meth:`Participant.local_finetune` freezes everything but the routed
    experts, puts the model in train mode and steps an :class:`Adam` over
    the trainable experts.  A walk of the module tree for each of those costs
    more than a participant's whole optimizer step, so :meth:`of` resolves
    the tree once per model: :attr:`frozen` (every parameter outside the
    routed experts), :attr:`modules` (the tree, flat; an expert a compact
    mount brings in later is not in it, and no expert reads the train mode)
    and :attr:`buffers`
    (the :class:`~repro.autograd.AdamBuffers` every optimizer of the model
    steps in, so only the first one allocates).  The routed experts are read
    from the layers on every call, because a compact mount swaps them; an
    expert module's parameter list is resolved the first time it is seen.
    Everything else in the tree must stay as it was at the first call, and
    in this package it does: only routed experts are ever replaced.
    """

    def __init__(self, model: MoETransformer) -> None:
        routed = {id(param) for layer in model.moe_layers()
                  for expert in layer.experts for param in expert.parameters()}
        self.frozen: List[Parameter] = [
            param for param in model.parameters() if id(param) not in routed]
        self.modules: List[Module] = list(model.modules())
        self.buffers = AdamBuffers()
        self._expert_params: Dict[Module, List[Parameter]] = {}

    @classmethod
    def of(cls, model: MoETransformer) -> "ExpertTraining":
        """``model``'s :class:`ExpertTraining`, resolved on first use."""
        training = model.__dict__.get("expert_training")
        if training is None:
            training = model.expert_training = cls(model)
        return training

    def train_mode(self) -> None:
        """``model.train()`` over the resolved tree; a flag already set is not rewritten."""
        for module in self.modules:
            if not module.training:
                module.training = True

    def select(self, model: MoETransformer, trainable_experts: Optional[Set[ExpertKey]]
               ) -> Tuple[Dict[ExpertKey, List[Parameter]], List[Parameter]]:
        """Freeze all but ``trainable_experts`` (every routed expert when ``None``).

        Returns each local expert's parameters by key and the trainable
        ones, in ``model.parameters()`` order.
        """
        for param in self.frozen:
            param.requires_grad = False
        known = self._expert_params
        expert_params: Dict[ExpertKey, List[Parameter]] = {}
        trainable: List[Parameter] = []
        for layer_index, layer in enumerate(model.moe_layers()):
            for expert_index, expert in enumerate(layer.experts):
                parameters = known.get(expert)
                if parameters is None:
                    parameters = known[expert] = list(expert.parameters())
                key = (layer_index, expert_index)
                expert_params[key] = parameters
                selected = trainable_experts is None or key in trainable_experts
                for param in parameters:
                    param.requires_grad = selected
                if selected:
                    trainable.extend(parameters)
        return expert_params, trainable


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

    # ------------------------------------------------------------------ wire
    def make_channel(self, cost_model=None, faults=None):
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
        return make_batches(samples, batch_size=batch_size, vocab=self.dataset.vocab,
                            shuffle=True, seed=self._round_seed, max_seq_len=max_seq_len,
                            max_batches=max_batches)

    # -------------------------------------------------------------- training
    def local_finetune(
        self,
        model: MoETransformer,
        batches: Sequence[Batch],
        learning_rate: float = 5e-3,
        trainable_experts: Optional[Set[ExpertKey]] = None,
    ) -> LocalTrainResult:
        """Fine-tune ``model`` in place on ``batches``: one Adam step per batch.

        One pass over the batches is the paper's one local iteration per
        round (§8.1).  Only routed experts receive gradients.  When ``trainable_experts`` is
        given, experts outside the set are frozen (Flux / FMES); ``None`` makes
        every *local* expert trainable (FMD / FMQ).  Expert keys refer to the
        model's local expert slots.  What is frozen, the module tree and the
        optimizer's storage come from the model's :class:`ExpertTraining`.
        """
        if not batches:
            raise ValueError("local_finetune requires at least one batch")
        training = ExpertTraining.of(model)
        expert_params, params = training.select(model, trainable_experts)
        if not params:
            raise ValueError("no trainable experts selected")
        optimizer = Adam(params, lr=learning_rate, buffers=training.buffers)

        grad_sq: Dict[ExpertKey, float] = {}
        token_counts: Dict[ExpertKey, int] = {}
        losses: List[float] = []
        total_tokens = 0

        training.train_mode()
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
            num_batches=len(batches),
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
