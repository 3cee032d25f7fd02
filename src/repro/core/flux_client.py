"""Per-participant Flux state: profiler, utility tracker, local pipeline.

The :class:`FluxClientState` bundles everything a participant keeps between
rounds — the stale-profiling cache and the expert-utility estimates — and
implements one participant's complete Flux round against a given global model
and role assignment:

1. (stale) quantized profiling — measured ahead of the round, with every
   other participant of it, when the tuner prepared it
   (:attr:`FluxClientState.prepared`);
2. compact-model construction (tuning + merged non-tuning experts);
3. data-aware local fine-tuning of the tuning experts;
4. forward-only gradient probing of the exploration experts;
5. utility refresh and expert-update packaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import ActivationProfile
from ..data import Batch
from ..federated import ExpertUpdate, Participant
from ..models import MoETransformer
from ..systems import CostModel, RoundCostBreakdown
from .assignment import RoleAssignment
from .config import FluxConfig
from .gradient_estimation import ProbePrefix, estimate_expert_gradient
from .merging import build_compact_model, plan_compact_model
from .profiling import ProfilingOutcome, StaleProfiler
from .utility import UtilityTracker, expert_utility

ExpertKey = Tuple[int, int]


@dataclass
class FluxRoundOutput:
    """Everything a Flux participant hands back to the orchestrator."""

    updates: List[ExpertUpdate]
    breakdown: RoundCostBreakdown
    train_loss: float
    utilities: Dict[ExpertKey, float]
    profile: ActivationProfile
    num_local_experts: int
    num_tuning_experts: int


class FluxClientState:
    """Round-persistent Flux state for one participant."""

    def __init__(self, participant: Participant, config: FluxConfig) -> None:
        self.participant = participant
        self.config = config
        self.profiler = StaleProfiler(
            bits=config.profiling_bits,
            enabled=config.stale_profiling,
            max_batches=config.profiling_max_batches,
        )
        self.utilities = UtilityTracker(smoothing=config.utility_smoothing)
        self.latest_profile: Optional[ActivationProfile] = None
        #: ``(server version, profiling batches, their fresh profile)`` when a
        #: round's shared profiling pass measured this participant ahead of
        #: its round; the next :meth:`run_round` on that version consumes it.
        #: Not part of the exported state: no checkpoint ever holds one.
        self.prepared: Optional[Tuple[int, List[Batch], ActivationProfile]] = None

    # ------------------------------------------------------------- profiling
    def profiling_batches(self, batch_size: int, max_seq_len: int) -> List[Batch]:
        """Draw this round's profiling batches (advances the participant's batch seed)."""
        return self.participant.local_batches(batch_size,
                                              max_batches=self.config.profiling_max_batches,
                                              max_seq_len=max_seq_len)

    def profile(self, model: MoETransformer, batches: List[Batch],
                cost_model: Optional[CostModel],
                quantized_model: Optional[MoETransformer] = None,
                measured: Optional[ActivationProfile] = None) -> ProfilingOutcome:
        outcome = self.profiler.profile_for_round(model, batches, cost_model=cost_model,
                                                  quantized=quantized_model, measured=measured)
        self.latest_profile = outcome.profile
        if not self.utilities.utilities:
            self._initialize_utilities(outcome.profile)
        return outcome

    def _initialize_utilities(self, profile: ActivationProfile) -> None:
        pairs = []
        for layer, frequencies in enumerate(profile.frequencies):
            for expert, frequency in enumerate(frequencies):
                pairs.append(((layer, expert), float(frequency)))
        self.utilities.initialize_from_frequencies(pairs)

    def report_utilities(self) -> Dict[ExpertKey, float]:
        return self.utilities.as_dict()

    # ----------------------------------------------------------------- round
    def run_round(
        self,
        model: MoETransformer,
        assignment: RoleAssignment,
        learning_rate: float,
        batch_size: int,
        max_batches: Optional[int],
        cost_model: Optional[CostModel] = None,
        quantized_model: Optional[MoETransformer] = None,
        expert_grams: Optional[Sequence[np.ndarray]] = None,
        version: Optional[int] = None,
    ) -> FluxRoundOutput:
        """Execute one full Flux round for this participant.

        ``model`` holds the global model's current values and is the model
        the round trains in: it is made compact in place
        (:func:`~repro.core.merging.build_compact_model`) and left so — in a
        federation it is the server's training replica, which restores itself.
        ``quantized_model`` is the ``config.profiling_bits`` copy of ``model``
        and ``expert_grams`` its
        :func:`~repro.core.merging.expert_gram_matrices` when the caller
        shares them across participants; otherwise the profiler quantizes and
        the planner multiplies its own.  ``version`` is the global model's
        version: a :attr:`prepared` profile of that version is used instead
        of drawing and measuring one (any other is dropped).
        """
        participant = self.participant
        config = self.config
        max_seq_len = model.config.max_seq_len

        # 1. Quantized (stale) profiling on local data.
        prepared, self.prepared = self.prepared, None
        if prepared is not None and prepared[0] == version:
            _, profiling_batches, measured = prepared
        else:
            profiling_batches, measured = self.profiling_batches(batch_size, max_seq_len), None
        outcome = self.profile(model, profiling_batches, cost_model, quantized_model, measured)
        profile = outcome.profile

        # 2. Compact model: tuning experts + preserved exploration experts +
        #    merged remaining non-tuning experts.
        tuning_by_layer = assignment.tuning_by_layer()
        exploration_by_layer = assignment.exploration_by_layer()
        non_tuning_budget = max(participant.resources.max_non_tuning_experts
                                - len(assignment.exploration), model.num_layers)
        plan = plan_compact_model(
            model,
            tuning_by_layer,
            profile,
            max_non_tuning_slots=non_tuning_budget,
            config=config,
            preserved_frozen=exploration_by_layer,
            expert_grams=expert_grams,
        )
        compact, tuning_slots, exploration_slots = build_compact_model(
            model, plan, profile, config)

        # 3. Data-aware local fine-tuning: prefer the samples that actually
        #    flow through the tuning experts (the paper's D^e_i).
        relevant_samples = self._relevant_samples(profile, assignment.tuning_experts)
        train_batches = participant.local_batches(
            batch_size, max_batches=max_batches,
            sample_ids=relevant_samples, max_seq_len=max_seq_len)
        result = participant.local_finetune(
            compact, train_batches,
            learning_rate=learning_rate,
            trainable_experts=set(tuning_slots.keys()),
        )

        # 4. Package expert updates (local slot -> original expert id).
        updates: List[ExpertUpdate] = []
        for (layer, slot), (_, original) in tuning_slots.items():
            token_weight = result.expert_token_counts.get((layer, original), result.num_samples)
            updates.append(ExpertUpdate(
                participant_id=participant.participant_id,
                layer=layer,
                expert=original,
                state=compact.expert_state(layer, slot),
                weight=float(max(token_weight, 1)),
            ))

        # 5. Utility refresh: backprop norms for tuning experts, forward-only
        #    estimates for exploration experts.
        fresh_utilities: Dict[ExpertKey, float] = {}
        for (layer, slot), (_, original) in tuning_slots.items():
            grad_norm = result.expert_grad_norms.get((layer, slot), 0.0)
            data_size = len(profile.samples_for_expert(layer, original)) or \
                result.expert_token_counts.get((layer, original), 0)
            fresh_utilities[(layer, original)] = expert_utility(max(data_size, 1), grad_norm)

        probe_samples = 0
        if exploration_slots and train_batches:
            probe_batches = self._probe_batches(train_batches, config.exploration_probe_samples,
                                                max_seq_len)
            probe_samples = sum(batch.batch_size for batch in probe_batches)
            # One unperturbed pass serves every probe of this round; it is
            # built after fine-tuning and dies with this call (see ProbePrefix).
            prefix = ProbePrefix(compact, probe_batches,
                                 {layer for layer, _ in exploration_slots})
            for (layer, slot), (_, original) in exploration_slots.items():
                estimate = estimate_expert_gradient(
                    compact, probe_batches, layer, slot,
                    num_perturbations=config.exploration_perturbations,
                    sigma=config.exploration_sigma,
                    seed=config.seed + participant.participant_id + layer * 131 + slot,
                    prefix=prefix,
                )
                data_size = len(profile.samples_for_expert(layer, original))
                fresh_utilities[(layer, original)] = expert_utility(max(data_size, 1), estimate.norm())
        self.utilities.observe_many(fresh_utilities)

        # 6. Cost accounting.
        breakdown = self._cost_breakdown(
            cost_model, outcome, plan, result, assignment, probe_samples)

        return FluxRoundOutput(
            updates=updates,
            breakdown=breakdown,
            train_loss=result.mean_loss,
            utilities=self.report_utilities(),
            profile=profile,
            num_local_experts=sum(compact.local_experts_per_layer()),
            num_tuning_experts=len(tuning_slots),
        )

    # -------------------------------------------------------------- internals
    def _probe_batches(self, train_batches: List[Batch], probe_samples: int,
                       max_seq_len: int) -> List[Batch]:
        """A small sub-batch used for forward-only gradient probing."""
        from ..data import collate

        first = train_batches[0]
        samples = first.samples[: max(probe_samples, 1)]
        return [collate(samples, pad_id=self.participant.dataset.vocab.PAD,
                        max_seq_len=max_seq_len)]

    @staticmethod
    def _relevant_samples(profile: ActivationProfile, tuning_experts) -> Optional[List[int]]:
        relevant: set = set()
        for layer, expert in tuning_experts:
            relevant.update(profile.samples_for_expert(layer, expert))
        return sorted(relevant) if relevant else None

    def _cost_breakdown(
        self,
        cost_model: Optional[CostModel],
        outcome: ProfilingOutcome,
        plan,
        result,
        assignment: RoleAssignment,
        probe_samples: int,
    ) -> RoundCostBreakdown:
        if cost_model is None:
            return RoundCostBreakdown()
        participant = self.participant
        num_tuning = len(assignment.exploitation)
        num_frozen = plan.num_local_experts() - num_tuning
        exploration_forwards = 2 * self.config.exploration_perturbations * len(assignment.exploration)
        probe_tokens = cost_model.scaled_tokens(probe_samples)
        from ..federated.communication import ExchangePlan

        exchange = ExchangePlan(
            download_experts=participant.resources.max_experts,
            upload_experts=num_tuning,
        )
        return RoundCostBreakdown(
            profiling=outcome.profiling_seconds,
            quantization=outcome.quantization_seconds,
            merging=cost_model.merging_time(plan.num_merged_inputs()),
            assignment=(cost_model.assignment_time(len(assignment.candidates))
                        + cost_model.forward_time(probe_tokens) * exploration_forwards),
            training=cost_model.training_time(
                cost_model.scaled_tokens(result.num_samples), num_tuning, num_frozen),
            communication=exchange.communication_seconds(cost_model),
        )
