"""The Flux federated fine-tuner: ties profiling, merging and assignment together.

:class:`FluxFineTuner` plugs the Flux participant pipeline into the shared
federated round loop (:class:`~repro.federated.orchestrator.FederatedFineTuner`).
Each round the server-side role assigner turns the latest per-participant
utilities into exploitation/exploration sets under every participant's tuning
budget; participants then profile (stale), merge, fine-tune and probe, and the
server FedAvg-aggregates the uploaded tuning-expert updates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data import SyntheticDataset
from ..federated import (
    FederatedFineTuner,
    Participant,
    ParticipantRoundResult,
    ParameterServer,
    RunConfig,
)
from ..models import MoETransformer
from ..quantization import quantize_model
from ..systems import CostModel
from .assignment import ExpertRoleAssigner, RoleAssignment
from .config import FluxConfig
from .flux_client import FluxClientState
from .merging import expert_gram_matrices
from .profiling import PROFILING_DTYPE


class FluxFineTuner(FederatedFineTuner):
    """Federated MoE fine-tuning with the full Flux pipeline."""

    name = "flux"

    def __init__(
        self,
        server: ParameterServer,
        participants: Sequence[Participant],
        test_dataset: SyntheticDataset,
        cost_models: Optional[Dict[int, CostModel]] = None,
        config: Optional[RunConfig] = None,
        flux_config: Optional[FluxConfig] = None,
    ) -> None:
        super().__init__(server, participants, test_dataset, cost_models=cost_models, config=config)
        self.flux_config = flux_config or FluxConfig()
        self.states: Dict[int, FluxClientState] = {
            participant.participant_id: FluxClientState(participant, self.flux_config)
            for participant in self.participants
        }
        all_experts = list(server.global_model.iter_expert_ids())
        self.assigner = ExpertRoleAssigner(all_experts, epsilon=self.flux_config.epsilon,
                                           seed=self.flux_config.seed)
        self._assignments: Dict[int, RoleAssignment] = {}
        #: ``((server.round_index, bits), model)``: the low-bit copy of the
        #: current global model that every participant profiles on
        self._quantized: Optional[Tuple[Tuple[int, int], MoETransformer]] = None
        #: ``(server.round_index, grams)``: the current global model's
        #: :func:`~repro.core.merging.expert_gram_matrices`, which every
        #: participant plans its clusters from
        self._expert_grams: Optional[Tuple[int, List[np.ndarray]]] = None

    # ------------------------------------------------------------------ hooks
    def before_round(self, round_index: int, selected: Sequence[Participant]) -> None:
        """Server-side expert role assignment from the latest utility reports."""
        utilities = {
            participant.participant_id: self.states[participant.participant_id].report_utilities()
            for participant in selected
        }
        budgets = {
            participant.participant_id: participant.resources.max_tuning_experts
            for participant in selected
        }
        self._assignments = self.assigner.assign(round_index, utilities, budgets)

    def quantized_global_model(self) -> MoETransformer:
        """The profiling-precision copy of the global model, quantized once per server version.

        Keyed on ``(server.round_index, bits)`` — every aggregation bumps the
        index, so a copy of older weights is never reused — and at most one
        copy is held.
        """
        key = (self.server.round_index, self.flux_config.profiling_bits)
        if self._quantized is None or self._quantized[0] != key:
            self._quantized = (key, quantize_model(self.server.global_model, key[1],
                                                   dtype=PROFILING_DTYPE))
        return self._quantized[1]

    def expert_grams(self) -> List[np.ndarray]:
        """The global model's per-layer expert Gram matrices, computed once per server version."""
        version = self.server.round_index
        if self._expert_grams is None or self._expert_grams[0] != version:
            self._expert_grams = (version, expert_gram_matrices(self.server.global_model))
        return self._expert_grams[1]

    def __getstate__(self) -> Dict:
        # Process-pool workers get the tuner pickled; they rebuild their own copies.
        state = super().__getstate__()
        state["_quantized"] = state["_expert_grams"] = None
        return state

    def participant_round(self, participant: Participant, round_index: int) -> ParticipantRoundResult:
        state = self.states[participant.participant_id]
        assignment = self._assignments.get(participant.participant_id)
        if assignment is None:
            # Participant was selected without a prior assignment (should not
            # happen in the normal loop); fall back to a fresh assignment.
            utilities = {participant.participant_id: state.report_utilities()}
            budgets = {participant.participant_id: participant.resources.max_tuning_experts}
            assignment = self.assigner.assign(round_index, utilities, budgets)[
                participant.participant_id]

        # The compact model is mounted on the server's resident replica and
        # unmounted when the block ends; the updates hold copies.
        with self.server.training_replica() as replica:
            output = state.run_round(
                model=replica,
                assignment=assignment,
                learning_rate=self.config.learning_rate,
                batch_size=self.config.batch_size,
                max_batches=self.config.max_local_batches,
                local_iterations=self.config.local_iterations,
                cost_model=self.cost_model_for(participant),
                quantized_model=self.quantized_global_model(),
                expert_grams=self.expert_grams(),
            )
        return ParticipantRoundResult(
            updates=output.updates,
            breakdown=output.breakdown,
            train_loss=output.train_loss,
            overlap_profiling=self.flux_config.stale_profiling,
            report={
                "utilities": output.utilities,
                "num_local_experts": output.num_local_experts,
                "num_tuning_experts": output.num_tuning_experts,
                "epsilon": assignment.epsilon,
            },
        )

    # ------------------------------------------------------------- run state
    def export_run_state(self) -> Dict:
        """Flux's method-level cross-round state: the role-assignment RNG.

        The ε-greedy explorer draws from the assigner's private generator
        every round, so a resumed run must continue that stream exactly where
        the interrupted run left it (per-client profiling caches and
        utilities travel with :meth:`export_participant_state`).
        """
        state = super().export_run_state()
        state["assigner_rng"] = self.assigner._rng.bit_generator.state
        return state

    def import_run_state(self, state: Dict) -> None:
        super().import_run_state(state)
        # the restored global model may share its round index
        self._quantized = self._expert_grams = None
        self.assigner._rng = np.random.default_rng()
        self.assigner._rng.bit_generator.state = state["assigner_rng"]

    # ------------------------------------------------------- participant state
    def export_participant_state(self, participant_id: int) -> Dict:
        """Include the Flux per-client state (profiling cache + utilities)."""
        state = super().export_participant_state(participant_id)
        flux = self.states[participant_id]
        state["flux"] = (flux.profiler, flux.utilities, flux.latest_profile)
        return state

    def import_participant_state(self, participant_id: int, state: Dict) -> None:
        super().import_participant_state(participant_id, state)
        flux = self.states[participant_id]
        flux.profiler, flux.utilities, flux.latest_profile = state["flux"]

    # -------------------------------------------------------------- inspection
    def current_assignments(self) -> Dict[int, RoleAssignment]:
        """Most recent role assignments (for logging and tests)."""
        return dict(self._assignments)
