"""Dynamic expert role assignment (paper §6, Algorithm 1).

Each round the parameter server collects per-participant expert utilities,
solves the budgeted utility-maximisation problem (4) to obtain each
participant's candidate set, then splits the candidate budget between
*exploitation* (highest-utility experts, fine-tuned with real backprop) and
*exploration* (randomly sampled experts whose utilities are refreshed with
forward-only gradient estimates).  The exploitation share ε grows over rounds
(dynamic ε) as utility estimates become trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import EpsilonSchedule

ExpertKey = Tuple[int, int]


@dataclass
class RoleAssignment:
    """Expert roles for one participant in one round."""

    participant_id: int
    exploitation: List[ExpertKey]      # tuning experts (backprop fine-tuning)
    exploration: List[ExpertKey]       # forward-only utility probing
    candidates: List[ExpertKey]        # solution of optimisation problem (4)
    epsilon: float
    #: report only: the smallest utility gap this assignment's two float-ranked
    #: cuts were decided by — candidates against the experts outside the
    #: budget, and exploitation against the other candidates.  0.0 is an exact
    #: tie (broken by expert key); ``inf`` when neither cut dropped anything.
    min_margin: float = float("inf")

    @property
    def tuning_experts(self) -> List[ExpertKey]:
        return list(self.exploitation)

    def tuning_by_layer(self) -> Dict[int, List[int]]:
        grouped: Dict[int, List[int]] = {}
        for layer, expert in self.exploitation:
            grouped.setdefault(layer, []).append(expert)
        return grouped

    def exploration_by_layer(self) -> Dict[int, List[int]]:
        grouped: Dict[int, List[int]] = {}
        for layer, expert in self.exploration:
            grouped.setdefault(layer, []).append(expert)
        return grouped


def _cut_margin(utilities: Dict[ExpertKey, float], kept: Sequence[ExpertKey],
                dropped: Sequence[ExpertKey]) -> float:
    """Utility gap between the lowest kept and the highest dropped expert."""
    if not kept or not dropped:
        return float("inf")
    return (min(utilities[key] for key in kept)
            - max(utilities[key] for key in dropped))


def solve_candidate_selection(utilities: Dict[ExpertKey, float], budget: int) -> List[ExpertKey]:
    """Problem (4) for one participant: pick the ``budget`` highest-utility experts.

    The per-participant constraint makes the integer program separable, so the
    greedy top-k choice is exact.
    """
    if budget < 1:
        raise ValueError("tuning budget must be positive")
    ranked = sorted(utilities.items(), key=lambda item: (-item[1], item[0]))
    return [key for key, _ in ranked[:budget]]


class ExpertRoleAssigner:
    """Server-side role assignment across all participants."""

    def __init__(self, all_experts: Sequence[ExpertKey],
                 epsilon: Optional[EpsilonSchedule] = None, seed: int = 0) -> None:
        if not all_experts:
            raise ValueError("the model must expose at least one expert")
        self.all_experts: List[ExpertKey] = list(all_experts)
        self.epsilon = epsilon or EpsilonSchedule()
        self._rng = np.random.default_rng(seed)

    def assign(
        self,
        round_index: int,
        utilities: Dict[int, Dict[ExpertKey, float]],
        tuning_budgets: Dict[int, int],
    ) -> Dict[int, RoleAssignment]:
        """Produce a :class:`RoleAssignment` for every participant.

        Parameters
        ----------
        round_index:
            Current federated round (drives the ε schedule).
        utilities:
            ``{participant_id: {expert_key: utility}}`` as collected by the
            server; missing experts default to zero utility.
        tuning_budgets:
            ``{participant_id: B_tune_i}``.
        """
        epsilon = self.epsilon.value(round_index)
        assignments: Dict[int, RoleAssignment] = {}
        for participant_id, budget in tuning_budgets.items():
            participant_utilities = dict(utilities.get(participant_id, {}))
            for key in self.all_experts:
                participant_utilities.setdefault(key, 0.0)
            candidates = solve_candidate_selection(participant_utilities, budget)
            exploitation, exploration = self._split(candidates, participant_utilities, epsilon)
            chosen, exploited = set(candidates), set(exploitation)
            assignments[participant_id] = RoleAssignment(
                participant_id=participant_id,
                exploitation=exploitation,
                exploration=exploration,
                candidates=candidates,
                epsilon=epsilon,
                min_margin=min(
                    _cut_margin(participant_utilities, candidates,
                                [key for key in participant_utilities if key not in chosen]),
                    _cut_margin(participant_utilities, exploitation,
                                [key for key in candidates if key not in exploited])),
            )
        return assignments

    # ------------------------------------------------------------------ split
    def _split(self, candidates: List[ExpertKey], utilities: Dict[ExpertKey, float],
               epsilon: float) -> Tuple[List[ExpertKey], List[ExpertKey]]:
        """Exploitation/exploration split of one participant's candidate budget."""
        budget = len(candidates)
        if budget == 0:
            return [], []
        num_exploit = max(int(round(epsilon * budget)), 1)
        num_exploit = min(num_exploit, budget)
        num_explore = budget - num_exploit

        ranked = sorted(candidates, key=lambda key: (-utilities.get(key, 0.0), key))
        exploitation = ranked[:num_exploit]

        exploration: List[ExpertKey] = []
        if num_explore > 0:
            exploited = set(exploitation)
            pool = [key for key in self.all_experts if key not in exploited]
            if pool:
                picked = self._rng.choice(len(pool), size=min(num_explore, len(pool)), replace=False)
                exploration = [pool[int(i)] for i in picked]
        return exploitation, exploration
