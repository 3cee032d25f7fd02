"""Optional privacy mechanisms for expert updates.

The paper treats differential privacy as orthogonal to Flux but notes it "can
be incorporated ... to further enhance the privacy preservation during expert
aggregation".  This module provides that hook: clip each participant's expert
update to a bounded L2 norm and add Gaussian noise before upload (the standard
Gaussian mechanism of DP-FedAvg), so deployments can trade accuracy for a
formal privacy guarantee without touching the rest of the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from .aggregation import ExpertUpdate


@dataclass
class GaussianMechanism:
    """Clip-and-noise mechanism applied to expert parameter updates.

    Parameters
    ----------
    clip_norm:
        Maximum L2 norm of one expert update (difference from the global
        expert the participant started from, or the raw state if no reference
        is supplied).
    noise_multiplier:
        Standard deviation of the added Gaussian noise as a multiple of
        ``clip_norm``.  0 disables noise (clipping only).
    seed:
        Seed of the noise generator (per-participant seeds keep runs
        reproducible).
    """

    clip_norm: float = 1.0
    noise_multiplier: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------ maths
    @staticmethod
    def _flatten(state: Dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate([np.asarray(v).reshape(-1) for v in state.values()])

    def _clip_factor(self, state: Dict[str, np.ndarray]) -> float:
        norm = float(np.linalg.norm(self._flatten(state)))
        if norm <= self.clip_norm or norm == 0.0:
            return 1.0
        return self.clip_norm / norm

    # -------------------------------------------------------------- interface
    def privatize_state(self, state: Dict[str, np.ndarray],
                        reference: Optional[Dict[str, np.ndarray]] = None
                        ) -> Dict[str, np.ndarray]:
        """Return a clipped + noised copy of ``state``.

        With ``reference`` given, the mechanism operates on the *delta*
        ``state - reference`` and returns ``reference + privatized_delta`` so
        the server-side FedAvg stays unchanged.
        """
        if reference is not None:
            delta = {k: np.asarray(state[k]) - np.asarray(reference[k]) for k in state}
        else:
            delta = {k: np.asarray(v).copy() for k, v in state.items()}
        factor = self._clip_factor(delta)
        sigma = self.noise_multiplier * self.clip_norm
        privatized = {}
        for key, value in delta.items():
            noised = value * factor
            if sigma > 0:
                noised = noised + self._rng.normal(0.0, sigma, size=value.shape)
            privatized[key] = noised
        if reference is not None:
            return {k: np.asarray(reference[k]) + privatized[k] for k in privatized}
        return privatized

    def privatize_updates(self, updates: Iterable[ExpertUpdate],
                          references: Optional[Dict[tuple, Dict[str, np.ndarray]]] = None
                          ) -> List[ExpertUpdate]:
        """Apply the mechanism to every expert update in a participant's upload."""
        privatized: List[ExpertUpdate] = []
        for update in updates:
            reference = references.get(update.key) if references else None
            privatized.append(ExpertUpdate(
                participant_id=update.participant_id,
                layer=update.layer,
                expert=update.expert,
                state=self.privatize_state(update.state, reference=reference),
                weight=update.weight,
            ))
        return privatized


def epsilon_estimate(noise_multiplier: float, num_rounds: int, sample_rate: float = 1.0,
                     delta: float = 1e-5) -> float:
    """Rough (epsilon, delta)-DP accountant for repeated Gaussian mechanisms.

    Uses the simple composition bound
    ``epsilon = sample_rate * sqrt(2 * num_rounds * ln(1/delta)) / noise_multiplier``;
    adequate for reporting the order of magnitude of the guarantee in examples
    and tests (a production deployment would use an RDP accountant).
    """
    if noise_multiplier <= 0:
        return math.inf
    if not 0 < sample_rate <= 1:
        raise ValueError("sample_rate must be in (0, 1]")
    if num_rounds < 1:
        raise ValueError("num_rounds must be positive")
    return sample_rate * math.sqrt(2.0 * num_rounds * math.log(1.0 / delta)) / noise_multiplier
