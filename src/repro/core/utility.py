"""Expert utility: how much an expert contributes to fine-tuning (paper §6.1).

Equation (3) of the paper defines the utility of expert ``e`` on participant
``i`` as

.. math::
    u^e_i = |D^e_i| \\sqrt{\\tfrac{1}{|D^e_i|} \\sum_{k \\in D^e_i} \\|\\nabla g_k\\|^2 }

i.e. the amount of relevant local data scaled by the root-mean-square gradient
magnitude of the tokens flowing through the expert — the same importance-
sampling-inspired shape used by Oort for participant selection, applied here to
experts.  We compute it from the per-expert aggregate gradient norm and token
count reported by local training (or by forward-only estimation for
exploration experts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

import numpy as np

ExpertKey = Tuple[int, int]


def expert_utility(data_size: float, gradient_norm: float) -> float:
    """Eq. (3) evaluated from aggregate statistics.

    With ``sum_k ||grad_k||^2`` approximated by the squared aggregate gradient
    norm of the expert, the expression reduces to
    ``sqrt(data_size) * gradient_norm``.
    """
    if data_size <= 0:
        return 0.0
    return float(np.sqrt(data_size) * max(gradient_norm, 0.0))


def normalize_utilities(utilities: Dict[ExpertKey, float]) -> Dict[ExpertKey, float]:
    """Scale utilities to [0, 1] (used for the first-round frequency init)."""
    if not utilities:
        return {}
    values = np.asarray(list(utilities.values()), dtype=np.float64)
    peak = values.max()
    if peak <= 0:
        return {key: 0.0 for key in utilities}
    return {key: float(value / peak) for key, value in utilities.items()}


@dataclass
class UtilityTracker:
    """Per-participant store of expert-utility estimates.

    Utilities are refreshed with an exponential moving average so that a noisy
    single-round estimate (especially the forward-only ones from exploration)
    does not overwrite an established estimate entirely.
    """

    smoothing: float = 0.5
    utilities: Dict[ExpertKey, float] = field(default_factory=dict)
    update_counts: Dict[ExpertKey, int] = field(default_factory=dict)

    def initialize_from_frequencies(self, frequencies: Iterable[Tuple[ExpertKey, float]]) -> None:
        """First-round initialisation: utility = normalised activation frequency."""
        raw = {key: float(value) for key, value in frequencies}
        self.utilities = normalize_utilities(raw)
        self.update_counts = {key: 0 for key in self.utilities}

    def observe(self, key: ExpertKey, utility: float) -> None:
        """Blend a fresh utility measurement into the tracked estimate."""
        utility = float(max(utility, 0.0))
        if key in self.utilities and self.update_counts.get(key, 0) > 0:
            blended = self.smoothing * self.utilities[key] + (1.0 - self.smoothing) * utility
        else:
            blended = utility
        self.utilities[key] = blended
        self.update_counts[key] = self.update_counts.get(key, 0) + 1

    def observe_many(self, measurements: Dict[ExpertKey, float]) -> None:
        for key, value in measurements.items():
            self.observe(key, value)

    def as_dict(self) -> Dict[ExpertKey, float]:
        return dict(self.utilities)
