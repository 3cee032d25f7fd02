"""Analysis utilities: activation profiling, output error, expert significance."""

from .activation import (
    ActivationProfile,
    estimation_error,
    frequency_drift,
    profile_activation,
    profile_round,
)
from .expert_significance import (
    ExpertSignificance,
    discard_expert_error,
    frequency_significance_correlation,
    significance_report,
    top_significant_experts,
)
from .output_error import cosine_distance, final_embeddings, output_error

__all__ = [
    "ActivationProfile",
    "profile_activation",
    "profile_round",
    "estimation_error",
    "frequency_drift",
    "cosine_distance",
    "final_embeddings",
    "output_error",
    "ExpertSignificance",
    "discard_expert_error",
    "significance_report",
    "top_significant_experts",
    "frequency_significance_correlation",
]
