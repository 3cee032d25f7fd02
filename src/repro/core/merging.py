"""Adaptive merging of non-tuning experts (paper §5).

Given a participant's expert-role decision (which experts are tuning) and its
activation profile, this module

1. computes per-layer merge budgets (:mod:`repro.core.layer_budget`),
2. clusters the non-tuning experts of each layer by parameter similarity
   (:mod:`repro.core.clustering`), and
3. merges each cluster into a single frozen expert using importance weights
   ``alpha_e = f_e * a_e`` (activation frequency x mean attention, Eq. 2),

then assembles a *compact model*: the tuning experts preserved at full
precision and trainable, one merged expert per cluster frozen, and the gate
re-routed so original expert ids resolve to the right local slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import ActivationProfile
from ..models import ExpertFFN, MoETransformer
from .clustering import ClusteringResult, cluster_experts
from .config import FluxConfig
from .layer_budget import layer_budgets

ExpertKey = Tuple[int, int]


@dataclass
class CompactModelPlan:
    """Everything needed to build (and reason about) a participant's compact model."""

    tuning_experts: List[List[int]]            # per layer, original ids kept trainable
    preserved_frozen: List[List[int]]          # per layer, original ids kept frozen (e.g. exploration)
    clusters: List[List[List[int]]]            # per layer, merged groups of original ids
    layer_budgets: List[int]                   # merged-expert budget per layer
    clustering: Optional[ClusteringResult] = None

    def num_local_experts(self) -> int:
        total = 0
        for layer in range(len(self.tuning_experts)):
            total += (len(self.tuning_experts[layer]) + len(self.preserved_frozen[layer])
                      + len(self.clusters[layer]))
        return total

    def num_merged_inputs(self) -> int:
        """Number of original experts absorbed into merged slots."""
        return sum(len(members) for layer in self.clusters for members in layer)


def merge_weights(members: Sequence[int], frequencies: np.ndarray, attentions: np.ndarray,
                  strategy: str) -> np.ndarray:
    """Per-member merge coefficients alpha_e for one cluster."""
    members = list(members)
    if strategy == "average":
        return np.ones(len(members))
    freq = np.asarray([frequencies[e] for e in members], dtype=np.float64)
    if strategy == "frequency":
        weights = freq
    elif strategy == "attention_frequency":
        att = np.asarray([attentions[e] for e in members], dtype=np.float64)
        weights = freq * att
    else:
        raise ValueError(f"unknown merging strategy {strategy!r}")
    if weights.sum() <= 0:
        return np.ones(len(members))
    return weights


def merge_cluster(model: MoETransformer, layer: int, members: Sequence[int],
                  frequencies: np.ndarray, attentions: np.ndarray, strategy: str,
                  out: Optional[ExpertFFN] = None) -> ExpertFFN:
    """Merge the experts ``members`` of ``layer`` into one frozen expert (``out``, else new)."""
    experts = [model.get_expert(layer, int(e)) for e in members]
    weights = merge_weights(members, frequencies, attentions, strategy)
    config = model.config
    merged = ExpertFFN.merge(experts, weights, d_model=config.d_model,
                             d_ff=experts[0].d_ff, activation=config.activation, out=out)
    merged.freeze()
    return merged


def expert_gram_matrices(model: MoETransformer) -> List[np.ndarray]:
    """Per layer, the float64 Gram matrix ``W @ W.T`` of the flattened expert weights.

    Everything clustering reads of a model's weights.  It depends on the
    weights only, so one computation serves every participant that plans
    against the same model version: a participant's non-tuning subset is a
    sub-matrix.
    """
    grams = []
    for layer in model.moe_layers():
        weights = layer.expert_weight_matrix().astype(np.float64, copy=False)
        grams.append(weights @ weights.T)
    return grams


def plan_compact_model(
    model: MoETransformer,
    tuning_experts: Dict[int, Sequence[int]],
    profile: ActivationProfile,
    max_non_tuning_slots: int,
    config: Optional[FluxConfig] = None,
    preserved_frozen: Optional[Dict[int, Sequence[int]]] = None,
    expert_grams: Optional[Sequence[np.ndarray]] = None,
) -> CompactModelPlan:
    """Decide budgets and clusters for a participant's compact model.

    Parameters
    ----------
    model:
        The global model (original architecture).
    tuning_experts:
        ``{layer: [original expert ids]}`` chosen as tuning experts.
    profile:
        Activation profile driving budgets and merge weights.
    max_non_tuning_slots:
        Total budget :math:`B^{non}_i` of merged-expert slots across layers.
    preserved_frozen:
        Experts kept in original form but frozen (e.g. exploration experts);
        they occupy non-tuning slots but are not merged.
    expert_grams:
        :func:`expert_gram_matrices` of ``model`` when the caller already
        holds them (one per model version serves every participant).
    """
    config = config or FluxConfig()
    num_layers = model.num_layers
    experts_per_layer = model.experts_per_layer()
    preserved_frozen = preserved_frozen or {}

    tuning: List[List[int]] = [sorted(set(int(e) for e in tuning_experts.get(l, []))) for l in range(num_layers)]
    frozen: List[List[int]] = []
    for layer in range(num_layers):
        keep = sorted(set(int(e) for e in preserved_frozen.get(layer, [])) - set(tuning[layer]))
        frozen.append(keep)

    # Experts to merge: everything not tuning and not preserved.
    non_tuning: List[List[int]] = []
    for layer in range(num_layers):
        excluded = set(tuning[layer]) | set(frozen[layer])
        non_tuning.append([e for e in range(experts_per_layer[layer]) if e not in excluded])

    # Per-layer merged budgets, bounded below so every layer with experts to
    # merge gets at least one slot.
    layers_needing_merge = [layer for layer in range(num_layers) if non_tuning[layer]]
    budget_total = max(max_non_tuning_slots, len(layers_needing_merge))
    if layers_needing_merge:
        freq_for_budget = [profile.frequencies[layer] for layer in layers_needing_merge]
        raw_budgets = layer_budgets(config.layer_budget_strategy, budget_total, freq_for_budget)
        budgets = [0] * num_layers
        for layer, value in zip(layers_needing_merge, raw_budgets):
            budgets[layer] = min(value, len(non_tuning[layer]))
    else:
        budgets = [0] * num_layers

    # Cluster the non-tuning experts of every layer.
    if expert_grams is None:
        expert_grams = expert_gram_matrices(model)
    grams = [gram[np.ix_(members, members)] for gram, members in zip(expert_grams, non_tuning)]
    clustering = cluster_experts(
        grams, non_tuning, budgets,
        mode=config.clustering_mode,
        pca_components=config.pca_components,
        iterations=config.kmeans_iterations,
        seed=config.seed,
    )
    return CompactModelPlan(
        tuning_experts=tuning,
        preserved_frozen=frozen,
        clusters=clustering.clusters_per_layer,
        layer_budgets=budgets,
        clustering=clustering,
    )


def build_compact_model(
    model: MoETransformer,
    plan: CompactModelPlan,
    profile: ActivationProfile,
    config: Optional[FluxConfig] = None,
) -> Tuple[MoETransformer, Dict[ExpertKey, ExpertKey], Dict[ExpertKey, ExpertKey]]:
    """Make ``model`` the compact model described by ``plan``, in place.

    ``model`` holds the full expert lists of its architecture (a copy of the
    global model, or the server's training replica).  Its tuning and preserved
    experts stay the modules they are, each cluster is merged into one of the
    layer's resident spare experts, and every layer is re-routed
    (:meth:`~repro.models.MoELayer.mount_compact`): no module is allocated and
    only the merged weights are written.  :meth:`MoELayer.restore_full_experts
    <repro.models.MoELayer.restore_full_experts>` gives the full model back.

    Returns ``model`` plus two slot maps in local ``(layer, slot)``
    coordinates: the trainable tuning experts and the preserved-but-frozen
    experts (exploration candidates), each mapped back to the original
    ``(layer, original_id)`` so the caller can translate trained parameters or
    utility probes into federated expert coordinates.
    """
    config = config or FluxConfig()
    slot_to_original: Dict[ExpertKey, ExpertKey] = {}
    frozen_slot_to_original: Dict[ExpertKey, ExpertKey] = {}
    for layer, moe in enumerate(model.moe_layers()):
        moe.restore_full_experts()          # merges read the full list
        # Trainable tuning experts occupy the first slots; preserved-but-frozen
        # experts (exploration candidates) come next.
        tuning = sorted(plan.tuning_experts[layer])
        frozen = sorted(plan.preserved_frozen[layer])
        for slot, original in enumerate(tuning):
            model.get_expert(layer, original).unfreeze()
            slot_to_original[(layer, slot)] = (layer, original)
        for slot, original in enumerate(frozen, start=len(tuning)):
            model.get_expert(layer, original).freeze()
            frozen_slot_to_original[(layer, slot)] = (layer, original)
        # One merged frozen expert per cluster.
        for index, members in enumerate(plan.clusters[layer]):
            merge_cluster(model, layer, members, profile.frequencies[layer],
                          profile.attention_scores[layer], config.merging_strategy,
                          out=moe.spare_expert(index))
        moe.mount_compact(tuning + frozen, plan.clusters[layer])
    return model, slot_to_original, frozen_slot_to_original
