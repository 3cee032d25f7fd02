"""Oracles for the Flux preamble: the code each cheaper path replaced, verbatim.

* :func:`svd_pca_reduce` / :func:`svd_cluster_experts` — PCA by ``np.linalg.svd``
  of the centred ``(experts, features)`` matrix, which ``repro.core.clustering``
  replaced by an ``eigh`` of the double-centred Gram matrix.  The two give the
  same coordinates up to the sign of each axis (cosine K-Means does not see
  signs), so the contract is equal *clusters*.
* :func:`fresh_build_compact_model` — a compact model built as its own model:
  ``MoETransformer.copy_of`` the global model, a new module per tuning,
  preserved and merged expert.  ``repro.core.merging.build_compact_model``
  mounts the same thing on the model it is given; the contract is bit-equal
  logits, gradients and updates.
* :func:`state_dict_quantize_model` — ``quantize_model`` through a name-keyed
  state dict; the contract is byte-equal parameters when no ``dtype`` is asked.
* :func:`per_batch_profile` — ``profile_activation`` from when every
  participant profiled on its own, one routing-only pass per batch.
  ``repro.analysis.profile_round`` profiles a round's participants in shared,
  length-sorted passes; the contract is equal token counts, totals and sample
  sets per participant, and attention scores within float32 rounding.  It
  sums each pass's ``last_routing`` itself (``composed_oracles.add_routing``),
  off the grouped bookkeeping ``profile_round`` runs on.

``e2e_workloads`` is ``benchmarks/e2e/workloads.py`` (read-only): the
federations the equal-clusters contract is held on.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from composed_oracles import add_routing, profile_from_records
from repro.analysis import ActivationProfile
from repro.autograd import default_dtype, no_grad
from repro.core.clustering import ClusteringResult, _cluster_fused, _cluster_per_layer
from repro.core.config import FluxConfig
from repro.core.merging import CompactModelPlan, merge_cluster
from repro.models import ExpertFFN, ExpertRemap, MoETransformer, RoutingRecord
from repro.quantization import quantize_array

ExpertKey = Tuple[int, int]


def e2e_workloads():
    """``benchmarks/e2e/workloads.py``, imported by path (it is not a package)."""
    name = "e2e_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


# ----------------------------------------------------------------------- plan
def svd_pca_reduce(matrix: np.ndarray, components: int) -> np.ndarray:
    """Project rows of ``matrix`` onto their top principal components."""
    if matrix.ndim != 2:
        raise ValueError("pca_reduce expects a 2-D matrix")
    components = max(1, min(components, min(matrix.shape)))
    centered = matrix - matrix.mean(axis=0, keepdims=True)
    # SVD of the (experts x features) matrix; rows projected onto top-k right
    # singular vectors.
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:components].T


def svd_cluster_experts(expert_features: Sequence[np.ndarray],
                        expert_ids: Sequence[Sequence[int]], budgets: Sequence[int],
                        mode: str = "fused", pca_components: int = 8, iterations: int = 10,
                        seed: int = 0) -> ClusteringResult:
    """``cluster_experts`` on feature matrices: SVD coordinates, then the same K-Means."""
    rng = np.random.default_rng(seed)
    reduced: List[np.ndarray] = []
    for features in expert_features:
        if len(features) == 0:
            reduced.append(np.zeros((0, 1)))
        else:
            reduced.append(svd_pca_reduce(np.asarray(features, dtype=np.float64), pca_components))
    cluster = _cluster_fused if mode == "fused" else _cluster_per_layer
    clusters, min_margin = cluster(reduced, expert_ids, budgets, iterations, rng)
    return ClusteringResult(clusters_per_layer=clusters, elapsed_seconds=0.0, mode=mode,
                            min_margin=min_margin)


def svd_plan_clusters(model: MoETransformer, plan: CompactModelPlan,
                      config: FluxConfig) -> ClusteringResult:
    """Re-cluster ``plan``'s non-tuning experts of ``model`` the SVD way."""
    features, ids = [], []
    for layer, moe in enumerate(model.moe_layers()):
        members = sorted(expert for cluster in plan.clusters[layer] for expert in cluster)
        ids.append(members)
        if members:
            features.append(moe.expert_weight_matrix()[np.asarray(members, dtype=np.int64)])
        else:
            features.append(np.zeros((0, 1)))
    return svd_cluster_experts(features, ids, plan.layer_budgets, mode=config.clustering_mode,
                               pca_components=config.pca_components,
                               iterations=config.kmeans_iterations, seed=config.seed)


# ---------------------------------------------------------------------- build
def _copy_expert(model: MoETransformer, layer: int, original: int) -> ExpertFFN:
    """A fresh copy of one expert, allocated at the model's dtype."""
    source = model.get_expert(layer, original)
    with default_dtype(model.config.dtype):
        expert = ExpertFFN.allocate(model.config.d_model, source.d_ff)
    expert.load_state(source.state())
    return expert


def fresh_build_compact_model(
    model: MoETransformer, plan: CompactModelPlan, profile, config: FluxConfig = None,
) -> Tuple[MoETransformer, Dict[ExpertKey, ExpertKey], Dict[ExpertKey, ExpertKey]]:
    """Materialise the compact model described by ``plan`` as a model of its own."""
    config = config or FluxConfig()
    compact = MoETransformer.copy_of(model)

    slot_to_original: Dict[ExpertKey, ExpertKey] = {}
    frozen_slot_to_original: Dict[ExpertKey, ExpertKey] = {}
    for layer in range(model.num_layers):
        tuning = plan.tuning_experts[layer]
        frozen = plan.preserved_frozen[layer]
        clusters = plan.clusters[layer]
        frequencies = profile.frequencies[layer]
        attentions = profile.attention_scores[layer]

        local_experts: List[ExpertFFN] = []
        mapping: Dict[int, int] = {}
        # Trainable tuning experts occupy the first slots.
        for slot, original in enumerate(sorted(tuning)):
            expert = _copy_expert(model, layer, original)
            local_experts.append(expert)
            mapping[original] = slot
            slot_to_original[(layer, slot)] = (layer, original)
        # Preserved-but-frozen experts (exploration candidates) come next.
        for original in sorted(frozen):
            expert = _copy_expert(model, layer, original)
            expert.freeze()
            slot = len(local_experts)
            local_experts.append(expert)
            mapping[original] = slot
            frozen_slot_to_original[(layer, slot)] = (layer, original)
        # One merged frozen expert per cluster.
        for members in clusters:
            merged = merge_cluster(model, layer, members, frequencies, attentions,
                                   config.merging_strategy)
            slot = len(local_experts)
            local_experts.append(merged)
            for member in members:
                mapping[member] = slot

        remap = ExpertRemap(model.experts_per_layer()[layer], mapping)
        compact.blocks[layer].moe.set_compact_experts(local_experts, remap)
    return compact, slot_to_original, frozen_slot_to_original


# -------------------------------------------------------------------- profile
def state_dict_quantize_model(model: MoETransformer, bits: int,
                              skip_substrings=("embedding", "norm")) -> MoETransformer:
    """A copy of ``model`` with weights quantized to ``bits`` bits, at ``model``'s precision."""
    skip = tuple(skip_substrings or ())
    clone = MoETransformer.allocate(model.config)    # every parameter is loaded below
    state = model.state_dict()
    quantized_state = {}
    for name, value in state.items():
        if any(token in name for token in skip) or value.ndim < 2:
            quantized_state[name] = value
        else:
            quantized_state[name] = quantize_array(value, bits).dequantize()
    clone.load_state_dict(quantized_state)
    return clone


def per_batch_profile(model: MoETransformer, batches) -> ActivationProfile:
    """One participant's profile, one pass per batch, stopping at the last router."""
    records = [RoutingRecord.empty(count) for count in model.experts_per_layer()]
    was_training = model.training
    model.eval()
    last = model.blocks[-1]
    try:
        with no_grad():
            for batch in batches:
                x = model.run_blocks(model.embed(batch.input_ids), stop=model.num_layers - 1,
                                     attention_mask=batch.attention_mask,
                                     sample_ids=batch.sample_ids)
                x = last.attention_half(x, attention_mask=batch.attention_mask)
                last.moe.route(last.moe_norm(x), token_attention=last.attn.last_token_attention,
                               sample_ids=batch.sample_ids, token_mask=batch.attention_mask)
                add_routing(records, model)
    finally:
        model.train(was_training)
    return profile_from_records(records)
