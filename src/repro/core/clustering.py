"""Similarity-based expert clustering (paper §5.2).

Experts with similar parameters merge with less damage, so Flux clusters
non-tuning experts by parameter similarity before merging.  Two implementation
details from the paper are reproduced:

* expert weight vectors are first reduced with PCA so clustering operates on
  compact feature vectors;
* clustering across all layers is *fused* into a single K-Means run — one
  centroid set labelled with layer ids and a cross-layer distance mask — which
  is roughly 40x faster than running K-Means per layer because centroid
  initialisation and distance computation are batched.

PCA from the Gram matrix
------------------------
The PCA coordinates of ``n`` experts, and every cosine distance K-Means takes
between them and their means, are functions of the ``n x n`` Gram matrix
``W @ W.T`` of the flattened weights alone, so that matrix is the input
(:func:`cluster_experts`, :func:`pca_reduce`): centring the rows is a
double-centring of it and the coordinates are its eigenvectors scaled by the
square roots of their eigenvalues — an ``eigh`` of an ``n x n`` matrix in place
of an SVD of the ``n x ~3k`` weight matrix, and a Gram matrix computed once per
model version serves every participant (a non-tuning subset is a sub-matrix).
An eigenvector's sign is arbitrary where a singular vector's was too; flipping
an axis is an orthogonal map applied to points and centroids alike, which
leaves every cosine distance, hence every cluster, unchanged.

A plan that survives an ulp
---------------------------
A plan is a discrete decision, so it must not sit on an edge that rounding
noise can cross.  A layer's initial centroids are *distinct* points of it:
drawn with replacement, two centroids could start on one expert, every point of
the layer would then tie exactly between them (rounding picks the winner) and
the loser would end empty, wasting a merge slot.  Distances closer than
:data:`TIE_TOLERANCE` count as tied and go to the lowest centroid index, and
:attr:`ClusteringResult.min_margin` reports the smallest best-vs-second-best
gap any assignment saw — on the benchmark's federations it is ~3e-4, five
orders of magnitude above the tolerance (``tests/test_plan_stability.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass
class ClusteringResult:
    """Outcome of clustering non-tuning experts in every layer."""

    #: per layer: list of clusters, each a list of *original* expert ids
    clusters_per_layer: List[List[List[int]]]
    #: wall-clock seconds spent clustering (reported in Figure 16)
    elapsed_seconds: float
    mode: str
    #: smallest gap between the best and second-best centroid distance at any
    #: assignment K-Means made (``inf`` when no point ever had two candidates):
    #: how far the plan is from a different one
    min_margin: float = float("inf")

    def num_clusters(self) -> int:
        return sum(len(clusters) for clusters in self.clusters_per_layer)


def pca_reduce(gram: np.ndarray, components: int) -> np.ndarray:
    """PCA coordinates of ``n`` points from the ``(n, n)`` Gram matrix of their rows.

    ``gram = X @ X.T`` for the (uncentred) feature rows ``X``.  Centring the
    rows is a double-centring of ``gram``, and the eigenvectors of the centred
    Gram matrix scaled by the square roots of their eigenvalues are the rows'
    coordinates along their principal axes — what projecting the centred rows
    onto their top right singular vectors gives (the oracle in
    ``tests/plan_oracles.py``), up to the sign of each axis, at O(n³) whatever
    the feature width.
    """
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError("pca_reduce expects a square Gram matrix")
    components = max(1, min(components, len(gram)))
    centred = (gram - gram.mean(axis=0, keepdims=True) - gram.mean(axis=1, keepdims=True)
               + gram.mean())
    eigenvalues, eigenvectors = np.linalg.eigh(centred)        # ascending
    top = slice(None, -components - 1, -1)
    # centring leaves rank n - 1: the smallest eigenvalue is rounding noise of either sign
    return eigenvectors[:, top] * np.sqrt(np.maximum(eigenvalues[top], 0.0))


def _cosine_distances(points: np.ndarray, centroids: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Pairwise cosine distances between points and centroids."""
    point_norms = np.linalg.norm(points, axis=1, keepdims=True)
    centroid_norms = np.linalg.norm(centroids, axis=1, keepdims=True)
    sim = (points @ centroids.T) / np.maximum(point_norms * centroid_norms.T, eps)
    return 1.0 - sim


#: centroid distances closer than this count as tied; the lowest index wins
TIE_TOLERANCE = 1e-9


def _kmeans(points: np.ndarray, point_layers: np.ndarray, centroid_layers: np.ndarray,
            iterations: int, rng: np.random.Generator) -> Tuple[np.ndarray, float]:
    """Layer-constrained K-Means: points may only join centroids of their layer.

    Returns the assignment and the smallest best-vs-second-best distance gap
    seen at any assignment.  A layer's centroids start on *distinct* points of
    it (a layer never has more centroids than points): two centroids on one
    point would tie exactly for every point of the layer, and the loser would
    end empty.
    """
    num_centroids = len(centroid_layers)
    centroids = np.zeros((num_centroids, points.shape[1]))
    for layer in np.unique(centroid_layers):
        mine = np.flatnonzero(centroid_layers == layer)
        candidates = np.flatnonzero(point_layers == layer)
        centroids[mine] = points[rng.choice(candidates, size=len(mine), replace=False)]

    cross_layer = point_layers[:, None] != centroid_layers[None, :]
    assignment = np.zeros(len(points), dtype=np.int64)
    min_margin = np.inf
    for _ in range(max(iterations, 1)):
        distances = _cosine_distances(points, centroids)
        distances[cross_layer] = np.inf
        best = distances.min(axis=1, keepdims=True)
        # first centroid within the tolerance of the best: a near-tie goes to
        # the lowest index whichever way rounding fell
        new_assignment = np.argmax(distances <= best + TIE_TOLERANCE, axis=1)
        if num_centroids > 1:
            gaps = np.partition(distances, 1, axis=1)[:, 1] - best[:, 0]
            min_margin = min(min_margin, float(gaps.min()))
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for index in range(num_centroids):
            members = points[assignment == index]
            if len(members):
                centroids[index] = members.mean(axis=0)
    return assignment, min_margin


def cluster_experts(
    expert_grams: Sequence[np.ndarray],
    expert_ids: Sequence[Sequence[int]],
    budgets: Sequence[int],
    mode: str = "fused",
    pca_components: int = 8,
    iterations: int = 10,
    seed: int = 0,
) -> ClusteringResult:
    """Cluster each layer's non-tuning experts into its merge budget.

    Parameters
    ----------
    expert_grams:
        Per layer, the ``(num_non_tuning, num_non_tuning)`` Gram matrix
        ``W @ W.T`` of the flattened weights of that layer's non-tuning
        experts, in the order of ``expert_ids`` — all that PCA and cosine
        K-Means read of the weights.
    expert_ids:
        Per layer, the original expert ids corresponding to the Gram rows.
    budgets:
        Per layer, the number of clusters (merged experts) to produce.
    mode:
        ``"fused"`` runs one K-Means across all layers with a cross-layer
        mask; ``"per_layer"`` runs an independent K-Means per layer (the
        comparison baseline of Figure 16).
    """
    if not (len(expert_grams) == len(expert_ids) == len(budgets)):
        raise ValueError("expert_grams, expert_ids and budgets must be aligned per layer")
    if mode not in ("fused", "per_layer"):
        raise ValueError(f"unknown clustering mode {mode!r}")
    rng = np.random.default_rng(seed)

    start = time.perf_counter()
    reduced = [pca_reduce(gram, pca_components) if len(gram) else np.zeros((0, 1))
               for gram in expert_grams]

    cluster = _cluster_fused if mode == "fused" else _cluster_per_layer
    clusters, min_margin = cluster(reduced, expert_ids, budgets, iterations, rng)
    elapsed = time.perf_counter() - start
    return ClusteringResult(clusters_per_layer=clusters, elapsed_seconds=elapsed, mode=mode,
                            min_margin=min_margin)


def _effective_budget(budget: int, available: int) -> int:
    return max(1, min(budget, available)) if available else 0


def _cluster_fused(reduced: Sequence[np.ndarray], expert_ids: Sequence[Sequence[int]],
                   budgets: Sequence[int], iterations: int,
                   rng: np.random.Generator) -> Tuple[List[List[List[int]]], float]:
    # Pad features to a common dimensionality and stack everything.
    non_empty = [r for r in reduced if len(r)]
    if not non_empty:
        return [[] for _ in reduced], float("inf")
    dim = max(r.shape[1] for r in non_empty)
    points, point_layers, point_expert_ids = [], [], []
    centroid_layers: List[int] = []
    for layer, (features, ids, budget) in enumerate(zip(reduced, expert_ids, budgets)):
        if len(features) == 0:
            continue
        padded = np.zeros((len(features), dim))
        padded[:, : features.shape[1]] = features
        points.append(padded)
        point_layers.extend([layer] * len(features))
        point_expert_ids.extend(int(i) for i in ids)
        centroid_layers.extend([layer] * _effective_budget(budget, len(features)))

    stacked = np.vstack(points)
    assignment, min_margin = _kmeans(stacked, np.asarray(point_layers),
                                     np.asarray(centroid_layers), iterations, rng)

    clusters: List[List[List[int]]] = [[] for _ in reduced]
    centroid_layers_arr = np.asarray(centroid_layers)
    for centroid_index in range(len(centroid_layers)):
        members = [point_expert_ids[i] for i in np.flatnonzero(assignment == centroid_index)]
        if members:
            clusters[int(centroid_layers_arr[centroid_index])].append(sorted(members))
    _absorb_unassigned(clusters, expert_ids)
    return clusters, min_margin


def _cluster_per_layer(reduced: Sequence[np.ndarray], expert_ids: Sequence[Sequence[int]],
                       budgets: Sequence[int], iterations: int,
                       rng: np.random.Generator) -> Tuple[List[List[List[int]]], float]:
    clusters: List[List[List[int]]] = []
    min_margin = float("inf")
    for features, ids, budget in zip(reduced, expert_ids, budgets):
        if len(features) == 0:
            clusters.append([])
            continue
        k = _effective_budget(budget, len(features))
        assignment, margin = _kmeans(np.asarray(features),
                                     np.zeros(len(features), dtype=np.int64),
                                     np.zeros(k, dtype=np.int64), iterations, rng)
        min_margin = min(min_margin, margin)
        layer_clusters = []
        for index in range(k):
            members = [int(ids[i]) for i in np.flatnonzero(assignment == index)]
            if members:
                layer_clusters.append(sorted(members))
        clusters.append(layer_clusters)
    _absorb_unassigned(clusters, expert_ids)
    return clusters, min_margin


def _absorb_unassigned(clusters: List[List[List[int]]], expert_ids: Sequence[Sequence[int]]) -> None:
    """Guarantee every non-tuning expert belongs to exactly one cluster."""
    for layer, ids in enumerate(expert_ids):
        assigned = {expert for cluster in clusters[layer] for expert in cluster}
        missing = [int(i) for i in ids if int(i) not in assigned]
        if missing:
            if clusters[layer]:
                clusters[layer][0].extend(missing)
                clusters[layer][0].sort()
            else:
                clusters[layer].append(sorted(missing))
