"""The Flux plan is a discrete decision: it must not sit on an edge rounding can cross.

Three checks, each against the real thing (SysMoBench's discipline, PAPERS.md):

* a perturbation probe — replan every preset under random relative
  perturbations of 1e-12 of the weights: no cluster may flip, none may end
  empty, and the smallest best-vs-second-best distance gap K-Means saw
  (``ClusteringResult.min_margin``) must be far above the tie tolerance;
* equal clusters — the Gram-matrix PCA against the SVD it replaced
  (``plan_oracles``), on every participant-round of both Flux workloads of the
  end-to-end benchmark;
* the two mechanisms that make it so: distinct initial centroids and
  lowest-index tie-breaking;
* report only, the round's other float-ranked choice — the utility ranking of
  role assignment (``RoleAssignment.min_margin``: the gap at the budget cut
  and at the exploit cut), on the same runs: positive, or an exact tie that
  the expert key broke.

``REPRO_STABILITY_DRAWS`` sets the number of perturbations (100; the nightly
lane runs 1000).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.core.flux_client as flux_client
from repro.analysis import profile_activation
from repro.core import FluxConfig, cluster_experts, plan_compact_model
from repro.core.clustering import TIE_TOLERANCE, _kmeans
from repro.data import Vocabulary, make_batches, make_gsm8k_like
from repro.models import MoETransformer
from repro.models.presets import PRESETS, get_preset

from plan_oracles import e2e_workloads, svd_plan_clusters

DRAWS = int(os.environ.get("REPRO_STABILITY_DRAWS", "100"))
PERTURBATION = 1e-12


def no_cluster_empty(plan) -> bool:
    return all(len(clusters) == budget
               for clusters, budget in zip(plan.clusters, plan.layer_budgets))


# ---------------------------------------------------------- perturbation probe
@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replanning_under_weight_noise_never_flips_a_cluster(preset, seed):
    vocab = Vocabulary(size=96, num_topics=4)
    model = MoETransformer(get_preset(preset, vocab_size=vocab.size, seed=seed))
    dataset = make_gsm8k_like(vocab=vocab, num_samples=32, seed=seed)
    batches = make_batches(dataset.samples, 16, vocab, shuffle=False,
                           max_seq_len=model.config.max_seq_len)
    profile = profile_activation(model, batches)
    tuning = {layer: [int(np.argmax(freq))] for layer, freq in enumerate(profile.frequencies)}
    # enough slots for several clusters a layer: a plan with one has no decision to flip
    slots = sum(model.experts_per_layer()) // 2
    config = FluxConfig(seed=seed)

    def replan():
        return plan_compact_model(model, tuning, profile, max_non_tuning_slots=slots,
                                  config=config)

    reference = replan()
    assert any(len(clusters) > 1 for clusters in reference.clusters)
    assert no_cluster_empty(reference)
    assert reference.clustering.min_margin > 1000 * TIE_TOLERANCE

    rng = np.random.default_rng(seed)
    experts = [param for layer in model.moe_layers() for expert in layer.experts
               for param in expert.parameters()]
    originals = [param.data.copy() for param in experts]
    flips = 0
    for _ in range(DRAWS):
        for param, original in zip(experts, originals):
            param.data[...] = original * (1.0 + PERTURBATION * rng.standard_normal(original.shape))
        plan = replan()
        flips += plan.clusters != reference.clusters
        assert no_cluster_empty(plan)
    assert flips == 0


# ------------------------------------------------------- equal clusters vs SVD
def _federation_plans(name, seed, tmp_path):
    """Every plan of one end-to-end Flux run, with the SVD oracle's clusters beside it.

    And every role assignment, with the utilities it ranked:
    ``(utilities, RoleAssignment)`` per participant-round.
    """
    workloads = e2e_workloads()
    workload = workloads.WORKLOADS[name]
    tuner = workloads.build(workload, seed, str(tmp_path))
    plans, roles = [], []
    plan_model = flux_client.plan_compact_model
    assign = tuner.assigner.assign

    def recording(model, *args, **kwargs):
        plan = plan_model(model, *args, **kwargs)
        plans.append((plan, svd_plan_clusters(model, plan, kwargs["config"])))
        return plan

    def recording_roles(round_index, utilities, budgets):
        assignments = assign(round_index, utilities, budgets)
        unseen = dict.fromkeys(tuner.assigner.all_experts, 0.0)    # as ``assign`` ranks them
        roles.extend(({**unseen, **utilities.get(pid, {})}, assignment)
                     for pid, assignment in assignments.items())
        return assignments

    flux_client.plan_compact_model = recording
    tuner.assigner.assign = recording_roles
    try:
        tuner.run(num_rounds=workload.rounds)
    finally:
        flux_client.plan_compact_model = plan_model
        tuner.close()
    assert len(plans) == len(roles) == workload.rounds * tuner.config.participants_per_round
    return plans, roles


def _cut_is_ranked(utilities, kept, dropped) -> bool:
    """Every kept expert outranks every dropped one: by utility, an exact tie by key."""
    def rank(key):
        return -utilities[key], key

    return not kept or not dropped or max(map(rank, kept)) < min(map(rank, dropped))


@pytest.mark.parametrize("seed", [0] + [pytest.param(s, marks=pytest.mark.slow)
                                        for s in (1, 2, 43)])
@pytest.mark.parametrize("name", ["flux_explore", "flux_exploit_deepseek"])
def test_gram_pca_plans_the_clusters_the_svd_planned(name, seed, tmp_path):
    plans, roles = _federation_plans(name, seed, tmp_path)
    margins = [role.min_margin for _, role in roles]
    assert all(margin >= 0 for margin in margins) and any(np.isfinite(margins))
    for utilities, role in roles:
        # > 0, or an exact tie and the lower key won: never a near-tie decided
        # by anything but the ranking
        dropped = [key for key in role.candidates if key not in role.exploitation]
        assert _cut_is_ranked(utilities, role.exploitation, dropped)
        assert _cut_is_ranked(utilities, role.candidates,
                              [key for key in utilities if key not in role.candidates])
    print(f"{name} seed {seed}: smallest utility margin "
          f"{min(margins):.3g}, smallest positive "
          f"{min((m for m in margins if m > 0), default=float('inf')):.3g}")
    for plan, oracle in plans:
        assert plan.clusters == oracle.clusters_per_layer
        assert no_cluster_empty(plan)
        assert plan.clustering.min_margin > 1000 * TIE_TOLERANCE
    if name == "flux_exploit_deepseek":     # the workload whose layers hold several clusters
        assert all(np.isfinite(plan.clustering.min_margin) for plan, _ in plans)


# ------------------------------------------------------------------ mechanisms
def test_a_layers_centroids_start_on_distinct_points():
    """As many clusters as points: drawn with replacement, two centroids would
    share a point and one of them end empty."""
    rng = np.random.default_rng(0)
    for seed in range(20):
        features = [rng.standard_normal((6, 12)), rng.standard_normal((5, 12))]
        result = cluster_experts([f @ f.T for f in features], [list(range(6)), list(range(5))],
                                 budgets=[6, 5], seed=seed)
        assert [len(clusters) for clusters in result.clusters_per_layer] == [6, 5]


class _FixedChoice:
    """A generator whose ``choice`` picks the first ``size`` candidates."""

    @staticmethod
    def choice(candidates, size, replace):
        assert not replace
        return candidates[:size]


def test_near_ties_break_by_lowest_centroid_index():
    gap = 1e-11
    points = np.array([[1.0, 0.5], [1.0, -0.5 + gap], [1.0, 0.0]])   # the third sits between
    layers = np.zeros(3, dtype=np.int64)
    assignment, margin = _kmeans(points, layers, np.zeros(2, dtype=np.int64), 1, _FixedChoice)
    distances = 1.0 - (points[2] @ points[:2].T) / (
        np.linalg.norm(points[2]) * np.linalg.norm(points[:2], axis=1))
    assert distances[1] < distances[0] and distances[0] - distances[1] < TIE_TOLERANCE
    assert assignment.tolist() == [0, 1, 0]
    assert margin < TIE_TOLERANCE           # and the result says how close it was
