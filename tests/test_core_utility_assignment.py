"""Tests for expert utility, forward-only gradient estimation and role assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EpsilonSchedule,
    ExpertRoleAssigner,
    UtilityTracker,
    estimate_expert_gradient,
    expert_utility,
    gradient_cosine_distance,
    normalize_utilities,
    solve_candidate_selection,
    true_expert_gradient,
)


class TestExpertUtility:
    def test_formula(self):
        assert expert_utility(4, 2.0) == pytest.approx(4.0)
        assert expert_utility(9, 1.0) == pytest.approx(3.0)

    def test_zero_data_zero_utility(self):
        assert expert_utility(0, 10.0) == 0.0

    def test_negative_gradient_clamped(self):
        assert expert_utility(4, -1.0) == 0.0

    def test_monotonic_in_both_arguments(self):
        assert expert_utility(16, 1.0) > expert_utility(4, 1.0)
        assert expert_utility(4, 2.0) > expert_utility(4, 1.0)

    def test_normalize_utilities(self):
        normalized = normalize_utilities({(0, 0): 2.0, (0, 1): 4.0})
        assert normalized[(0, 1)] == pytest.approx(1.0)
        assert normalized[(0, 0)] == pytest.approx(0.5)
        assert normalize_utilities({}) == {}
        assert normalize_utilities({(0, 0): 0.0}) == {(0, 0): 0.0}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10_000), st.floats(min_value=0, max_value=100))
def test_expert_utility_non_negative_property(data_size, grad_norm):
    assert expert_utility(data_size, grad_norm) >= 0.0


class TestUtilityTracker:
    def test_initialize_from_frequencies(self):
        tracker = UtilityTracker()
        tracker.initialize_from_frequencies([((0, 0), 0.2), ((0, 1), 0.8)])
        assert tracker.utilities[(0, 1)] == pytest.approx(1.0)
        assert tracker.update_counts == {(0, 0): 0, (0, 1): 0}

    def test_first_observation_overwrites_initialisation(self):
        tracker = UtilityTracker(smoothing=0.5)
        tracker.initialize_from_frequencies([((0, 0), 0.5)])
        tracker.observe((0, 0), 10.0)
        assert tracker.utilities[(0, 0)] == pytest.approx(10.0)

    def test_subsequent_observations_smoothed(self):
        tracker = UtilityTracker(smoothing=0.5)
        tracker.observe((0, 0), 10.0)
        tracker.observe((0, 0), 0.0)
        assert tracker.utilities[(0, 0)] == pytest.approx(5.0)

    def test_observe_many(self):
        tracker = UtilityTracker()
        tracker.observe_many({(0, 0): 1.0, (0, 1): 5.0, (1, 0): 3.0})
        assert tracker.as_dict() == {(0, 0): 1.0, (0, 1): 5.0, (1, 0): 3.0}

    def test_stale_experts_cleared_after_observation(self):
        tracker = UtilityTracker()
        tracker.initialize_from_frequencies([((0, 0), 0.5), ((0, 1), 0.2)])
        tracker.observe((0, 0), 1.0)
        assert tracker.update_counts == {(0, 0): 1, (0, 1): 0}

    def test_negative_observation_clamped(self):
        tracker = UtilityTracker()
        tracker.observe((0, 0), -5.0)
        assert tracker.utilities[(0, 0)] == 0.0


class TestGradientEstimation:
    def test_estimate_has_positive_norm_and_restores_weights(self, tiny_model, gsm_batches):
        before = tiny_model.get_expert(0, 0).weight_vector().copy()
        estimate = estimate_expert_gradient(tiny_model, gsm_batches[:1], 0, 0,
                                            num_perturbations=2, seed=0)
        after = tiny_model.get_expert(0, 0).weight_vector()
        assert np.allclose(before, after)
        assert estimate.norm() > 0
        assert estimate.flatten().shape[0] == before.shape[0]

    def test_estimate_correlates_with_true_gradient(self, tiny_model, gsm_batches):
        """The forward-only estimate should point roughly in the true direction."""
        layer, expert = 0, int(np.argmax(
            tiny_model.activation_frequencies()[0])) if tiny_model.routing_records()[0].total_tokens else 0
        # make sure routing stats exist
        batch = gsm_batches[0]
        tiny_model.forward(batch.input_ids, attention_mask=batch.attention_mask)
        expert = int(np.argmax(tiny_model.activation_frequencies()[0]))
        truth = true_expert_gradient(tiny_model, gsm_batches[:1], layer, expert)
        estimate = estimate_expert_gradient(tiny_model, gsm_batches[:1], layer, expert,
                                            num_perturbations=24, sigma=1e-3, seed=1)
        distance = gradient_cosine_distance(estimate, truth)
        assert distance < 1.0  # strictly better than orthogonal

    def test_invalid_arguments(self, tiny_model, gsm_batches):
        with pytest.raises(ValueError):
            estimate_expert_gradient(tiny_model, gsm_batches[:1], 0, 0, num_perturbations=0)
        with pytest.raises(ValueError):
            estimate_expert_gradient(tiny_model, gsm_batches[:1], 0, 0, sigma=0.0)
        with pytest.raises(ValueError):
            estimate_expert_gradient(tiny_model, [], 0, 0)
        with pytest.raises(ValueError):
            true_expert_gradient(tiny_model, [], 0, 0)

    def test_true_gradient_nonzero_for_routed_expert(self, tiny_model, gsm_batches):
        batch = gsm_batches[0]
        tiny_model.forward(batch.input_ids, attention_mask=batch.attention_mask)
        expert = int(np.argmax(tiny_model.activation_frequencies()[0]))
        truth = true_expert_gradient(tiny_model, gsm_batches[:1], 0, expert)
        total = sum(np.abs(g).sum() for g in truth.values())
        assert total > 0

    def test_cosine_distance_of_identical_gradients_is_zero(self, tiny_model, gsm_batches):
        batch = gsm_batches[0]
        tiny_model.forward(batch.input_ids, attention_mask=batch.attention_mask)
        expert = int(np.argmax(tiny_model.activation_frequencies()[0]))
        truth = true_expert_gradient(tiny_model, gsm_batches[:1], 0, expert)
        from repro.core.gradient_estimation import GradientEstimate
        fake = GradientEstimate(layer=0, expert=expert, gradient=truth, num_perturbations=1)
        assert gradient_cosine_distance(fake, truth) == pytest.approx(0.0, abs=1e-12)


class TestCandidateSelection:
    def test_top_k_by_utility(self):
        utilities = {(0, 0): 0.1, (0, 1): 0.9, (1, 0): 0.5}
        assert solve_candidate_selection(utilities, 2) == [(0, 1), (1, 0)]

    def test_budget_larger_than_pool(self):
        utilities = {(0, 0): 0.1}
        assert solve_candidate_selection(utilities, 10) == [(0, 0)]

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            solve_candidate_selection({(0, 0): 1.0}, 0)

    def test_deterministic_tie_breaking(self):
        utilities = {(0, 1): 0.5, (0, 0): 0.5}
        assert solve_candidate_selection(utilities, 1) == [(0, 0)]


class TestExpertRoleAssigner:
    def _experts(self, layers=2, per_layer=4):
        return [(l, e) for l in range(layers) for e in range(per_layer)]

    def test_requires_experts(self):
        with pytest.raises(ValueError):
            ExpertRoleAssigner([])

    def test_assignment_sizes_follow_epsilon(self):
        assigner = ExpertRoleAssigner(self._experts(), epsilon=EpsilonSchedule.fixed(0.5), seed=0)
        utilities = {0: {key: float(i) for i, key in enumerate(self._experts())}}
        assignment = assigner.assign(0, utilities, {0: 4})[0]
        assert len(assignment.candidates) == 4
        assert len(assignment.exploitation) == 2
        assert len(assignment.exploration) == 2
        assert assignment.epsilon == pytest.approx(0.5)

    def test_exploitation_is_highest_utility(self):
        assigner = ExpertRoleAssigner(self._experts(), epsilon=EpsilonSchedule.fixed(0.5), seed=0)
        utilities = {0: {key: float(i) for i, key in enumerate(self._experts())}}
        assignment = assigner.assign(0, utilities, {0: 4})[0]
        best = max(utilities[0], key=utilities[0].get)
        assert best in assignment.exploitation

    def test_exploration_disjoint_from_exploitation(self):
        assigner = ExpertRoleAssigner(self._experts(), epsilon=EpsilonSchedule.fixed(0.3), seed=1)
        utilities = {0: {key: 1.0 for key in self._experts()}}
        assignment = assigner.assign(0, utilities, {0: 6})[0]
        assert set(assignment.exploitation).isdisjoint(set(assignment.exploration))

    def test_full_exploitation_with_epsilon_one(self):
        assigner = ExpertRoleAssigner(self._experts(), epsilon=EpsilonSchedule.fixed(1.0), seed=0)
        utilities = {0: {key: float(i) for i, key in enumerate(self._experts())}}
        assignment = assigner.assign(0, utilities, {0: 3})[0]
        assert len(assignment.exploitation) == 3
        assert assignment.exploration == []

    def test_missing_utilities_default_to_zero(self):
        assigner = ExpertRoleAssigner(self._experts(), seed=0)
        assignment = assigner.assign(0, {}, {0: 2})[0]
        assert len(assignment.candidates) == 2

    def test_dynamic_epsilon_increases_over_rounds(self):
        assigner = ExpertRoleAssigner(self._experts(),
                                      epsilon=EpsilonSchedule(initial=0.3, final=0.9,
                                                              warmup_rounds=5), seed=0)
        utilities = {0: {key: 1.0 for key in self._experts()}}
        early = assigner.assign(0, utilities, {0: 4})[0]
        late = assigner.assign(10, utilities, {0: 4})[0]
        assert late.epsilon > early.epsilon
        assert len(late.exploitation) >= len(early.exploitation)

    def test_multiple_participants_assigned_independently(self):
        assigner = ExpertRoleAssigner(self._experts(), seed=0)
        utilities = {0: {(0, 0): 5.0}, 1: {(1, 3): 5.0}}
        assignments = assigner.assign(0, utilities, {0: 2, 1: 2})
        assert (0, 0) in assignments[0].candidates
        assert (1, 3) in assignments[1].candidates

    def test_layer_grouping_helpers(self):
        assigner = ExpertRoleAssigner(self._experts(), epsilon=EpsilonSchedule.fixed(0.5), seed=0)
        utilities = {0: {key: float(i) for i, key in enumerate(self._experts())}}
        assignment = assigner.assign(0, utilities, {0: 4})[0]
        by_layer = assignment.tuning_by_layer()
        flattened = [(l, e) for l, experts in by_layer.items() for e in experts]
        assert sorted(flattened) == sorted(assignment.exploitation)
