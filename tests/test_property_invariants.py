"""Cross-cutting property-based tests of core invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import EpsilonSchedule, merge_weights, normalize_utilities, solve_candidate_selection
from repro.core.layer_budget import uniform_layer_budgets
from repro.data import Vocabulary
from repro.models import ExpertRemap
from repro.quantization import quantize_array

from fold_oracles import fedavg_states

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(arrays(np.float64, (3, 4), elements=finite), min_size=1, max_size=5),
    st.data(),
)
def test_fedavg_stays_within_convex_hull(states_list, data):
    """FedAvg of expert states is a convex combination: bounded by min/max inputs."""
    weights = data.draw(st.lists(st.floats(min_value=0.01, max_value=10.0),
                                 min_size=len(states_list), max_size=len(states_list)))
    states = [{"w": s} for s in states_list]
    averaged = fedavg_states(states, weights)["w"]
    stacked = np.stack(states_list)
    assert np.all(averaged <= stacked.max(axis=0) + 1e-9)
    assert np.all(averaged >= stacked.min(axis=0) - 1e-9)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (4, 8), elements=finite), st.sampled_from([2, 4, 8]))
def test_quantization_is_idempotent(weights, bits):
    """Quantizing an already-quantized matrix changes nothing."""
    once = quantize_array(weights, bits).dequantize()
    twice = quantize_array(once, bits).dequantize()
    assert np.allclose(once, twice, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10_000))
def test_expert_remap_covers_all_slots(num_experts, seed):
    """Any remap built from a random tuning/cluster split covers every original id."""
    rng = np.random.default_rng(seed)
    ids = list(range(num_experts))
    rng.shuffle(ids)
    cut = rng.integers(0, num_experts + 1)
    tuning, rest = ids[:cut], ids[cut:]
    clusters = [rest] if rest else []
    remap, _, _ = ExpertRemap.from_clusters(num_experts, tuning, clusters)
    mapped = remap.apply(np.arange(num_experts))
    assert mapped.min() >= 0
    expected_slots = len(tuning) + len(clusters)
    assert mapped.max() < max(expected_slots, 1)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 7)), positive,
                       min_size=1, max_size=20),
       st.integers(min_value=1, max_value=10))
def test_candidate_selection_returns_highest_utilities(utilities, budget):
    selected = solve_candidate_selection(utilities, budget)
    assert len(selected) == min(budget, len(utilities))
    if len(selected) < len(utilities):
        threshold = min(utilities[key] for key in selected)
        unselected_max = max(utilities[key] for key in utilities if key not in selected)
        assert threshold >= unselected_max - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 7)), positive,
                       min_size=1, max_size=20))
def test_normalized_utilities_bounded(utilities):
    normalized = normalize_utilities(utilities)
    assert all(0.0 <= value <= 1.0 for value in normalized.values())


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=1, max_value=50))
def test_epsilon_schedule_monotone_and_bounded(initial, final, warmup):
    schedule = EpsilonSchedule(initial=initial, final=final, warmup_rounds=warmup)
    values = [schedule.value(r) for r in range(0, warmup * 2 + 1)]
    assert all(0.0 <= v <= 1.0 for v in values)
    if final >= initial:
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    else:
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(final)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=30),
       st.data())
def test_merge_weights_are_normalizable(num_members, seed, data):
    rng = np.random.default_rng(seed)
    frequencies = rng.random(16)
    attentions = rng.random(16)
    members = list(rng.choice(16, size=num_members, replace=False))
    strategy = data.draw(st.sampled_from(["average", "frequency", "attention_frequency"]))
    weights = merge_weights(members, frequencies, attentions, strategy)
    assert len(weights) == num_members
    assert np.all(weights >= 0)
    assert weights.sum() > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=40))
def test_uniform_budgets_sum_exactly(num_layers, extra):
    total = num_layers + extra
    budgets = uniform_layer_budgets(total, num_layers)
    assert sum(budgets) == total
    assert max(budgets) - min(budgets) <= 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=64, max_value=512), st.integers(min_value=1, max_value=16))
def test_vocabulary_topic_blocks_partition_content(size, num_topics):
    try:
        vocab = Vocabulary(size=size, num_topics=num_topics)
    except ValueError:
        return  # too small for that many topics: rejection is the contract
    seen = set()
    for topic in range(num_topics):
        block = set(vocab.topic_block(topic))
        assert not (seen & block)
        seen |= block
    assert not seen & {vocab.PAD, *vocab.choice_tokens(), *vocab.digit_tokens()}
