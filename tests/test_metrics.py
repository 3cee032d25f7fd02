"""Tests for ROUGE-L, model evaluation and the time-to-accuracy tracker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Adam
from repro.data import make_dolly_like, make_gsm8k_like, make_batches
from repro.federated import RoundResult
from repro.metrics import (
    PerformanceTracker,
    corpus_rouge_l,
    evaluate_model,
    rouge_l,
)
from repro.models import MoETransformer
from repro.systems import RoundTimeline


class TestRougeL:
    def test_identical_sequences_score_one(self):
        assert rouge_l([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_disjoint_sequences_score_zero(self):
        assert rouge_l([1, 2, 3], [4, 5, 6]) == 0.0

    def test_empty_sequences(self):
        assert rouge_l([], [1, 2]) == 0.0
        assert rouge_l([1, 2], []) == 0.0

    def test_subsequence_scores_between_zero_and_one(self):
        score = rouge_l([1, 9, 2, 8, 3], [1, 2, 3])
        assert 0.0 < score < 1.0

    def test_order_matters(self):
        in_order = rouge_l([1, 2, 3, 4], [1, 2, 3, 4])
        reversed_score = rouge_l([4, 3, 2, 1], [1, 2, 3, 4])
        assert in_order > reversed_score

    def test_known_lcs_value(self):
        # candidate [1,3,5], reference [1,2,3,4,5]: LCS = 3
        score = rouge_l([1, 3, 5], [1, 2, 3, 4, 5], beta=1.0)
        precision, recall = 3 / 3, 3 / 5
        expected = 2 * precision * recall / (precision + recall)
        assert score == pytest.approx(expected)

    def test_corpus_rouge_is_mean(self):
        candidates = [[1, 2], [3, 4]]
        references = [[1, 2], [9, 9]]
        assert corpus_rouge_l(candidates, references) == pytest.approx(0.5)

    def test_corpus_requires_alignment(self):
        with pytest.raises(ValueError):
            corpus_rouge_l([[1]], [[1], [2]])

    def test_corpus_empty_is_zero(self):
        assert corpus_rouge_l([], []) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=12))
def test_rouge_identity_property(sequence):
    assert rouge_l(sequence, sequence) == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=10),
    st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=10),
)
def test_rouge_bounded_property(a, b):
    assert 0.0 <= rouge_l(a, b) <= 1.0


class TestEvaluateModel:
    def test_classification_metric_in_unit_interval(self, vocab, tiny_config):
        model = MoETransformer(tiny_config)
        dataset = make_gsm8k_like(vocab=vocab, num_samples=30, seed=0)
        value = evaluate_model(model, dataset, max_samples=20)
        assert 0.0 <= value <= 1.0

    def test_generation_metric_in_unit_interval(self, vocab, tiny_config):
        model = MoETransformer(tiny_config)
        dataset = make_dolly_like(vocab=vocab, num_samples=20, seed=0)
        value = evaluate_model(model, dataset, max_samples=10)
        assert 0.0 <= value <= 1.0

    @pytest.mark.slow
    def test_training_improves_generation_metric(self, vocab, tiny_config):
        model = MoETransformer(tiny_config)
        dataset = make_dolly_like(vocab=vocab, num_samples=60, seed=1)
        before = evaluate_model(model, dataset, max_samples=30, seed=1)
        batches = make_batches(dataset.samples, 16, vocab, seed=0,
                               max_seq_len=tiny_config.max_seq_len)
        optimizer = Adam(list(model.parameters()), lr=5e-3)
        for _ in range(6):
            for batch in batches:
                optimizer.zero_grad()
                loss = model.compute_loss(batch.input_ids, labels=batch.labels,
                                          attention_mask=batch.attention_mask)
                loss.backward()
                optimizer.step()
        after = evaluate_model(model, dataset, max_samples=30, seed=1)
        assert after > before

    def test_empty_dataset_rejected(self, vocab, tiny_config):
        model = MoETransformer(tiny_config)
        dataset = make_gsm8k_like(vocab=vocab, num_samples=10, seed=0).subset([])
        with pytest.raises(ValueError):
            evaluate_model(model, dataset)

    def test_model_left_in_train_mode(self, vocab, tiny_config):
        model = MoETransformer(tiny_config)
        dataset = make_gsm8k_like(vocab=vocab, num_samples=10, seed=0)
        evaluate_model(model, dataset, max_samples=5)
        assert model.training

    def test_eval_mode_model_stays_in_eval_mode(self, vocab, tiny_config):
        model = MoETransformer(tiny_config)
        model.eval()
        dataset = make_gsm8k_like(vocab=vocab, num_samples=10, seed=0)
        evaluate_model(model, dataset, max_samples=5)
        assert not model.training
        assert not any(module.training for module in model.modules())

def rounds_of(*rows, **fields):
    """RoundResults for ``(simulated_time, metric_value)`` rows; ``fields`` per round."""
    train_loss = fields.pop("train_loss", 0.0)
    return [RoundResult(round_index=i, train_loss=train_loss, metric_value=metric, simulated_time=time, round_duration=0.0,
                        timeline=RoundTimeline(round_index=i), **fields)
            for i, (time, metric) in enumerate(rows)]


class TestPerformanceTracker:
    def test_relative_accuracy(self):
        tracker = PerformanceTracker(target=0.5, rounds=rounds_of((10.0, 0.25)))
        assert tracker.as_series()[0]["relative_accuracy"] == pytest.approx(0.5)

    def test_time_to_target(self):
        tracker = PerformanceTracker(0.5, rounds_of((10.0, 0.2), (20.0, 0.55), (30.0, 0.6)))
        assert tracker.time_to_target() == pytest.approx(20.0)

    def test_time_to_target_not_reached(self):
        tracker = PerformanceTracker(0.9, rounds_of((10.0, 0.2)))
        assert tracker.time_to_target() is None

    def test_time_to_custom_target(self):
        tracker = PerformanceTracker(0.9, rounds_of((5.0, 0.3)))
        assert tracker.time_to_target(0.25) == pytest.approx(5.0)

    def test_best_and_final_metric(self):
        tracker = PerformanceTracker(1.0, rounds_of((1.0, 0.4), (2.0, 0.7), (3.0, 0.6)))
        assert tracker.best_metric() == pytest.approx(0.7)
        assert tracker.final_metric() == pytest.approx(0.6)

    def test_series_rendering(self):
        tracker = PerformanceTracker(1.0, rounds_of((1.0, 0.4), train_loss=2.0))
        series = tracker.as_series()
        assert series[0]["round"] == 0
        assert series[0]["train_loss"] == pytest.approx(2.0)

    def test_empty_tracker_defaults(self):
        tracker = PerformanceTracker(target=1.0)
        assert tracker.best_metric() == 0.0
        assert tracker.final_metric() == 0.0
        assert tracker.times() == []

    def test_empty_history_queries_and_totals(self):
        tracker = PerformanceTracker(target=0.5)
        assert tracker.time_to_target() is None
        assert tracker.as_series() == []

    def test_non_positive_target_gives_zero_relative_accuracy(self):
        for target in (0.0, -1.0):
            tracker = PerformanceTracker(target, rounds_of((1.0, 0.5)))
            assert tracker.as_series()[0]["relative_accuracy"] == 0.0

    def test_target_never_reached_over_many_rounds(self):
        # plateaus at 0.4
        tracker = PerformanceTracker(0.9, rounds_of(*[(float(i + 1), 0.1 * i)
                                                      for i in range(5)]))
        assert tracker.time_to_target() is None
        # a custom (lower) target can still be answered from the same rounds
        assert tracker.time_to_target(0.2) == pytest.approx(3.0)

    def test_wire_fields_in_the_series(self):
        rounds = (rounds_of((1.0, 0.1), wire_bytes=100.0, wire_seconds=0.5,
                            payloads_lost=1, payloads_corrupted=2, tier_bytes=[48.0, 16.0])
                  + rounds_of((2.0, 0.2), wire_bytes=50.0, wire_seconds=0.25,
                              payloads_corrupted=1, tier_bytes=[32.0]))
        series = PerformanceTracker(1.0, rounds).as_series()
        assert [row["comm_bytes"] for row in series] == [100.0, 50.0]
        assert series[0]["wire_seconds"] == pytest.approx(0.5)
        assert series[0]["payloads_lost"] == 1
        assert series[0]["payloads_corrupted"] == 2
        assert [row["edge_bytes"] for row in series] == [64.0, 32.0]

    def test_reads_rounds_appended_after_it_was_built(self):
        rounds = rounds_of((1.0, 0.2))
        tracker = PerformanceTracker(0.5, rounds)
        rounds.extend(rounds_of((2.0, 0.6)))
        assert tracker.metric_values() == [0.2, 0.6]
        assert tracker.time_to_target() == 2.0
