"""Tests for activation profiling, output error and expert-significance analysis."""

import numpy as np
import pytest

from repro.analysis import (
    discard_expert_error,
    estimation_error,
    frequency_drift,
    frequency_significance_correlation,
    output_error,
    profile_activation,
    significance_report,
    top_significant_experts,
)
from repro.analysis.output_error import cosine_distance
from repro.models import MoETransformer
from repro.quantization import quantize_model


class TestProfileActivation:
    def test_requires_batches(self, tiny_model):
        with pytest.raises(ValueError):
            profile_activation(tiny_model, [])

    def test_frequencies_are_distributions(self, tiny_model, gsm_batches):
        profile = profile_activation(tiny_model, gsm_batches)
        assert profile.num_layers == tiny_model.num_layers
        for freq in profile.frequencies:
            assert freq.sum() == pytest.approx(1.0)
            assert np.all(freq >= 0)

    def test_sample_sets_reference_real_samples(self, tiny_model, gsm_batches):
        profile = profile_activation(tiny_model, gsm_batches)
        all_ids = {int(s) for batch in gsm_batches for s in batch.sample_ids}
        recorded = set()
        for layer_sets in profile.sample_sets:
            for sample_set in layer_sets:
                recorded |= sample_set
        assert recorded <= all_ids
        assert recorded  # some expert saw some sample

    def test_accumulation_does_not_leak_into_later_calls(self, tiny_model, gsm_batches):
        profile_a = profile_activation(tiny_model, gsm_batches)
        profile_b = profile_activation(tiny_model, gsm_batches)
        for fa, fb in zip(profile_a.frequencies, profile_b.frequencies):
            assert np.allclose(fa, fb)

    @pytest.mark.parametrize("training", [True, False])
    def test_leaves_the_model_in_the_mode_it_came_in(self, tiny_model, gsm_batches, training):
        tiny_model.train(training)
        profile_activation(tiny_model, gsm_batches[:1])
        assert all(module.training is training for module in tiny_model.modules())

    def test_layer_variance_and_matrix(self, tiny_model, gsm_batches):
        profile = profile_activation(tiny_model, gsm_batches)
        assert profile.layer_variance().shape == (tiny_model.num_layers,)
        matrix = profile.frequency_matrix()
        assert matrix.shape[0] == tiny_model.num_layers

    def test_total_tokens_counted(self, tiny_model, gsm_batches):
        profile = profile_activation(tiny_model, gsm_batches)
        expected = sum(batch.num_tokens for batch in gsm_batches)
        assert profile.total_tokens == expected


class TestEstimationError:
    def test_identical_profiles_have_zero_error(self, tiny_model, gsm_batches):
        a = profile_activation(tiny_model, gsm_batches)
        b = profile_activation(tiny_model, gsm_batches)
        assert estimation_error(a, b) == pytest.approx(0.0)

    def test_quantized_profile_has_moderate_error(self, tiny_model, gsm_batches):
        reference = profile_activation(tiny_model, gsm_batches)
        quantized = profile_activation(quantize_model(tiny_model, 4), gsm_batches)
        error = estimation_error(reference, quantized)
        assert 0.0 <= error < 100.0

    def test_mismatched_layer_counts_rejected(self, tiny_model, gsm_batches, tiny_config):
        reference = profile_activation(tiny_model, gsm_batches)
        other_model = MoETransformer(tiny_config.with_experts([4, 4]))
        # build a single-layer profile artificially
        short = profile_activation(other_model, gsm_batches)
        short.frequencies.pop()
        with pytest.raises(ValueError):
            estimation_error(reference, short)

    def test_frequency_drift_values(self, tiny_model, gsm_batches):
        a = profile_activation(tiny_model, gsm_batches)
        b = profile_activation(tiny_model, gsm_batches)
        drift = frequency_drift(a, b)
        assert drift.shape[0] == sum(len(f) for f in a.frequencies)
        assert np.allclose(drift, 0.0)


class TestOutputError:
    def test_identical_models_zero_error(self, tiny_model, gsm_batches, tiny_config):
        clone = MoETransformer(tiny_config)
        clone.load_state_dict(tiny_model.state_dict())
        assert output_error(tiny_model, clone, gsm_batches[:1]) == pytest.approx(0.0, abs=1e-9)

    def test_quantized_model_positive_error(self, tiny_model, gsm_batches):
        quantized = quantize_model(tiny_model, 2)
        assert output_error(tiny_model, quantized, gsm_batches[:1]) > 0.0

    def test_requires_batches(self, tiny_model):
        with pytest.raises(ValueError):
            output_error(tiny_model, tiny_model, [])

    def test_cosine_distance_bounds(self):
        a = np.random.default_rng(0).standard_normal((4, 8))
        assert np.allclose(cosine_distance(a, a), 0.0)
        assert np.allclose(cosine_distance(a, -a), 2.0)


class TestExpertSignificance:
    def test_discard_error_positive_and_weights_restored(self, tiny_model, gsm_batches):
        before = tiny_model.get_expert(0, 0).w_down.weight.data.copy()
        error = discard_expert_error(tiny_model, gsm_batches[:1], 0, 0)
        after = tiny_model.get_expert(0, 0).w_down.weight.data
        assert error >= 0.0
        assert np.allclose(before, after)

    def test_significance_report_covers_requested_experts(self, tiny_model, gsm_batches):
        report = significance_report(tiny_model, gsm_batches[:1], max_experts=4)
        assert len(report) == 4
        for item in report:
            assert 0.0 <= item.activation_frequency <= 1.0
            assert item.discard_error >= 0.0

    def test_top_significant_sorting(self, tiny_model, gsm_batches):
        report = significance_report(tiny_model, gsm_batches[:1], max_experts=4)
        top = top_significant_experts(report, top_k=2)
        assert len(top) == 2
        assert top[0].discard_error >= top[1].discard_error

    def test_correlation_bounds(self, tiny_model, gsm_batches):
        report = significance_report(tiny_model, gsm_batches[:1], max_experts=4)
        correlation = frequency_significance_correlation(report)
        assert -1.0 <= correlation <= 1.0

    def test_correlation_degenerate_cases(self):
        assert frequency_significance_correlation([]) == 0.0
