"""Tests for the quantization substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis import output_error, profile_activation
from repro.quantization import SUPPORTED_BITS, quantize_array, quantize_model


def relative_error(weights, bits):
    """Relative L2 error of the ``bits``-bit round trip of ``weights``."""
    restored = quantize_array(weights, bits).dequantize()
    norm = np.linalg.norm(weights)
    return float(np.linalg.norm(weights - restored) / norm) if norm else 0.0


class TestQuantizeArray:
    def test_roundtrip_shape_preserved(self):
        weights = np.random.default_rng(0).standard_normal((6, 10))
        quantized = quantize_array(weights, 4)
        assert quantized.dequantize().shape == weights.shape

    def test_unsupported_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize_array(np.ones((2, 2)), 5)

    def test_error_decreases_with_more_bits(self):
        weights = np.random.default_rng(1).standard_normal((16, 32))
        errors = [relative_error(weights, bits) for bits in (2, 4, 8)]
        assert errors[0] > errors[1] > errors[2]

    def test_8bit_error_is_small(self):
        weights = np.random.default_rng(2).standard_normal((8, 8))
        assert relative_error(weights, 8) < 0.02

    def test_zero_matrix_is_exact(self):
        weights = np.zeros((4, 4))
        assert np.array_equal(quantize_array(weights, 2).dequantize(), weights)

    def test_codes_within_range(self):
        weights = np.random.default_rng(3).standard_normal((5, 7)) * 100
        for bits in SUPPORTED_BITS:
            codes = quantize_array(weights, bits).codes
            qmax = 2 ** (bits - 1) - 1
            assert codes.max() <= qmax
            assert codes.min() >= -qmax - 1

    def test_1d_array_supported(self):
        vector = np.random.default_rng(5).standard_normal(12)
        restored = quantize_array(vector, 8).dequantize()
        assert restored.shape == vector.shape
        assert np.allclose(restored, vector, atol=0.1)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (4, 6), elements=st.floats(min_value=-10, max_value=10,
                                                     allow_nan=False, allow_infinity=False)))
def test_quantization_error_bounded_by_step_size(weights):
    """Property: per-element error never exceeds one quantization step per row."""
    quantized = quantize_array(weights, 4)
    restored = quantized.dequantize()
    step = quantized.scales  # one step = scale
    per_row_error = np.abs(weights - restored).max(axis=1)
    assert np.all(per_row_error <= step + 1e-9)


class TestQuantizeModel:
    def test_returns_new_model_same_architecture(self, tiny_model):
        quantized = quantize_model(tiny_model, 4)
        assert quantized is not tiny_model
        assert quantized.local_experts_per_layer() == tiny_model.local_experts_per_layer()

    def test_original_model_untouched(self, tiny_model):
        before = tiny_model.state_dict()
        quantize_model(tiny_model, 2)
        after = tiny_model.state_dict()
        for key in before:
            assert np.allclose(before[key], after[key])

    def test_embeddings_and_norms_kept_full_precision(self, tiny_model):
        quantized = quantize_model(tiny_model, 2)
        assert np.allclose(quantized.token_embedding.weight.data,
                           tiny_model.token_embedding.weight.data)

    def test_expert_weights_actually_quantized(self, tiny_model):
        quantized = quantize_model(tiny_model, 2)
        original = tiny_model.get_expert(0, 0).w_gate.weight.data
        low_bit = quantized.get_expert(0, 0).w_gate.weight.data
        assert not np.allclose(original, low_bit)

    def test_output_error_decreases_with_bits(self, tiny_model, gsm_batches):
        errors = []
        for bits in (2, 4, 8):
            quantized = quantize_model(tiny_model, bits)
            errors.append(output_error(tiny_model, quantized, gsm_batches[:1]))
        assert errors[0] > errors[2]

    def test_routing_similarity_better_with_more_bits(self, tiny_model, gsm_batches):
        """The paper's core profiling assumption: quantized routing approximates full routing."""
        reference = profile_activation(tiny_model, gsm_batches)
        divergence = {}
        for bits in (2, 8):
            quantized = quantize_model(tiny_model, bits)
            estimate = profile_activation(quantized, gsm_batches)
            divergence[bits] = float(np.mean([
                np.abs(r - e).sum() for r, e in zip(reference.frequencies, estimate.frequencies)
            ]))
        assert divergence[8] <= divergence[2] + 1e-9
