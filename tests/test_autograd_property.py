"""Property-based tests (hypothesis) for the autograd engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.autograd import Tensor

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def small_arrays(max_dims=3, max_side=4):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=1, max_dims=max_dims, min_side=1, max_side=max_side),
        elements=finite_floats,
    )


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_addition_gradient_is_ones(data):
    t = Tensor(data.copy(), requires_grad=True)
    (t + 1.0).sum().backward()
    assert np.allclose(t.grad, 1.0)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_scaling_gradient_matches_factor(data):
    t = Tensor(data.copy(), requires_grad=True)
    (t * 3.5).sum().backward()
    assert np.allclose(t.grad, 3.5)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_softmax_rows_are_distributions(data):
    t = Tensor(data.copy())
    probs = t.softmax(axis=-1).data
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_square_gradient_is_two_x(data):
    t = Tensor(data.copy(), requires_grad=True)
    (t * t).sum().backward()
    assert np.allclose(t.grad, 2 * data, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4).flatmap(
        lambda shape: st.tuples(
            arrays(np.float64, shape, elements=finite_floats),
            arrays(np.float64, shape, elements=finite_floats),
        )
    )
)
def test_addition_is_commutative_in_forward(pair):
    a, b = pair
    left = (Tensor(a) + Tensor(b)).data
    right = (Tensor(b) + Tensor(a)).data
    assert np.allclose(left, right)


@settings(max_examples=30, deadline=None)
@given(
    arrays(np.float64, (3, 4), elements=finite_floats),
    arrays(np.float64, (4, 2), elements=finite_floats),
)
def test_matmul_matches_numpy(a, b):
    out = (Tensor(a) @ Tensor(b)).data
    assert np.allclose(out, a @ b)


@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_mean_equals_sum_over_size(data):
    t = Tensor(data.copy())
    assert np.allclose(t.mean().item(), data.sum() / data.size)


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=2))
def test_reshape_roundtrip_preserves_gradient_shape(data):
    t = Tensor(data.copy(), requires_grad=True)
    t.reshape(-1).sum().backward()
    assert t.grad.shape == data.shape
    assert np.allclose(t.grad, 1.0)



@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_silu_bounded_below_and_by_its_input(data):
    out = Tensor(data.copy()).silu().data
    assert np.all(out >= -0.2785)                       # silu's minimum, at x ~ -1.278
    assert np.all(out <= np.maximum(data, 0.0) + 1e-12)


@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_silu_gradient_matches_finite_difference(data):
    t = Tensor(data.copy(), requires_grad=True)
    t.silu().sum().backward()
    eps = 1e-6
    numeric = (Tensor(data + eps).silu().data - Tensor(data - eps).silu().data) / (2 * eps)
    assert np.allclose(t.grad, numeric, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_log_softmax_exponentiates_to_a_distribution(data):
    log_probs = Tensor(data.copy()).log_softmax(axis=-1).data
    assert np.all(log_probs <= 1e-12)
    assert np.allclose(np.exp(log_probs).sum(axis=-1), 1.0)


@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_softmax_gradient_sums_to_zero_along_its_axis(data):
    t = Tensor(data.copy(), requires_grad=True)
    weights = np.arange(data.size, dtype=np.float64).reshape(data.shape)
    (t.softmax(axis=-1) * weights).sum().backward()
    assert np.allclose(t.grad.sum(axis=-1), 0.0, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_square_root_of_square_is_abs(data):
    t = Tensor(data.copy() + 0.5 * np.sign(data) + (data == 0))   # keep away from 0
    assert np.allclose(((t * t) ** 0.5).data, np.abs(t.data))


@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_division_by_scalar_matches_multiplication_by_reciprocal(data):
    t = Tensor(data.copy(), requires_grad=True)
    (t / 4.0).sum().backward()
    assert np.allclose((Tensor(data) / 4.0).data, data * 0.25)
    assert np.allclose(t.grad, 0.25)
