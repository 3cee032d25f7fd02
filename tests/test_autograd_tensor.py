"""Unit tests for the autograd Tensor: ops, broadcasting, backward correctness."""

import gc
import weakref

import numpy as np
import pytest

from repro.autograd import Tensor, concatenate, no_grad, scatter_rows, stack, where
from repro.autograd.tensor import _unbroadcast, is_grad_enabled


def numeric_gradient(fn, value, eps=1e-6):
    """Central-difference gradient of a scalar-valued fn at value."""
    grad = np.zeros_like(value)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(value)
        flat[i] = original - eps
        minus = fn(value)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(op, shape, seed=0, atol=1e-6):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    tensor = Tensor(data.copy(), requires_grad=True)
    out = op(tensor)
    out.sum().backward()

    def scalar_fn(value):
        return op(Tensor(value.copy())).sum().item()

    numeric = numeric_gradient(scalar_fn, data.copy())
    assert np.allclose(tensor.grad, numeric, atol=atol), f"analytic {tensor.grad} vs numeric {numeric}"


class TestElementwiseGradients:
    def test_add_scalar(self):
        check_gradient(lambda t: t + 3.0, (3, 4))

    def test_mul(self):
        check_gradient(lambda t: t * t, (2, 5))

    def test_div(self):
        check_gradient(lambda t: (t + 5.0) / 2.5, (4,))

    def test_pow(self):
        check_gradient(lambda t: (t * t + 1.0) ** 1.5, (3, 3))

    def test_exp(self):
        check_gradient(lambda t: t.exp(), (2, 3))

    def test_log(self):
        check_gradient(lambda t: (t * t + 1.0).log(), (5,))

    def test_tanh(self):
        check_gradient(lambda t: t.tanh(), (3, 2))

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid(), (4,))

    def test_relu(self):
        check_gradient(lambda t: (t + 0.3).relu(), (6,), atol=1e-5)

    def test_silu(self):
        check_gradient(lambda t: t.silu(), (3, 4))

    def test_gelu(self):
        check_gradient(lambda t: t.gelu(), (3, 4), atol=1e-5)

    def test_sqrt(self):
        check_gradient(lambda t: (t * t + 2.0).sqrt(), (5,))

    def test_neg_and_sub(self):
        check_gradient(lambda t: (1.0 - t) * 2.0 - t, (3,))


class TestReductionGradients:
    def test_sum_all(self):
        check_gradient(lambda t: t.sum(), (3, 4))

    def test_sum_axis(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), (3, 4))

    def test_sum_keepdims(self):
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), (3, 4))

    def test_mean(self):
        check_gradient(lambda t: (t.mean(axis=-1) ** 2).sum(), (2, 6))

    def test_max(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((3, 5))
        t = Tensor(data, requires_grad=True)
        t.max(axis=1).sum().backward()
        # gradient is 1 at each row's argmax, 0 elsewhere
        expected = np.zeros_like(data)
        expected[np.arange(3), data.argmax(axis=1)] = 1.0
        assert np.allclose(t.grad, expected)


class TestSoftmaxGradients:
    def test_softmax_rows_sum_to_one(self):
        t = Tensor(np.random.default_rng(0).standard_normal((4, 7)))
        s = t.softmax(axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0)

    def test_softmax_gradient(self):
        check_gradient(lambda t: (t.softmax(axis=-1) ** 2).sum(), (3, 5))

    def test_log_softmax_gradient(self):
        check_gradient(lambda t: (t.log_softmax(axis=-1) * 0.5).sum(), (2, 6))

    def test_log_softmax_matches_log_of_softmax(self):
        data = np.random.default_rng(2).standard_normal((3, 4))
        a = Tensor(data).log_softmax(axis=-1).data
        b = np.log(Tensor(data).softmax(axis=-1).data)
        assert np.allclose(a, b)


class TestMatmulGradients:
    def test_2d_matmul(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 5)) @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ np.ones((3, 5)))

    def test_batched_matmul_shapes(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_broadcast_matmul_3d_2d(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        (a @ w).sum().backward()
        assert w.grad.shape == (4, 5)
        assert np.allclose(w.grad, a.data.reshape(-1, 4).T @ np.ones((6, 5)))


class TestBroadcasting:
    def test_unbroadcast_leading_dims(self):
        grad = np.ones((4, 3, 2))
        reduced = _unbroadcast(grad, (3, 2))
        assert reduced.shape == (3, 2)
        assert np.allclose(reduced, 4.0)

    def test_unbroadcast_singleton_dims(self):
        grad = np.ones((3, 5))
        reduced = _unbroadcast(grad, (3, 1))
        assert reduced.shape == (3, 1)
        assert np.allclose(reduced, 5.0)

    def test_add_broadcast_gradient(self):
        a = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
        bias = Tensor(np.random.default_rng(1).standard_normal(4), requires_grad=True)
        (a + bias).sum().backward()
        assert np.allclose(bias.grad, 3.0 * np.ones(4))

    def test_mul_broadcast_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.full((1, 3), 2.0), requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 2.0)


class TestShapeOps:
    def test_reshape_gradient(self):
        check_gradient(lambda t: (t.reshape(6, 2) ** 2).sum(), (3, 4))

    def test_transpose_gradient(self):
        check_gradient(lambda t: (t.transpose(1, 0) ** 2).sum(), (3, 4))

    def test_transpose_default_reverses(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.transpose().shape == (4, 3, 2)

    def test_swapaxes(self):
        t = Tensor(np.random.default_rng(0).standard_normal((2, 3, 4)), requires_grad=True)
        t.swapaxes(0, 2).sum().backward()
        assert t.grad.shape == (2, 3, 4)
        assert np.allclose(t.grad, 1.0)

    def test_getitem_gradient_accumulates(self):
        t = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        rows = np.array([0, 0, 1])
        out = t[rows]
        out.sum().backward()
        assert np.allclose(t.grad, [[2, 2, 2], [1, 1, 1]])


class TestGraphMechanics:
    def test_backward_requires_scalar_or_grad(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_on_non_grad_tensor_raises(self):
        t = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            t.sum().backward()

    def test_grad_accumulates_across_backwards(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2).sum().backward()
        (t * 3).sum().backward()
        assert np.allclose(t.grad, 5.0)

    def test_detach_stops_gradient(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_no_grad_context(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = t * 2
        assert is_grad_enabled()
        assert not out.requires_grad
        assert out._prev == ()

    def test_diamond_graph_gradient(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        a = t * 3
        b = t * 4
        (a * b).backward()
        # d/dt (12 t^2) = 24 t = 48
        assert np.allclose(t.grad, 48.0)

    def test_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert np.allclose(Tensor.ones(2).data, 1.0)
        assert Tensor.randn(4, rng=np.random.default_rng(0)).shape == (4,)

    def test_repr_and_item(self):
        t = Tensor([1.5], requires_grad=True)
        assert "requires_grad" in repr(t)
        assert t.item() == pytest.approx(1.5)


class TestCombinators:
    def test_stack_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3) * 2, requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out * 3).sum().backward()
        assert np.allclose(a.grad, 3.0)
        assert np.allclose(b.grad, 3.0)

    def test_concatenate_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, 1.0)

    def test_where_gradient_routes_to_branches(self):
        cond = np.array([True, False, True])
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        where(cond, a, b).sum().backward()
        assert np.allclose(a.grad, [1, 0, 1])
        assert np.allclose(b.grad, [0, 1, 0])

    def test_scatter_rows_forward_and_backward(self):
        src = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
        rows = np.array([0, 2, 0])
        out = scatter_rows(src, rows, num_rows=4)
        expected = np.zeros((4, 2))
        expected[0] = src.data[0] + src.data[2]
        expected[2] = src.data[1]
        assert np.allclose(out.data, expected)
        (out * 2).sum().backward()
        assert np.allclose(src.grad, 2.0)

    def test_scatter_rows_validates_rows(self):
        src = Tensor(np.ones((3, 2)))
        with pytest.raises(ValueError):
            scatter_rows(src, np.array([[0, 1]]), num_rows=4)


class TestBackwardFreesGraph:
    def test_intermediates_die_without_the_cyclic_collector(self):
        a = Tensor(np.full((4, 3), 0.5), requires_grad=True)
        gc.collect()
        gc.disable()
        try:
            hidden = (a * 2.0).tanh()
            loss = (hidden * hidden).sum()
            activation = weakref.ref(hidden.data)   # Tensor has __slots__; its array is the probe
            del hidden
            assert activation() is not None         # held by the graph under ``loss``
            loss.backward()
            assert activation() is None
        finally:
            gc.enable()
        assert np.allclose(a.grad, 4.0 * np.tanh(1.0) * (1.0 - np.tanh(1.0) ** 2))
        assert np.isclose(loss.item(), 12 * np.tanh(1.0) ** 2)   # the root keeps its value

    def test_second_backward_through_a_freed_graph_raises(self):
        a = Tensor(np.ones(3), requires_grad=True)
        shared = a * 2.0
        first = shared.sum()
        second = (shared * shared).sum()
        first.backward()
        with pytest.raises(RuntimeError, match="graph already freed"):
            first.backward()
        with pytest.raises(RuntimeError, match="graph already freed"):
            second.backward()                       # reaches ``shared``, freed with ``first``

    def test_losses_built_separately_still_accumulate(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        (a * b).sum().backward()
        (a * b * 2).sum().backward()
        assert np.array_equal(a.grad, b.data + b.data * 2)
        assert np.array_equal(b.grad, a.data + a.data * 2)
