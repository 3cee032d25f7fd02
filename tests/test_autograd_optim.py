"""Unit tests for optimisers and gradient utilities."""

import numpy as np
import pytest

from optim_oracles import PerParameterAdam
from repro.autograd import (
    Adam,
    AdamBuffers,
    Linear,
    Parameter,
    Tensor,
    gradient_norm,
)
from repro.autograd import functional as F


def quadratic_problem(optimizer_factory, steps=200):
    """Minimise ||x - target||^2 and return the final distance."""
    target = np.array([1.0, -2.0, 3.0])
    param = Parameter(np.zeros(3))
    optimizer = optimizer_factory([param])
    for _ in range(steps):
        optimizer.zero_grad()
        loss = ((param + Tensor(-target)) ** 2).sum()
        loss.backward()
        optimizer.step()
    return float(np.abs(param.data - target).max())


class TestOptimizers:
    def test_adam_converges(self):
        assert quadratic_problem(lambda p: Adam(p, lr=0.1)) < 1e-2

    def test_weight_decay_shrinks_parameters(self):
        param = Parameter(np.ones(4) * 10.0)
        optimizer = Adam([param], lr=0.1, weight_decay=0.5)
        param.grad = np.zeros(4)
        optimizer.step()
        assert np.all(param.data < 10.0)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(2))], lr=0.0)

    def test_frozen_parameters_not_updated(self):
        param = Parameter(np.ones(3))
        param.requires_grad = False
        optimizer = Adam([param], lr=1.0)
        param.grad = np.ones(3)
        optimizer.step()
        assert np.allclose(param.data, 1.0)

    def test_none_gradients_are_skipped(self):
        param = Parameter(np.ones(3))
        optimizer = Adam([param], lr=1.0)
        optimizer.step()  # no gradient set; must be a no-op
        assert np.allclose(param.data, 1.0)

    def test_zero_grad_clears(self):
        param = Parameter(np.ones(3))
        param.grad = np.ones(3)
        Adam([param], lr=0.1).zero_grad()
        assert param.grad is None

    def test_training_a_small_classifier(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 4))
        y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
        layer = Linear(4, 2, rng=rng)
        optimizer = Adam(layer.parameters(), lr=0.05)
        first_loss = None
        for _ in range(60):
            optimizer.zero_grad()
            loss = F.cross_entropy(layer(Tensor(x)), y)
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < first_loss * 0.5


def _bits(array):
    """``array``'s bytes: equal bits, so ``-0.0`` differs from ``+0.0`` and NaN equals NaN."""
    return np.ascontiguousarray(array).tobytes()


def _twins(dtype="float64", order="C", shapes=((6, 4), (3,), (4, 6), (5, 2)), seed=0):
    """Two identical parameter lists, each parameter in ``order`` (``C`` or ``F``)."""
    rng = np.random.default_rng(seed)
    values = [np.asarray(rng.standard_normal(shape), dtype=dtype, order=order)
              for shape in shapes]
    return ([Parameter(value.copy(order=order)) for value in values],
            [Parameter(value.copy(order=order)) for value in values])


def _gradients(params, rng, order="C", present=None):
    """Fresh gradients (in ``order``) for the positions in ``present``; ``None`` elsewhere."""
    grads = []
    for index, param in enumerate(params):
        if present is not None and index not in present:
            grads.append(None)
            continue
        grads.append(np.asarray(rng.standard_normal(param.data.shape),
                                dtype=param.data.dtype, order=order))
    return grads


def _step_both(flat, oracle, params, twins, grads):
    for param, twin, grad in zip(params, twins, grads):
        param.grad = None if grad is None else grad.copy(order="K")
        twin.grad = None if grad is None else grad.copy(order="K")
    flat.step()
    oracle.step()


def _assert_same_bits(params, twins):
    for index, (param, twin) in enumerate(zip(params, twins)):
        assert _bits(param.data) == _bits(twin.data), index


def _moments(optimizer, param):
    """``(m, v)`` of ``param`` in the flat optimizer, in the parameter's shape."""
    for layout in optimizer._layouts:
        for index, member in enumerate(layout.params):
            if member is param:
                lo, hi = layout.bounds[index], layout.bounds[index + 1]
                shape = param.data.shape
                return layout.m[lo:hi].reshape(shape), layout.v[lo:hi].reshape(shape)
    raise KeyError("not a parameter of this optimizer")


OPTIMIZERS = {
    "adam": (Adam, PerParameterAdam, {}),
    "adam_weight_decay": (Adam, PerParameterAdam, {"weight_decay": 0.05}),
    "adam_betas": (Adam, PerParameterAdam, {"betas": (0.8, 0.95)}),
    "adam_eps": (Adam, PerParameterAdam, {"eps": 1e-3}),
}


class TestFlatAdamMatchesOracle:
    """The flat Adam is the per-parameter Adam of ``tests/optim_oracles.py``, bit for bit."""

    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_steps(self, name, order, dtype):
        flat_class, oracle_class, knobs = OPTIMIZERS[name]
        params, twins = _twins(dtype)
        flat = flat_class(params, lr=1e-2, **knobs)
        oracle = oracle_class(twins, lr=1e-2, **knobs)
        rng = np.random.default_rng(1)
        for _ in range(4):
            _step_both(flat, oracle, params, twins, _gradients(params, rng, order))
            _assert_same_bits(params, twins)
        for param, twin in zip(params, twins):
            m, v = _moments(flat, param)
            assert _bits(m) == _bits(oracle._m[id(twin)])
            assert _bits(v) == _bits(oracle._v[id(twin)])

    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_presence_changes_between_steps(self, name):
        """A first touch at t = 2 and 3, moments untouched while absent, frozen skipped."""
        flat_class, oracle_class, knobs = OPTIMIZERS[name]
        params, twins = _twins(shapes=((4, 3), (2,), (3, 3), (5,), (2, 2)))
        params[4].requires_grad = twins[4].requires_grad = False
        flat = flat_class(params, lr=1e-2, **knobs)
        oracle = oracle_class(twins, lr=1e-2, **knobs)
        rng = np.random.default_rng(2)
        schedule = [{0, 2}, {0, 1, 2, 4}, {1, 3}, {0, 1, 2, 3}]
        for present in schedule:
            before = {index: tuple(map(np.copy, _moments(flat, params[index])))
                      for index in range(4) if index not in present and flat._touched[0][index]}
            _step_both(flat, oracle, params, twins, _gradients(params, rng, present=present))
            _assert_same_bits(params, twins)
            for index, (m, v) in before.items():
                now = _moments(flat, params[index])
                assert _bits(now[0]) == _bits(m) and _bits(now[1]) == _bits(v)
        assert flat._t == oracle._t == len(schedule)
        assert not flat._touched[0][4]

    def test_signed_zeros_and_exact_zeros(self):
        """The closed first step matches ``0 * beta + x``: a -0.0 gradient leaves
        m at +0.0, and a -0.0 parameter stays -0.0 — with m = -0.0 it would not."""
        params, twins = _twins(shapes=((8,),))
        for param in params + twins:
            param.data[:4] = [-0.0, 0.0, -0.0, 1.0]
        grad = np.array([-0.0, -0.0, 0.0, 0.0, 1.0, -1.0, -0.0, 2.0])
        flat, oracle = Adam(params, lr=1e-2), PerParameterAdam(twins, lr=1e-2)
        _step_both(flat, oracle, params, twins, [grad])
        _assert_same_bits(params, twins)
        assert np.signbit(params[0].data[0]) and np.signbit(params[0].data[2])
        m, _ = _moments(flat, params[0])
        assert not np.signbit(m[[0, 1, 6]]).any()
        _step_both(flat, oracle, params, twins, [-grad])
        _assert_same_bits(params, twins)

    def test_mixed_dtypes_step_in_one_group_each(self):
        params, twins = _twins("float32", shapes=((3, 2), (4,)))
        wide, wide_twin = _twins("float64", shapes=((2, 2),), seed=3)
        flat = Adam(params + wide, lr=1e-2)
        oracle = PerParameterAdam(twins + wide_twin, lr=1e-2)
        rng = np.random.default_rng(4)
        for _ in range(3):
            _step_both(flat, oracle, params + wide, twins + wide_twin,
                       _gradients(params + wide, rng))
        _assert_same_bits(params + wide, twins + wide_twin)
        assert len(flat._layouts) == 2

    def test_runs_longer_than_a_chunk(self, monkeypatch):
        import repro.autograd.optim as optim

        monkeypatch.setattr(optim, "ADAM_CHUNK", 5)
        params, twins = _twins(shapes=((4, 3), (7,), (2, 2)))
        flat = Adam(params, lr=1e-2, weight_decay=0.1)
        oracle = PerParameterAdam(twins, lr=1e-2, weight_decay=0.1)
        rng = np.random.default_rng(5)
        for _ in range(3):
            _step_both(flat, oracle, params, twins, _gradients(params, rng, "F"))
        _assert_same_bits(params, twins)


class TestAdamBuffers:
    def test_a_second_optimizer_reuses_the_storage(self):
        buffers = AdamBuffers()
        params, twins = _twins()
        first = Adam(params, lr=1e-2, buffers=buffers)
        rng = np.random.default_rng(6)
        for param, grad in zip(params, _gradients(params, rng)):
            param.grad = grad
        first.step()
        arrays = {key: id(array) for key, array in buffers._arrays.items()}
        second = Adam(twins, lr=1e-2, buffers=buffers)
        oracle_params, oracle_twins = _twins()
        oracle = PerParameterAdam(oracle_twins, lr=1e-2)
        for twin, oracle_twin, grad in zip(twins, oracle_twins, _gradients(twins, rng)):
            twin.grad, oracle_twin.grad = grad, grad.copy()
        second.step()
        oracle.step()
        _assert_same_bits(twins, oracle_twins)
        assert {key: id(array) for key, array in buffers._arrays.items()} == arrays

    def test_a_released_or_taken_over_optimizer_refuses_to_step(self):
        buffers = AdamBuffers()
        params, twins = _twins()
        for param, twin in zip(params, twins):
            param.grad = twin.grad = np.ones_like(param.data)
        first = Adam(params, lr=1e-2, buffers=buffers)
        second = Adam(twins, lr=1e-2, buffers=buffers)
        with pytest.raises(RuntimeError, match="taken over or released"):
            first.step()
        second.step()
        buffers.release()
        with pytest.raises(RuntimeError, match="taken over or released"):
            second.step()

    def test_the_layout_is_reused_for_the_same_parameters_only(self):
        buffers = AdamBuffers()
        params, twins = _twins()
        first = Adam(params, lr=1e-2, buffers=buffers)
        assert Adam(params, lr=1e-2, buffers=buffers)._layouts is first._layouts
        assert Adam(params[:2], lr=1e-2, buffers=buffers)._layouts is not first._layouts
        params[0].data = np.zeros((4, 6))               # same size, another shape
        again = Adam(params, lr=1e-2, buffers=buffers)
        assert again._layouts[0].shapes[0] == (4, 6)
        for param in params:
            param.grad = np.ones_like(param.data)
        again.step()

    def test_grows_to_the_largest_optimizer(self):
        buffers = AdamBuffers()
        small, _ = _twins(shapes=((2,),))
        large, _ = _twins(shapes=((6, 4), (3,)))
        Adam(small, lr=1e-2, buffers=buffers)
        Adam(large, lr=1e-2, buffers=buffers)
        Adam(small, lr=1e-2, buffers=buffers)
        assert buffers._arrays["m", np.dtype("float64")].size == 27


class TestGradUtils:
    def _model_with_grads(self):
        layer = Linear(3, 2)
        layer(Tensor(np.ones((4, 3)))).sum().backward()
        return layer

    def test_gradient_norm_positive(self):
        layer = self._model_with_grads()
        assert gradient_norm(layer) > 0
