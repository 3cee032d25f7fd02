"""Reverse-mode automatic differentiation over NumPy arrays.

This module provides the :class:`Tensor` class used throughout the
reproduction in place of ``torch.Tensor``.  A tensor wraps a NumPy array,
remembers the operation that produced it, and can back-propagate gradients to
its inputs via :meth:`Tensor.backward`.

The design follows the classic tape-less "define-by-run" approach: each
operation returns a new tensor whose ``_backward`` closure knows how to push
the output gradient onto the operands.  ``backward()`` runs a topological sort
over the recorded graph and calls those closures in reverse order.

Only the operations the MoE transformer substrate (LLaMA-MoE / DeepSeek-MoE
style: SiLU experts, RMSNorm, attention) and the composed oracles of its
fused nodes (``tests/composed_oracles.py``) call are implemented, but they are
implemented completely (full broadcasting support, stable softmax/log-softmax,
fancy-index gather/scatter for embeddings and expert routing).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

_grad_enabled = True

_default_dtype: np.dtype = np.dtype(np.float64)

#: dtypes the tensor engine may be switched to
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def get_default_dtype() -> np.dtype:
    """Return the dtype new tensors are created with (when not inferable)."""
    return _default_dtype


def set_default_dtype(dtype) -> None:
    """Set the global default floating dtype of the tensor engine.

    ``float64`` (the engine's default, for bare tensors and modules) is the
    numerics tests' oracle dtype; ``float32`` halves memory traffic and
    roughly doubles GEMM throughput, and is what every preset model trains in
    (a model builds under its ``MoEModelConfig.dtype``, whatever this is).
    """
    dtype = np.dtype(dtype)
    if dtype not in SUPPORTED_DTYPES:
        raise ValueError(f"unsupported default dtype {dtype}; supported: float32, float64")
    global _default_dtype
    _default_dtype = dtype


class default_dtype:
    """Context manager that temporarily switches the default dtype.

    Models built inside ``with default_dtype("float32"):`` have float32
    parameters, and every downstream op preserves that dtype (floating-point
    array inputs are never silently up- or down-cast).
    """

    def __init__(self, dtype) -> None:
        self._dtype = np.dtype(dtype)
        if self._dtype not in SUPPORTED_DTYPES:
            raise ValueError(f"unsupported default dtype {self._dtype}; supported: float32, float64")

    def __enter__(self) -> "default_dtype":
        global _default_dtype
        self._prev = _default_dtype
        _default_dtype = self._dtype
        return self

    def __exit__(self, *exc) -> None:
        global _default_dtype
        _default_dtype = self._prev


class no_grad:
    """Context manager that disables gradient recording.

    Mirrors ``torch.no_grad``: inside the block all produced tensors have
    ``requires_grad=False`` and no graph is recorded, which keeps profiling
    and evaluation passes cheap.
    """

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether gradient recording is currently enabled."""
    return _grad_enabled


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``data`` to a floating NumPy array.

    Floating-point arrays keep their dtype (so a float32 model stays float32
    end-to-end); everything else is converted to ``dtype`` or, when that is
    ``None``, to the global default dtype (see :func:`set_default_dtype`).
    """
    if dtype is None:
        if isinstance(data, np.ndarray) and data.dtype.kind == "f":
            return data
        if isinstance(data, np.generic) and data.dtype.kind == "f":
            # NumPy scalar (e.g. the result of ndarray.sum()) — keep its dtype.
            return np.asarray(data)
        dtype = _default_dtype
    if isinstance(data, np.ndarray):
        if data.dtype == dtype:
            return data
        return data.astype(dtype)
    return np.asarray(data, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    NumPy broadcasting may have expanded an operand; the gradient flowing back
    must be summed over the broadcast dimensions to match the operand's
    original shape.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _freed_backward() -> None:
    """``_backward`` of every non-leaf node a finished ``backward()`` walked."""
    raise RuntimeError("graph already freed by backward()")


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward_fn", "_prev", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Tuple["Tensor", ...] = (),
        name: str = "",
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _grad_enabled
        self._backward_fn: Optional[Callable[[], None]] = None
        self._prev: Tuple[Tensor, ...] = _prev if _grad_enabled else ()
        self.name = name

    @property
    def _backward(self) -> Optional[Callable[[], None]]:
        return self._backward_fn

    @_backward.setter
    def _backward(self, fn: Callable[[], None]) -> None:
        # Every op's closure captures its own output, so storing it makes the
        # node a reference cycle.  A node that does not require grad is never
        # walked by backward(): dropping its closure lets forward-only passes
        # (``no_grad`` / frozen inputs) die by refcount.
        if self.requires_grad:
            self._backward_fn = fn

    # ------------------------------------------------------------------ meta
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------- graph glue
    def _make_child(self, data: np.ndarray, parents: Tuple["Tensor", ...]) -> "Tensor":
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _prev=parents if requires else ())
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` to this tensor's gradient.

        ``owned=True`` asserts that ``grad`` is a freshly-allocated array no
        other tensor holds a reference to, letting the first contribution be
        adopted without a defensive copy.  Arrays that may alias another
        tensor's gradient (e.g. an unreduced ``out.grad`` passed through, or a
        view of it) must keep ``owned=False``.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if owned and isinstance(grad, np.ndarray) and grad.dtype == self.data.dtype:
                self.grad = grad
            else:
                # First contribution: one copy instead of zeros_like + add.
                self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    # --------------------------------------------------------------- backward
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of some downstream scalar with respect to this tensor.
            Defaults to ones (only valid for scalar tensors, matching the
            PyTorch convention).

        The graph is freed when the walk ends: every non-leaf node it visited
        drops its parents and its closure (which holds the node itself, so an
        unfreed graph is cyclic garbage that keeps every activation alive
        until the cyclic collector runs).  Leaf ``.grad``s and every node's
        ``data`` stay; a second backward pass through any freed node raises
        ``RuntimeError`` instead of silently yielding no gradients.  There is
        no ``retain_graph``: two losses that share a subgraph are summed
        before the one backward pass, or the subgraph is built twice.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn()
        for node in topo:
            if node._backward_fn is not None:
                node._prev = ()
                node._backward_fn = _freed_backward

    # ------------------------------------------------------------- arithmetic
    def _wrap_operand(self, other: ArrayLike) -> "Tensor":
        """Coerce a binary-op operand to a Tensor.

        Python scalars (and other non-float data) adopt *this* tensor's dtype
        so that e.g. ``float32_tensor * 2.0`` stays float32 instead of being
        promoted through a float64 wrapper array.
        """
        if isinstance(other, Tensor):
            return other
        if isinstance(other, np.ndarray) and other.dtype.kind == "f":
            return Tensor(other)
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap_operand(other)
        out = self._make_child(self.data + other.data, (self, other))

        def _backward() -> None:
            if self.requires_grad:
                grad = _unbroadcast(out.grad, self.shape)
                self._accumulate(grad, owned=grad is not out.grad)
            if other.requires_grad:
                grad = _unbroadcast(out.grad, other.shape)
                other._accumulate(grad, owned=grad is not out.grad)

        out._backward = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make_child(-self.data, (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(-out.grad, owned=True)

        out._backward = _backward
        return out

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap_operand(other)
        out = self._make_child(self.data * other.data, (self, other))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape), owned=True)

        out._backward = _backward
        return out

    __rmul__ = __mul__

    # kept for the RMSNorm oracle (``composed_rms_norm``: ``x / rms``)
    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap_operand(other)
        out = self._make_child(self.data / other.data, (self, other))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad / other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-out.grad * self.data / (other.data ** 2), other.shape),
                    owned=True,
                )

        out._backward = _backward
        return out

    # kept for the RMSNorm oracle (``composed_rms_norm``: ``** 0.5``)
    def __pow__(self, exponent: float) -> "Tensor":
        # np.power is an elementwise transcendental and dominates small-model
        # profiles (rms_norm calls ** 0.5 on every block); route the common
        # exponents through their dedicated, much cheaper ufuncs.
        if exponent == 0.5:
            out = self._make_child(np.sqrt(self.data), (self,))

            def _backward_sqrt() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * 0.5 / out.data, owned=True)

            out._backward = _backward_sqrt
            return out
        if exponent == 2:
            out = self._make_child(np.square(self.data), (self,))

            def _backward_square() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * 2.0 * self.data, owned=True)

            out._backward = _backward_square
            return out
        out = self._make_child(self.data ** exponent, (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1), owned=True)

        out._backward = _backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._wrap_operand(other)
        out = self._make_child(self.data @ other.data, (self, other))

        def _backward() -> None:
            if self.requires_grad:
                if other.data.ndim >= 2:
                    grad_self = out.grad @ np.swapaxes(other.data, -1, -2)
                else:
                    grad_self = np.outer(out.grad, other.data) if self.data.ndim > 1 else out.grad * other.data
                self._accumulate(_unbroadcast(grad_self, self.shape), owned=True)
            if other.requires_grad:
                if self.data.ndim >= 2:
                    grad_other = np.swapaxes(self.data, -1, -2) @ out.grad
                else:
                    grad_other = np.outer(self.data, out.grad) if other.data.ndim > 1 else self.data * out.grad
                other._accumulate(_unbroadcast(grad_other, other.shape), owned=True)

        out._backward = _backward
        return out

    # -------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def _backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                shape = list(out.grad.shape)
                for a in sorted(axes):
                    shape.insert(a, 1)
                grad = grad.reshape(shape)
            self._accumulate(np.broadcast_to(grad, self.shape).copy(), owned=True)

        out._backward = _backward
        return out

    # kept for the RMSNorm oracle (``composed_rms_norm``: the mean square)
    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ----------------------------------------------------------- element-wise
    def silu(self) -> "Tensor":
        """SiLU / swish, the one nonlinearity: every expert FFN's activation."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make_child(self.data * sig, (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (sig * (1.0 + self.data * (1.0 - sig))), owned=True)

        out._backward = _backward
        return out

    # -------------------------------------------------------- shape operations
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_child(self.data.reshape(shape), (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.shape))

        out._backward = _backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out = self._make_child(self.data.transpose(axes), (self,))
        inverse = np.argsort(axes)

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.transpose(inverse))

        out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = self._make_child(self.data[index], (self,))

        def _backward() -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                np.add.at(grad, index, out.grad)
                self._accumulate(grad, owned=True)

        out._backward = _backward
        return out

    # ----------------------------------------------------- composite functions
    # kept for the attention oracle (``composed_attention``: the score softmax)
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        value = exp / exp.sum(axis=axis, keepdims=True)
        out = self._make_child(value, (self,))

        def _backward() -> None:
            if self.requires_grad:
                s = out.data
                dot = (out.grad * s).sum(axis=axis, keepdims=True)
                self._accumulate(s * (out.grad - dot), owned=True)

        out._backward = _backward
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        value = shifted - logsumexp
        out = self._make_child(value, (self,))

        def _backward() -> None:
            if self.requires_grad:
                softmax = np.exp(out.data)
                grad_sum = out.grad.sum(axis=axis, keepdims=True)
                self._accumulate(out.grad - softmax * grad_sum, owned=True)

        out._backward = _backward
        return out


def scatter_rows(src: Tensor, rows: np.ndarray, num_rows: int) -> Tensor:
    """Scatter-add rows of ``src`` into a new ``(num_rows, dim)`` tensor.

    ``out[rows[i]] += src[i]`` for every row of ``src``.  The backward pass
    gathers the output gradient back to the source rows, which makes this the
    building block for differentiable token → expert dispatch/combine.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or rows.shape[0] != src.data.shape[0]:
        raise ValueError("rows must be a 1-D index array matching src's first dimension")
    data = np.zeros((num_rows,) + src.data.shape[1:], dtype=src.data.dtype)
    np.add.at(data, rows, src.data)
    requires = _grad_enabled and src.requires_grad
    out = Tensor(data, requires_grad=requires, _prev=(src,) if requires else ())

    def _backward() -> None:
        if src.requires_grad:
            src._accumulate(out.grad[rows], owned=True)

    out._backward = _backward
    return out


def take_rows(src: Tensor, rows: np.ndarray) -> Tensor:
    """Gather ``src[rows]`` where ``rows`` contains **unique** indices.

    Unlike ``src[rows]`` (whose backward must scatter-*add* with ``np.add.at``
    to handle duplicates), the uniqueness contract lets the backward pass use
    a plain fancy-index assignment, which is an order of magnitude faster.
    The caller is responsible for uniqueness; duplicated rows silently drop
    gradient contributions.
    """
    rows = np.asarray(rows, dtype=np.int64)
    data = src.data[rows]
    requires = _grad_enabled and src.requires_grad
    out = Tensor(data, requires_grad=requires, _prev=(src,) if requires else ())

    def _backward() -> None:
        if src.requires_grad:
            grad = np.zeros_like(src.data)
            grad[rows] = out.grad
            src._accumulate(grad, owned=True)

    out._backward = _backward
    return out


def place_rows(src: Tensor, rows: np.ndarray, num_rows: int) -> Tensor:
    """Scatter rows of ``src`` into a zero tensor: ``out[rows[i]] = src[i]``.

    ``rows`` must contain **unique** destinations (this is assignment, not
    accumulation — see :func:`scatter_rows` for the duplicate-safe
    variant).  The backward pass is a plain gather.  Used to put the rows a
    pass read back at full height (a shared expert's live rows, the
    supervised positions' losses).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or rows.shape[0] != src.data.shape[0]:
        raise ValueError("rows must be a 1-D index array matching src's first dimension")
    data = np.zeros((num_rows,) + src.data.shape[1:], dtype=src.data.dtype)
    data[rows] = src.data
    requires = _grad_enabled and src.requires_grad
    out = Tensor(data, requires_grad=requires, _prev=(src,) if requires else ())

    def _backward() -> None:
        if src.requires_grad:
            src._accumulate(out.grad[rows], owned=True)

    out._backward = _backward
    return out
