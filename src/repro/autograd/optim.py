"""The Adam optimiser the reproduction trains with.

An optimiser owns a list of parameters and implements ``step()`` /
``zero_grad()`` mirroring the ``torch.optim`` interface.  Parameters whose
``requires_grad`` flag is ``False`` or whose gradient is ``None`` are skipped,
which is how the federated clients implement expert-only / frozen-expert
updates.

:class:`Adam` steps over flat state: its moments are one 1-D array per
dtype, laid out in parameter order and cut into chunks of whole parameters
that fit in L2.  A step gathers a chunk's present gradients with one
``np.concatenate(..., out=)``, runs Adam's elementwise passes over the chunk
and applies each parameter's update from a view.  A parameter's first step
writes its moments in closed form (``m = (1-β1)·g + 0``, ``v = (1-β2)·g²``)
instead of decaying zero-filled ones.  Every pass keeps the per-parameter
formulas' evaluation order, so the results are bit-identical to them (the
oracle is ``tests/optim_oracles.py``).

The state lives in :class:`AdamBuffers`, grow-only storage that outlives any
one optimizer.  Within one optimizer a step allocates nothing; across
optimizers, only those built on the same :class:`AdamBuffers` share storage.
A model that trains one participant after another keeps one (see
``repro.federated.client.ExpertTraining``), so on the server's training
replica only the first participant's optimizer allocates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .nn import Parameter

#: elements per chunk of a step: the chunk's moments, gathered gradients and
#: two scratch arrays (320 KiB in float32, the training dtype; 640 KiB in
#: float64) stay in L2 through every pass
ADAM_CHUNK = 16384


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, params: Iterable[Parameter]) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")

    def zero_grad(self) -> None:
        for param in self.params:
            param.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AdamBuffers:
    """Grow-only flat storage of :class:`Adam`: moments, gathered gradients, scratch.

    Per dtype: the moments ``m`` and ``v``, as long as the largest optimizer
    built on it, and chunk-sized arrays for the gathered gradients, two
    scratch passes and (once a step with weight decay asks for it) the
    gathered parameters.  One optimizer holds the storage at a time:
    building an :class:`Adam` on it takes it over, and :meth:`release` takes
    it back, after which the previous holder refuses to step instead of
    reading another one's moments.  Nothing in the arrays is read before a
    step has written it, so taking them over needs no reset.  The last
    optimizer's layout is kept too: the next one over the same parameters
    (every participant of an FMD run) reuses it.
    """

    def __init__(self) -> None:
        self._arrays: Dict[Tuple[str, np.dtype], np.ndarray] = {}
        self.holder: Optional["Adam"] = None
        self._layouts: Tuple[Tuple[Parameter, ...], List["_Layout"]] = ((), [])

    def array(self, name: str, dtype: np.dtype, size: int) -> np.ndarray:
        """The leading ``size`` elements of the array ``name``, grown when shorter."""
        array = self._arrays.get((name, dtype))
        if array is None or array.size < size:
            array = self._arrays[name, dtype] = np.empty(size, dtype=dtype)
            self._layouts = ((), [])          # their views are of the old arrays
        return array[:size]

    def layouts(self, params: List[Parameter]) -> List["_Layout"]:
        """One :class:`_Layout` per dtype of ``params``, in first-seen order."""
        key, layouts = self._layouts
        if (len(key) == len(params) and all(a is b for a, b in zip(key, params))
                and all(layout.fits() for layout in layouts)):
            return layouts
        by_dtype: Dict[np.dtype, List[Parameter]] = {}
        for param in params:
            by_dtype.setdefault(param.data.dtype, []).append(param)
        layouts = [_Layout(group, self) for group in by_dtype.values()]
        self._layouts = (tuple(params), layouts)
        return layouts

    def release(self) -> None:
        """End the current holder's lease."""
        self.holder = None


class _Layout:
    """Where the parameters of one dtype live in an :class:`AdamBuffers`' arrays.

    Back to back in parameter order, cut into chunks of whole parameters, at
    most :data:`ADAM_CHUNK` elements each (or one larger parameter); a step
    works one chunk at a time, so the gathered gradients and the scratch are
    a chunk long and stay in cache through every pass.
    """

    def __init__(self, params: List[Parameter], buffers: AdamBuffers) -> None:
        self.params = params
        self.buffers = buffers
        self.dtype = params[0].data.dtype
        self.shapes = [param.data.shape for param in params]
        self.bounds: List[int] = np.concatenate(
            ([0], np.cumsum([param.data.size for param in params]))).tolist()
        #: where each parameter's chunk starts
        self.chunks: List[int] = []
        start = 0
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            if hi - start > ADAM_CHUNK:
                start = lo
            self.chunks.append(start)
        self.width = max(hi - start for hi, start in zip(self.bounds[1:], self.chunks))
        self.m, self.v = (buffers.array(name, self.dtype, self.bounds[-1]) for name in "mv")
        self.grad, self.s1, self.s2 = (buffers.array(name, self.dtype, self.width)
                                       for name in ("grad", "s1", "s2"))
        #: each parameter's stretch of ``grad`` in its own shape: a step
        #: writes the parameter's update there once the gradient is spent
        self.updates = self.views(self.grad)

    def fits(self) -> bool:
        """Whether the parameters still have the shapes and dtype laid out."""
        return all(param.data.shape == shape and param.data.dtype == self.dtype
                   for param, shape in zip(self.params, self.shapes))

    def views(self, chunk: np.ndarray) -> List[np.ndarray]:
        """Each parameter's stretch of a chunk-long array, in the parameter's shape."""
        return [chunk[lo - start:hi - start].reshape(shape) for shape, lo, hi, start
                in zip(self.shapes, self.bounds, self.bounds[1:], self.chunks)]

    def runs(self, touched: List[bool]) -> List[Tuple[int, int, bool]]:
        """``(first, stop, touched)`` of each run of present parameters in one
        chunk, with one ``touched``."""
        runs: List[Tuple[int, int, bool]] = []
        start, state = 0, None
        for index, param in enumerate(self.params):
            now = ((touched[index], self.chunks[index])
                   if param.requires_grad and param.grad is not None else None)
            if now != state:
                if state is not None:
                    runs.append((start, index, state[0]))
                start, state = index, now
        if state is not None:
            runs.append((start, len(self.params), state[0]))
        return runs


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) over flat, resident state.

    ``buffers`` is the :class:`AdamBuffers` to step in (a fresh one when not
    given); the optimizer takes it over on construction.  State is kept by
    position in ``params``: the step counter ``_t`` is global, a parameter
    without a gradient is skipped with its moments untouched, and its first
    step may come at any ``t``.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.0,
                 buffers: Optional[AdamBuffers] = None) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._t = 0
        self._buffers = buffers if buffers is not None else AdamBuffers()
        self._buffers.holder = self
        self._layouts = self._buffers.layouts(self.params)
        #: per layout, whether each parameter has had a step (its moments hold state)
        self._touched = [[False] * len(layout.params) for layout in self._layouts]

    def step(self) -> None:
        if self._buffers.holder is not self:
            raise RuntimeError("this optimizer's AdamBuffers were taken over or released")
        self._t += 1
        for layout, touched in zip(self._layouts, self._touched):
            for first, stop, done in layout.runs(touched):
                self._step_run(layout, first, stop, done)
                touched[first:stop] = [True] * (stop - first)

    def _step_run(self, layout: _Layout, first: int, stop: int, touched: bool) -> None:
        """One step of ``layout.params[first:stop]``: present, in one chunk, all
        ``touched`` or none."""
        beta1, beta2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        bias1 = 1 - beta1 ** self._t
        bias2 = 1 - beta2 ** self._t
        params = layout.params[first:stop]
        lo, hi = layout.bounds[first], layout.bounds[stop]
        start = layout.chunks[first]
        m, v = layout.m[lo:hi], layout.v[lo:hi]
        grad, s1, s2 = (array[lo - start:hi - start] for array in (layout.grad, layout.s1, layout.s2))
        np.concatenate([param.grad for param in params], axis=None, out=grad)
        if self.weight_decay:
            data = layout.buffers.array("data", layout.dtype, layout.width)[lo - start:hi - start]
            np.concatenate([param.data for param in params], axis=None, out=data)
            # grad = weight_decay * param + grad
            np.multiply(data, self.weight_decay, out=s1)
            np.add(s1, grad, out=grad)
        if touched:
            # m = beta1 * m + (1 - beta1) * grad
            np.multiply(m, beta1, out=m)
            np.multiply(grad, 1 - beta1, out=s2)
            np.add(m, s2, out=m)
            # v = beta2 * v + (1 - beta2) * grad**2
            np.multiply(v, beta2, out=v)
            np.multiply(grad, grad, out=s2)
            np.multiply(s2, 1 - beta2, out=s2)
            np.add(v, s2, out=v)
        else:
            # the same with m = v = 0: beta * 0 is +0, and +0 + x turns a
            # -0.0 into +0.0, which only m can hold (v's term is >= +0)
            np.multiply(grad, 1 - beta1, out=m)
            np.add(m, 0.0, out=m)
            np.multiply(grad, grad, out=v)
            np.multiply(v, 1 - beta2, out=v)
        # update = lr * m_hat / (sqrt(v_hat) + eps), into the spent gradient
        np.divide(m, bias1, out=s1)
        np.divide(v, bias2, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, eps, out=s2)
        np.multiply(s1, lr, out=s1)
        np.divide(s1, s2, out=grad)
        for param, update in zip(params, layout.updates[first:stop]):
            param.data -= update
