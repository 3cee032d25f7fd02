"""The per-parameter Adam that the flat :class:`repro.autograd.Adam` replaced.

Kept as the test oracle: one parameter at a time, moments zero-filled on a
parameter's first step and then decayed, every pass through ``np.multiply`` /
``np.add`` with ``out=`` into per-parameter scratch.  The flat optimizer must
match it bit for bit (``tests/test_autograd_optim.py``), and
``benchmarks/perf_harness.py``'s ``optimizer`` block times it as the baseline.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.autograd import Parameter


class PerParameterAdam:
    """Adam optimiser (Kingma & Ba, 2015), one parameter at a time."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._scratch: Dict[int, np.ndarray] = {}
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def _buf(self, param: Parameter, slot: int = 0) -> np.ndarray:
        key = id(param) * 4 + slot
        buf = self._scratch.get(key)
        if buf is None or buf.shape != param.data.shape or buf.dtype != param.data.dtype:
            buf = np.empty_like(param.data)
            self._scratch[key] = buf
        return buf

    def zero_grad(self) -> None:
        for param in self.params:
            param.grad = None

    def step(self) -> None:
        self._t += 1
        bias1 = 1 - self.beta1 ** self._t
        bias2 = 1 - self.beta2 ** self._t
        for param in self.params:
            if not param.requires_grad or param.grad is None:
                continue
            grad = param.grad
            s1 = self._buf(param, 0)
            s2 = self._buf(param, 1)
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=s1)
                np.add(s1, grad, out=s1)
                grad = s1
            m = self._m.get(id(param))
            v = self._v.get(id(param))
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
                self._m[id(param)] = m
                self._v[id(param)] = v
            # m = beta1 * m + (1 - beta1) * grad
            np.multiply(m, self.beta1, out=m)
            np.multiply(grad, 1 - self.beta1, out=s2)
            np.add(m, s2, out=m)
            # v = beta2 * v + (1 - beta2) * grad**2
            np.multiply(v, self.beta2, out=v)
            np.multiply(grad, grad, out=s2)
            np.multiply(s2, 1 - self.beta2, out=s2)
            np.add(v, s2, out=v)
            # param -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m, bias1, out=s1)
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            np.add(s2, self.eps, out=s2)
            np.multiply(s1, self.lr, out=s1)
            np.divide(s1, s2, out=s1)
            param.data -= s1

