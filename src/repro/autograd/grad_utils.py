"""The global gradient norm of a module tree."""

from __future__ import annotations

import numpy as np

from .nn import Module


def gradient_norm(module: Module) -> float:
    """Global L2 norm of all gradients currently stored in ``module``."""
    total = 0.0
    for param in module.parameters():
        if param.grad is not None:
            total += float((param.grad ** 2).sum())
    return float(np.sqrt(total))
