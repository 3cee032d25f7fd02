"""NumPy-based automatic differentiation and neural-network substrate.

This package replaces PyTorch for the reproduction: a reverse-mode autograd
:class:`Tensor`, ``nn``-style modules, functional ops and the Adam optimiser.
It keeps what the MoE transformer and the test oracles of its fused nodes
call, and nothing else.
"""

from . import functional
from .grad_utils import gradient_norm
from .nn import (
    Dropout,
    Embedding,
    Linear,
    Module,
    ModuleList,
    Parameter,
    RMSNorm,
)
from .optim import Adam, AdamBuffers, Optimizer
from .tensor import (
    Tensor,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    place_rows,
    scatter_rows,
    set_default_dtype,
    take_rows,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "scatter_rows",
    "take_rows",
    "place_rows",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "RMSNorm",
    "Dropout",
    "ModuleList",
    "Optimizer",
    "Adam",
    "gradient_norm",
]
