"""NumPy-based automatic differentiation and neural-network substrate.

This package replaces PyTorch for the reproduction: a reverse-mode autograd
:class:`Tensor`, ``nn``-style modules, functional ops and optimisers.
"""

from . import functional
from .grad_utils import gradient_norm
from .nn import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    Parameter,
    RMSNorm,
    Sequential,
)
from .optim import SGD, Adam, AdamBuffers, AdamW, Optimizer
from .tensor import (
    Tensor,
    concatenate,
    default_dtype,
    expand_rows,
    get_default_dtype,
    index_add,
    is_grad_enabled,
    no_grad,
    place_rows,
    scatter_rows,
    set_default_dtype,
    stack,
    take_rows,
    where,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "stack",
    "concatenate",
    "where",
    "scatter_rows",
    "index_add",
    "expand_rows",
    "take_rows",
    "place_rows",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "LayerNorm",
    "RMSNorm",
    "Dropout",
    "ModuleList",
    "Sequential",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "gradient_norm",
]
