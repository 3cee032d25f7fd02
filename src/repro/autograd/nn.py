"""Minimal ``torch.nn``-style module system for the reproduction.

Provides :class:`Module` (parameter registration, ``state_dict``/``load_state_dict``,
train/eval modes) plus the concrete layers used by the MoE transformer:
:class:`Linear`, :class:`Embedding`, :class:`LayerNorm`, :class:`RMSNorm`,
:class:`Dropout`, and container types :class:`ModuleList` / :class:`Sequential`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from .init import kaiming_uniform, normal_, ones_, zeros_
from .tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data, requires_grad: bool = True, name: str = "") -> None:
        super().__init__(data, requires_grad=requires_grad, name=name)


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True

    # ----------------------------------------------------------- registration
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------- iteration
    def parameters(self) -> Iterator[Parameter]:
        # named_parameters() order, without building the dotted names
        yield from self._parameters.values()
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    # ------------------------------------------------------------------ state
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping from parameter names to copies of their data."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> List[str]:
        """Load parameter values from ``state``.

        Returns the list of missing keys (parameters present in the module but
        absent from ``state``).  With ``strict=True`` a missing or
        shape-mismatched key raises ``KeyError``/``ValueError``.
        """
        own = dict(self.named_parameters())
        missing = [name for name in own if name not in state]
        if strict and missing:
            raise KeyError(f"missing parameters in state_dict: {missing}")
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                if strict:
                    raise ValueError(
                        f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                    )
                continue
            param.data[...] = value
        return missing

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters in the module tree."""
        total = 0
        for param in self.parameters():
            if trainable_only and not param.requires_grad:
                continue
            total += param.data.size
        return total

    # ------------------------------------------------------------------ modes
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def freeze(self) -> "Module":
        """Mark every parameter as non-trainable (no gradient accumulation)."""
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        for param in self.parameters():
            param.requires_grad = True
        return self

    # ------------------------------------------------------------------- call
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng()
        self.weight = Parameter(kaiming_uniform((out_features, in_features), rng=rng))
        self.bias = Parameter(zeros_(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class Embedding(Module):
    """Lookup table mapping token ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        rng = rng or np.random.default_rng()
        self.weight = Parameter(normal_((num_embeddings, embedding_dim), std=0.02, rng=rng))

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(self.weight, indices)


class LayerNorm(Module):
    """Standard layer normalisation with learnable scale and shift."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(ones_(dim))
        self.bias = Parameter(zeros_(dim))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class RMSNorm(Module):
    """RMS normalisation (no centering), as used in LLaMA-family models."""

    def __init__(self, dim: int, eps: float = 1e-6) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(ones_(dim))

    def forward(self, x: Tensor) -> Tensor:
        return F.rms_norm(x, self.weight, eps=self.eps)


class Dropout(Module):
    """Inverted dropout layer; a no-op in eval mode."""

    def __init__(self, p: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)


class ModuleList(Module):
    """A list of sub-modules registered in order."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __setitem__(self, index: int, module: Module) -> None:
        self._items[index] = module
        self._modules[str(index)] = module

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)


class Sequential(Module):
    """Feed-forward composition of modules."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            index = len(self._items)
            self._items.append(module)
            self._modules[str(index)] = module

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)
