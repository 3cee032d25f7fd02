"""Parameter initialisation helpers.

Every helper honours the tensor engine's default dtype (see
:func:`repro.autograd.set_default_dtype`).  Random draws always happen in
float64 and are cast afterwards, so a seeded model built under float32 has
bit-identically-rounded parameters of the float64 model built from the same
seed — the property the dispatch/dtype equivalence tests rely on.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import get_default_dtype


class AllocationOnlyGenerator(np.random.Generator):
    """A generator for which the random initialisers below allocate without drawing.

    Pass it as ``rng`` when building a module whose every parameter is
    overwritten right after construction (a clone about to ``load_state``):
    :func:`kaiming_uniform` and :func:`normal_` then return uninitialised
    buffers of the usual shape and dtype and leave the stream untouched.  It
    is a real generator for everything else, so a ``Dropout`` or gate-noise
    source that keeps it still draws proper noise.
    """


def _cast(values: np.ndarray, dtype) -> np.ndarray:
    return values.astype(dtype or get_default_dtype(), copy=False)


def _allocate(shape, dtype) -> np.ndarray:
    return np.empty(shape, dtype=dtype or get_default_dtype())


def kaiming_uniform(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None,
                    dtype=None) -> np.ndarray:
    """Kaiming/He uniform initialisation keyed on fan-in (the last dimension)."""
    if isinstance(rng, AllocationOnlyGenerator):
        return _allocate(shape, dtype)
    rng = rng or np.random.default_rng()
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return _cast(rng.uniform(-bound, bound, size=shape), dtype)


def normal_(shape: Tuple[int, ...], mean: float = 0.0, std: float = 0.02,
            rng: Optional[np.random.Generator] = None, dtype=None) -> np.ndarray:
    """Gaussian initialisation with the given mean and standard deviation."""
    if isinstance(rng, AllocationOnlyGenerator):
        return _allocate(shape, dtype)
    rng = rng or np.random.default_rng()
    return _cast(rng.normal(mean, std, size=shape), dtype)


def zeros_(shape, dtype=None) -> np.ndarray:
    """All-zeros initialisation."""
    return np.zeros(shape, dtype=dtype or get_default_dtype())


def ones_(shape, dtype=None) -> np.ndarray:
    """All-ones initialisation."""
    return np.ones(shape, dtype=dtype or get_default_dtype())
