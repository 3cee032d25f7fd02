"""Quantized model construction.

:func:`quantize_model` produces a *new* model whose parameters have been
round-tripped through low-bit quantization.  The result is a regular
:class:`~repro.models.transformer.MoETransformer`, so it can run forward
passes (for profiling) or even be fine-tuned (the FMQ baseline) — with the
precision error that entails.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..models import MoETransformer
from .quantizer import quantize_array


def quantize_model(model: MoETransformer, bits: int,
                   skip_substrings: Optional[Iterable[str]] = ("embedding", "norm"),
                   dtype: Optional[str] = None) -> MoETransformer:
    """Return a copy of ``model`` with weights quantized to ``bits`` bits.

    Parameters
    ----------
    model:
        Source full-precision model (left untouched).
    bits:
        Quantization bit-width (2, 3, 4 or 8).
    skip_substrings:
        Parameter-name substrings to keep in full precision.  Embeddings and
        norms are kept by default, matching common MoE quantization practice
        where only the large linear weights are compressed.
    dtype:
        Precision of the returned model (``"float32"`` / ``"float64"``;
        default: ``model``'s).  Weights are quantized at the source's
        precision and stored at this one: ``bits``-bit codes times a row
        scale lose nothing that matters in float32, and a forward-only pass
        over them (profiling) runs that much faster.
    """
    skip = tuple(skip_substrings or ())
    clone = MoETransformer.copy_of(model, dtype=dtype)
    for (name, target), source in zip(clone.named_parameters(), model.parameters(), strict=True):
        if source.data.ndim >= 2 and not any(token in name for token in skip):
            target.data[...] = quantize_array(source.data, bits).dequantize()
    return clone
