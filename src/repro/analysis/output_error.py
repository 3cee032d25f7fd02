"""Output-error measurement between a modified model and the original.

The paper quantifies the damage done by merging or discarding experts as the
average cosine distance between the final token embeddings of the modified
model and the original full model (§5.1, Figures 8, 15 and 17).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..autograd import no_grad
from ..data import Batch
from ..models import MoETransformer


def cosine_distance(a: np.ndarray, b: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Element-wise cosine distance ``1 - cos(a, b)`` along ``axis``."""
    dot = (a * b).sum(axis=axis)
    norm = np.linalg.norm(a, axis=axis) * np.linalg.norm(b, axis=axis)
    return 1.0 - dot / np.maximum(norm, eps)


def final_embeddings(model: MoETransformer, batch: Batch) -> np.ndarray:
    """Final-layer token embeddings for one batch (no gradients recorded).

    Upcast to float64 whatever the model dtype: a distance between two
    float32 embeddings computed in float32 reads ~1e-8 for identical models.
    """
    with no_grad():
        hidden = model.forward_hidden(batch.input_ids, attention_mask=batch.attention_mask)
    return hidden.data.astype(np.float64, copy=False)


def output_error(reference: MoETransformer, modified: MoETransformer,
                 batches: Sequence[Batch]) -> float:
    """Average cosine distance between token embeddings of two models.

    Only non-padding tokens contribute.  A value of 0 means the modified model
    (e.g. with merged experts) reproduces the original exactly.
    """
    if not batches:
        raise ValueError("output_error requires at least one batch")
    distances = []
    for batch in batches:
        ref = final_embeddings(reference, batch)
        mod = final_embeddings(modified, batch)
        if ref.shape != mod.shape:
            raise ValueError("models produced differently shaped embeddings")
        dist = cosine_distance(ref, mod)
        mask = batch.attention_mask.astype(bool)
        distances.append(dist[mask])
    return float(np.mean(np.concatenate(distances)))
