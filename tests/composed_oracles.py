"""Reference implementations of the fused transformer nodes, kept verbatim.

``composed_linear``, ``composed_rms_norm`` and ``composed_attention`` are the
compositions of generic autograd ops this repo shipped before ``F.linear``,
``F.rms_norm`` and ``MultiHeadSelfAttention.forward`` became one node each;
``full_forward_profile`` is ``profile_activation`` from when it ran whole
``model.forward`` passes.  They exist only here: ``test_fused_nodes.py`` holds
the fused versions to them, and ``benchmarks/perf_harness.py`` times each node
against its oracle.

``loop_oracle`` puts a layer or model on the MoE layer's per-expert loop, the
oracle of its segment-grouped kernel (``test_moe_dispatch.py``; the harness's
``loop/float64`` configuration).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import ActivationProfile
from repro.autograd import Tensor, no_grad
from repro.models import MoELayer, causal_mask


def loop_oracle(module):
    """``module``, its MoE layers running the per-expert loop.

    Each :class:`MoELayer` in ``module`` (a layer or a model) gets its
    ``_combine_batched`` rebound to its own ``_combine_loop``; the two share
    one signature, so ``forward`` runs the loop unawares.  The rebinding is
    the instance's: a model built or copied later runs the kernel again.
    """
    for layer in module.modules():
        if isinstance(layer, MoELayer):
            layer._combine_batched = layer._combine_loop
    return module


def composed_linear(x, weight, bias=None):
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def composed_rms_norm(x, weight, eps=1e-6):
    mean_sq = (x * x).mean(axis=-1, keepdims=True)
    normed = x / ((mean_sq + eps) ** 0.5)
    return normed * weight


def composed_attention(self, x, attention_mask=None):
    batch, seq_len, _ = x.shape

    q = (composed_linear(x, self.q_proj.weight)
         .reshape(batch, seq_len, self.n_heads, self.head_dim).transpose(0, 2, 1, 3))
    k = (composed_linear(x, self.k_proj.weight)
         .reshape(batch, seq_len, self.n_heads, self.head_dim).transpose(0, 2, 1, 3))
    v = (composed_linear(x, self.v_proj.weight)
         .reshape(batch, seq_len, self.n_heads, self.head_dim).transpose(0, 2, 1, 3))

    scale = 1.0 / np.sqrt(self.head_dim)
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale

    mask = causal_mask(seq_len)[None, None, :, :]
    if attention_mask is not None:
        key_mask = np.asarray(attention_mask, dtype=bool)[:, None, None, :]
        mask = mask & key_mask
    neg_inf = np.full(scores.shape, -1e9, dtype=scores.data.dtype)
    scores = Tensor(np.where(mask, 0.0, neg_inf).astype(scores.data.dtype, copy=False)) + scores

    probs = scores.softmax(axis=-1)

    attn_data = probs.data
    if attention_mask is None:
        received = attn_data.mean(axis=1).sum(axis=1)
        valid_queries = mask.sum(axis=(1, 2)).astype(np.float64)
    else:
        # padding queries count toward no token's score
        real_queries = np.asarray(attention_mask, dtype=bool)[:, None, :, None]
        received = (attn_data * real_queries).mean(axis=1).sum(axis=1)
        valid_queries = (mask & real_queries).sum(axis=(1, 2)).astype(np.float64)
    received = received / np.maximum(valid_queries, 1.0)
    if attention_mask is not None:
        received = received * np.asarray(attention_mask, dtype=np.float64)
    self.last_token_attention = received

    out = probs @ v
    out = out.transpose(0, 2, 1, 3).reshape(batch, seq_len, self.d_model)
    return composed_linear(out, self.o_proj.weight)


def full_forward_profile(model, batches) -> ActivationProfile:
    model.set_routing_accumulation(True)
    model.eval()
    try:
        with no_grad():
            for batch in batches:
                model.forward(batch.input_ids, attention_mask=batch.attention_mask,
                              sample_ids=batch.sample_ids)
    finally:
        model.train()
    records = model.routing_records(accumulated=True)
    model.set_routing_accumulation(False)
    return ActivationProfile(
        frequencies=[record.activation_frequency() for record in records],
        attention_scores=[record.average_attention() for record in records],
        sample_sets=[[set(s) for s in record.sample_ids] for record in records],
        token_counts=[record.token_counts.copy() for record in records],
        total_tokens=int(records[0].total_tokens) if records else 0,
    )
