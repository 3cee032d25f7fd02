"""Multi-head self-attention for the MoE transformer substrate.

Besides the usual attention output, the layer records the *per-token attention
received* — the average attention weight other tokens place on each token.
Flux's importance-based merging (§5.3 of the paper) weights experts by the
attention scores of the tokens they process, so this signal is surfaced on
every forward pass.

One autograd node
-----------------
:meth:`MultiHeadSelfAttention.forward` is a single fused node (the recipe of
:mod:`repro.models.moe_layer`).  It computes q/k/v as 2-D GEMMs on the
flattened tokens against the bias-free projection weights read in place, the
scaled scores + causal/key mask + softmax in one ``(batch, heads, seq, seq)``
buffer, the per-head context and the output projection.  For backward it
retains the flattened input, the q/k/v head views, the attention
probabilities and the pre-projection context; the hand-written backward
yields the input gradient and the four weight gradients, each only when
wanted, and stops after ``o_proj`` when nothing upstream of it requires grad.
When nothing requires grad at all the result has no parents and no closure.

The composition of generic ops it replaced is kept as ``composed_attention`` in
``tests/composed_oracles.py``; ``tests/test_fused_nodes.py`` holds the node to
it (output, every gradient, ``last_token_attention``).
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from ..autograd import Linear, Module, Tensor, is_grad_enabled


@functools.lru_cache(maxsize=64)
def causal_mask(seq_len: int) -> np.ndarray:
    """Lower-triangular mask: position ``i`` may attend to ``j <= i``.

    One read-only array per ``seq_len``, shared by every caller.
    """
    mask = np.tril(np.ones((seq_len, seq_len), dtype=bool))
    mask.flags.writeable = False
    return mask


class MultiHeadSelfAttention(Module):
    """Causal multi-head self-attention with attention-score bookkeeping."""

    def __init__(self, d_model: int, n_heads: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        self.d_model = d_model
        self.n_heads = n_heads
        self.head_dim = d_model // n_heads
        rng = rng or np.random.default_rng()
        self.q_proj = Linear(d_model, d_model, bias=False, rng=rng)
        self.k_proj = Linear(d_model, d_model, bias=False, rng=rng)
        self.v_proj = Linear(d_model, d_model, bias=False, rng=rng)
        self.o_proj = Linear(d_model, d_model, bias=False, rng=rng)
        #: attention received by each token of the most recent batch,
        #: shape ``(batch, seq_len)``; consumed by Flux's merging module.
        self.last_token_attention: Optional[np.ndarray] = None

    def forward(self, x: Tensor, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        """Apply causal self-attention to ``x`` of shape ``(batch, seq, d_model)``."""
        batch, seq_len, d_model = x.shape
        num_tokens = batch * seq_len
        params = (self.q_proj.weight, self.k_proj.weight, self.v_proj.weight)
        o_param = self.o_proj.weight
        x2 = x.data.reshape(num_tokens, d_model)

        def to_heads(flat: np.ndarray) -> np.ndarray:
            """``(tokens, d_model)`` → ``(batch, heads, seq, head_dim)`` view."""
            return flat.reshape(batch, seq_len, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)

        def to_tokens(per_head: np.ndarray) -> np.ndarray:
            """``(batch, heads, seq, head_dim)`` → contiguous ``(tokens, d_model)``."""
            return per_head.transpose(0, 2, 1, 3).reshape(num_tokens, d_model)

        q, k, v = (to_heads(x2 @ p.data.T) for p in params)
        scale = 1.0 / math.sqrt(self.head_dim)
        probs = q @ k.transpose(0, 1, 3, 2)                # scores → probs, one buffer
        probs *= scale
        mask = causal_mask(seq_len)[None, None, :, :]
        if attention_mask is not None:
            real = np.asarray(attention_mask, dtype=bool)
            mask = mask & real[:, None, None, :]
        probs += np.where(mask, 0.0, -1e9).astype(probs.dtype, copy=False)
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)

        # Attention received by token j: average of probs[..., i, j] over heads
        # and over the real query rows i allowed to attend to j.  A padding
        # query reads nothing, so it counts toward no token's score, and a
        # padding token, which no query may attend to, scores 0.  This is
        # recorded as plain data (no gradient) — it is a profiling signal, not
        # a loss term.
        received = probs.mean(axis=1)                      # (batch, query, key)
        readers = mask[:, 0]                               # queries that can see each key
        if attention_mask is not None:
            received = received * real[:, :, None]
            readers = readers & real[:, :, None]
        self.last_token_attention = (received.sum(axis=1)
                                     / np.maximum(readers.sum(axis=1), 1.0))  # (batch, seq)

        context = to_tokens(probs @ v)
        out_data = (context @ o_param.data.T).reshape(batch, seq_len, d_model)
        inner = x.requires_grad or any(p.requires_grad for p in params)
        if not (is_grad_enabled() and (inner or o_param.requires_grad)):
            return Tensor(out_data)
        out = Tensor(out_data, requires_grad=True, _prev=(x, o_param) + params)

        def _backward() -> None:
            g2 = out.grad.reshape(num_tokens, d_model)
            if o_param.requires_grad:
                o_param._accumulate((context.T @ g2).T, owned=True)
            if not inner:
                return
            g_context = to_heads(g2 @ o_param.data)
            g_v = probs.transpose(0, 1, 3, 2) @ g_context
            g_scores = g_context @ v.transpose(0, 1, 3, 2)  # g_probs → g_scores, one buffer
            g_scores -= (g_scores * probs).sum(axis=-1, keepdims=True)
            g_scores *= probs
            g_scores *= scale
            g_heads = (g_scores @ k, g_scores.transpose(0, 1, 3, 2) @ q, g_v)
            g_x = None
            for param, g_head in zip(params, g_heads):
                g_flat = to_tokens(g_head)
                if param.requires_grad:
                    param._accumulate((x2.T @ g_flat).T, owned=True)
                if x.requires_grad:
                    if g_x is None:
                        g_x = g_flat @ param.data
                    else:
                        g_x += g_flat @ param.data
            if x.requires_grad:
                x._accumulate(g_x.reshape(x.data.shape), owned=True)

        out._backward = _backward
        return out
