"""Functional building blocks on top of :class:`repro.autograd.Tensor`.

These helpers mirror ``torch.nn.functional`` for the operations the MoE
substrate needs: embedding lookup, cross-entropy loss, RMS normalisation,
dropout and the affine map.  Each function is differentiable with respect to
its tensor inputs.

Fused nodes
-----------
:func:`rms_norm` and :func:`linear` run on every token of every transformer
forward, so each is **one** autograd node with a hand-written backward rather
than a composition of generic ops (the recipe of
:mod:`repro.models.moe_layer` and :mod:`repro.models.attention`).  When
nothing requires grad (``no_grad`` or frozen inputs) both return a plain
result with no parents and no closure, so forward-only passes build no graph.

``rms_norm(x, w)``
    computes ``inv = 1 / sqrt(mean(x**2, -1) + eps)``, ``normed = x * inv``
    and returns ``normed * w``; retains ``normed`` and ``inv``; backward is
    ``g_x = inv * (g*w - normed * mean(g*w*normed, -1))`` and ``g_w`` the sum
    of ``g * normed`` over the leading axes.
``linear(x, W, b)``
    computes one 2-D GEMM ``x2 @ W.T (+ b)`` on the flattened leading axes of
    ``x``; retains the flattened view of ``x`` and reads ``W`` in place;
    backward is ``g_x = g2 @ W``, ``g_W = (x2.T @ g2).T`` (the operand layout
    of the composed ``x @ W.transpose()``, which keeps the per-expert loop of
    the MoE layer bit-identical to its fused kernel) and ``g_b`` the column
    sums of ``g2``.

The generic compositions they replaced are kept as ``composed_rms_norm`` and
``composed_linear`` in ``tests/composed_oracles.py``; ``tests/test_fused_nodes.py``
holds the nodes to them (outputs, every gradient, finite differences).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, is_grad_enabled


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` selected by integer ``indices``.

    Parameters
    ----------
    weight:
        ``(vocab_size, dim)`` embedding matrix.
    indices:
        Integer array of arbitrary shape; the result has shape
        ``indices.shape + (dim,)``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out_data = weight.data[indices]
    requires = is_grad_enabled() and weight.requires_grad
    out = Tensor(out_data, requires_grad=requires, _prev=(weight,) if requires else ())

    def _backward() -> None:
        if weight.requires_grad:
            grad = np.zeros_like(weight.data)
            np.add.at(grad, indices.reshape(-1), out.grad.reshape(-1, weight.data.shape[-1]))
            weight._accumulate(grad, owned=True)

    out._backward = _backward
    return out


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: Optional[int] = None,
    reduction: str = "mean",
) -> Tensor:
    """Cross-entropy loss over the last axis of ``logits``.

    Parameters
    ----------
    logits:
        ``(..., num_classes)`` unnormalised scores.
    targets:
        Integer array broadcastable to ``logits.shape[:-1]``.
    ignore_index:
        Target value to exclude from the loss (e.g. padding tokens).
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    num_classes = logits.shape[-1]
    flat_logits = logits.reshape(-1, num_classes)
    flat_targets = targets.reshape(-1)

    if ignore_index is not None:
        mask = flat_targets != ignore_index
    else:
        mask = np.ones_like(flat_targets, dtype=bool)
    safe_targets = np.where(mask, flat_targets, 0)

    log_probs = flat_logits.log_softmax(axis=-1)
    rows = np.arange(flat_targets.shape[0])
    picked = log_probs[rows, safe_targets]
    losses = -picked * Tensor(mask.astype(log_probs.data.dtype))

    if reduction == "none":
        return losses
    if reduction == "sum":
        return losses.sum()
    denom = max(int(mask.sum()), 1)
    return losses.sum() * (1.0 / denom)


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square normalisation (LLaMA-style, no mean subtraction)."""
    x_data = x.data
    mean_scale = 1.0 / x_data.shape[-1]     # sum * (1/n): ndarray.mean is a slow Python path
    inv = np.square(x_data).sum(axis=-1, keepdims=True)
    inv *= mean_scale
    inv += eps
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    normed = x_data * inv
    out_data = normed * weight.data
    if not (is_grad_enabled() and (x.requires_grad or weight.requires_grad)):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(x, weight))

    def _backward() -> None:
        grad = out.grad
        if weight.requires_grad:
            weight._accumulate(
                (grad * normed).reshape(-1, normed.shape[-1]).sum(axis=0), owned=True)
        if x.requires_grad:
            g_normed = grad * weight.data
            dot = (g_normed * normed).sum(axis=-1, keepdims=True)
            dot *= mean_scale
            g_normed -= normed * dot
            g_normed *= inv
            x._accumulate(g_normed, owned=True)

    out._backward = _backward
    return out


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` while training."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` over the last axis of ``x``."""
    w = weight.data
    if x.data.shape[-1] != w.shape[1]:
        raise ValueError(f"linear expects {w.shape[1]} input features, got {x.data.shape[-1]}")
    x2 = x.data.reshape(-1, w.shape[1])
    out2 = x2 @ w.T
    if bias is not None:
        out2 += bias.data
    out_data = out2.reshape(x.data.shape[:-1] + (w.shape[0],))
    parents = (x, weight) if bias is None else (x, weight, bias)
    if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=parents)

    def _backward() -> None:
        g2 = out.grad.reshape(-1, w.shape[0])
        if x.requires_grad:
            x._accumulate((g2 @ w).reshape(x.data.shape), owned=True)
        if weight.requires_grad:
            weight._accumulate((x2.T @ g2).T, owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2.sum(axis=0), owned=True)

    out._backward = _backward
    return out
