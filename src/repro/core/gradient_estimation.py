"""Forward-only gradient estimation for exploration experts (paper §6.2).

Exploration experts only need a gradient-magnitude estimate to refresh their
utility, so back-propagating through them would waste the very compute Flux is
trying to save.  Following BAFFLE/forward-gradient practice, the expert's
weights are perturbed with Gaussian noise and the loss difference between
positive and negative perturbations gives an unbiased directional-derivative
estimate; averaging over several perturbations yields an estimated gradient
vector (and its norm) without any backward pass through the expert.

Perturbing expert ``(L, e)`` cannot change anything the model computes before
layer ``L``'s MoE sub-layer, so the probe never recomputes it: a
:class:`ProbePrefix` runs the unperturbed model once over the probe batches
and keeps what enters the MoE half of every probed layer; each estimate then
re-runs only that MoE sub-layer per perturbed copy of the expert, concatenates
the ``2 * num_perturbations`` results along the batch axis and pushes them
through the remaining blocks, the LM head and a per-copy cross-entropy once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..autograd import Tensor, no_grad
from ..autograd import functional as F
from ..data import IGNORE_INDEX, Batch
from ..models import MoETransformer


#: Most sequences one stacked suffix pass holds.  Stacking amortises per-call
#: overhead over small probe batches; measured on ``llama_moe_mini``, passes
#: beyond ~32 sequences are no faster and only grow the temporaries
#: (32 copies of a 16-sample batch in one pass peak at 1.7 GB).
_MAX_STACKED_SEQUENCES = 32


@dataclass
class GradientEstimate:
    """Estimated gradient of one expert's parameters."""

    layer: int
    expert: int
    gradient: Dict[str, np.ndarray]
    num_perturbations: int

    def norm(self) -> float:
        total = sum(float((g ** 2).sum()) for g in self.gradient.values())
        return float(np.sqrt(total))

    def flatten(self) -> np.ndarray:
        return np.concatenate([g.reshape(-1) for g in self.gradient.values()])


@dataclass
class _LayerEntry:
    """What enters one probed layer's MoE half for one probe batch."""

    residual: Tensor            # output of the block's attention half
    normed: Tensor              # ``moe_norm(residual)``, the MoE sub-layer's input
    active_slots: np.ndarray    # local expert slots that receive at least one token


class ProbePrefix:
    """Unperturbed activations entering the MoE half of every probed layer.

    Built with one eval-mode, gradient-free pass of ``model`` over ``batches``
    that stops at the deepest probed layer.  Validity rule: the entry for
    layer ``L`` holds only while every weight the model applies before layer
    ``L``'s experts — embeddings, blocks ``< L``, layer ``L``'s attention,
    norms and gate — is what it was when the prefix was built.  Perturbing
    (and exactly restoring) experts of probed layers keeps it valid; training
    does not, so a client builds one prefix per participant-round, after local
    fine-tuning, and drops it when the round ends.
    """

    def __init__(self, model: MoETransformer, batches: Sequence[Batch],
                 layers: Iterable[int]) -> None:
        self.model = model
        self.batches = list(batches)
        wanted = sorted(set(int(layer) for layer in layers))
        if not self.batches:
            raise ValueError("gradient estimation requires at least one batch")
        if not wanted or wanted[0] < 0 or wanted[-1] >= model.num_layers:
            raise ValueError(f"probed layers {wanted} outside the model's "
                             f"{model.num_layers} layers")
        #: ``entries[layer][i]`` belongs to ``batches[i]``
        self.entries: Dict[int, List[_LayerEntry]] = {layer: [] for layer in wanted}
        was_training = model.training
        model.eval()
        try:
            with no_grad():
                for batch in self.batches:
                    self._run_prefix(batch, wanted)
        finally:
            model.train(was_training)

    def _run_prefix(self, batch: Batch, wanted: List[int]) -> None:
        model, mask = self.model, batch.attention_mask
        x = model.embed(batch.input_ids)
        done = 0
        for layer in wanted:
            x = model.run_blocks(x, done, layer, attention_mask=mask)
            block = model.blocks[layer]
            residual = block.attention_half(x, attention_mask=mask)
            normed = block.moe_norm(residual)
            routed, _, _ = block.moe.gate(normed.reshape(-1, normed.shape[-1]), with_probs=False)
            self.entries[layer].append(_LayerEntry(
                residual, normed, np.unique(block.moe.remap.apply(routed))))
            if layer != wanted[-1]:
                x = block.moe_half(residual, token_attention=block.attn.last_token_attention,
                                   attention_mask=mask, normed=normed)
            done = layer + 1

    def layer_entries(self, model: MoETransformer, batches: Sequence[Batch],
                      layer: int) -> List[_LayerEntry]:
        """Entries of ``layer``, after checking the prefix was built for these inputs."""
        if model is not self.model:
            raise ValueError("probe prefix was built for a different model")
        if len(batches) != len(self.batches) or any(
                mine is not theirs for mine, theirs in zip(self.batches, batches)):
            raise ValueError("probe prefix was built for different batches")
        if layer not in self.entries:
            raise ValueError(f"probe prefix does not cover layer {layer} "
                             f"(covers {sorted(self.entries)})")
        return self.entries[layer]


def estimate_expert_gradient(
    model: MoETransformer,
    batches: Sequence[Batch],
    layer: int,
    expert: int,
    num_perturbations: int = 4,
    sigma: float = 1e-2,
    seed: int = 0,
    prefix: Optional[ProbePrefix] = None,
) -> GradientEstimate:
    """Estimate the loss gradient w.r.t. one expert's weights, forward passes only.

    For each perturbation a Gaussian direction ``delta`` is sampled per weight
    matrix; the symmetric loss difference ``(L(w + sigma*delta) - L(w -
    sigma*delta)) / (2*sigma)`` scales ``delta`` to produce one gradient
    sample.  Samples are averaged over ``num_perturbations`` draws.  The
    losses are evaluated in eval mode (both signs must see the same model) and
    the expert's weights and the model's mode are restored exactly afterwards.

    ``prefix`` is a :class:`ProbePrefix` of ``model`` over these ``batches``
    covering ``layer``, shared by every estimate of one participant-round; one
    covering just ``layer`` is built when it is omitted.  An expert that no
    probe token is routed to has an estimate of exactly zero.
    """
    if num_perturbations < 1:
        raise ValueError("num_perturbations must be positive")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not batches:
        raise ValueError("gradient estimation requires at least one batch")
    if prefix is None:
        prefix = ProbePrefix(model, batches, [layer])
    entries = prefix.layer_entries(model, batches, layer)

    target = model.get_expert(layer, expert)
    original = target.state()
    accumulated = {name: np.zeros_like(value) for name, value in original.items()}

    if any(expert in entry.active_slots for entry in entries):
        rng = np.random.default_rng(seed)
        directions = [{name: rng.standard_normal(value.shape) for name, value in original.items()}
                      for _ in range(num_perturbations)]
        block = model.blocks[layer]
        was_training = model.training
        model.eval()
        try:
            with no_grad():
                # perturbed[i][c]: batch i leaving layer `layer` under copy c
                # (copies ordered +d0, -d0, +d1, -d1, ...)
                perturbed: List[List[np.ndarray]] = [[] for _ in entries]
                for direction in directions:
                    for signed_sigma in (sigma, -sigma):
                        target.load_state({name: original[name] + signed_sigma * direction[name]
                                           for name in original})
                        for outputs, batch, entry in zip(perturbed, batches, entries):
                            outputs.append(block.moe_half(
                                entry.residual, attention_mask=batch.attention_mask,
                                normed=entry.normed).data)
                losses = np.mean([_suffix_losses(model, layer + 1, outputs, batch)
                                  for outputs, batch in zip(perturbed, batches)], axis=0)
        finally:
            target.load_state(original)
            model.train(was_training)
        for direction, loss_plus, loss_minus in zip(directions, losses[0::2], losses[1::2]):
            coefficient = (loss_plus - loss_minus) / (2.0 * sigma)
            for name in original:
                accumulated[name] += coefficient * direction[name]

    gradient = {name: value / num_perturbations for name, value in accumulated.items()}
    return GradientEstimate(layer=layer, expert=expert, gradient=gradient,
                            num_perturbations=num_perturbations)


def _suffix_losses(model: MoETransformer, start: int, outputs: List[np.ndarray],
                   batch: Batch) -> np.ndarray:
    """Loss of each copy in ``outputs`` (one batch leaving block ``start - 1``).

    The copies are concatenated along the batch axis and run through blocks
    ``start…``, the LM head and a per-copy mean cross-entropy in one pass (in
    as few passes as ``_MAX_STACKED_SEQUENCES`` allows).
    """
    supervised = max(int((batch.labels != IGNORE_INDEX).sum()), 1)
    per_pass = max(_MAX_STACKED_SEQUENCES // batch.batch_size, 1)
    losses = []
    for first in range(0, len(outputs), per_pass):
        chunk = outputs[first:first + per_pass]
        copies = len(chunk)
        x = model.run_blocks(Tensor(np.concatenate(chunk, axis=0)), start,
                             attention_mask=np.tile(batch.attention_mask, (copies, 1)))
        token_losses = F.cross_entropy(model.logits(x), np.tile(batch.labels, (copies, 1)),
                                       ignore_index=IGNORE_INDEX, reduction="none")
        losses.append(token_losses.data.reshape(copies, -1).sum(axis=1) * (1.0 / supervised))
    return np.concatenate(losses).astype(np.float64)


def true_expert_gradient(model: MoETransformer, batches: Sequence[Batch],
                         layer: int, expert: int) -> Dict[str, np.ndarray]:
    """Ground-truth expert gradient via backpropagation (for Figure 18).

    ``requires_grad`` of every parameter is as it was on return.
    """
    if not batches:
        raise ValueError("gradient computation requires at least one batch")
    model.zero_grad()
    target = model.get_expert(layer, expert)
    parameters = list(model.parameters())
    trainable = [param.requires_grad for param in parameters]
    try:
        for param in parameters:
            param.requires_grad = False
        for param in target.parameters():
            param.requires_grad = True

        for batch in batches:
            loss = model.compute_loss(batch.input_ids, labels=batch.labels,
                                      attention_mask=batch.attention_mask)
            loss = loss * (1.0 / len(batches))
            loss.backward()

        names = ("w_gate", "w_up", "w_down")
        gradient = {}
        for name in names:
            param = getattr(target, name).weight
            gradient[name] = (param.grad.copy() if param.grad is not None
                              else np.zeros_like(param.data))
    finally:
        for param, flag in zip(parameters, trainable):
            param.requires_grad = flag
        model.zero_grad()
    return gradient


def gradient_cosine_distance(estimate: GradientEstimate, truth: Dict[str, np.ndarray]) -> float:
    """Cosine distance between an estimated and the true expert gradient."""
    est = estimate.flatten()
    ref = np.concatenate([truth[name].reshape(-1) for name in estimate.gradient])
    denom = np.linalg.norm(est) * np.linalg.norm(ref)
    if denom == 0:
        return 1.0
    return float(1.0 - est @ ref / denom)
