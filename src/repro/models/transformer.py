"""Decoder-only MoE transformer language model.

This is the substrate standing in for LLaMA-MoE / DeepSeek-MoE: token + position
embeddings, a stack of pre-norm transformer blocks whose feed-forward part is a
:class:`~repro.models.moe_layer.MoELayer`, a final norm and an LM head.

The model exposes the hooks Flux needs:

* per-layer routing records (activation frequency, per-expert sample sets,
  attention scores of routed tokens);
* expert get/set/freeze accessors for expert-only fine-tuning, merging and
  aggregation;
* ``forward_hidden`` returning final token embeddings, used to measure the
  output error introduced by expert merging (cosine distance, paper §5.1);
* a partial-forward API — :meth:`MoETransformer.embed` →
  :meth:`MoETransformer.run_blocks` over ``[start, stop)`` →
  :meth:`MoETransformer.logits`, with every block split into
  :meth:`MoETransformerBlock.attention_half` and
  :meth:`MoETransformerBlock.moe_half` — so a caller that changes only layer
  ``L`` (the forward-only gradient probe, paper §6.2) can keep everything
  below ``L`` and re-run the rest.  ``forward`` and ``forward_hidden`` are
  these same pieces run end to end: there is one forward path.

A position is computed only as far as something reads it.  Padding reaches
no expert in any block (see :mod:`repro.models.moe_layer`).  The forward
path's one ``read`` argument — flat indices into the ``batch * seq``
positions — names the positions the caller consumes; the last block then
runs its experts on those rows alone, and the final norm and the LM head see
only them.  :meth:`MoETransformer.compute_loss` reads the supervised
positions, and evaluation reads the answer positions.  Attention, norms and
routers still run on every position, since real rows read each other through
attention and the routing statistics count every real token.  An expert
reached only by rows nobody reads gets no gradient, so an optimizer does not
step it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..autograd import Dropout, Embedding, Linear, Module, ModuleList, RMSNorm, Tensor
from ..autograd import functional as F
from ..autograd import default_dtype, no_grad, place_rows, take_rows
from ..autograd.init import AllocationOnlyGenerator
from .attention import MultiHeadSelfAttention
from .config import MoEModelConfig
from .experts import ExpertFFN
from .gating import RoutingRecord
from .moe_layer import MoELayer


class MoETransformerBlock(Module):
    """Pre-norm transformer block: self-attention followed by an MoE FFN."""

    def __init__(self, config: MoEModelConfig, num_experts: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.attn_norm = RMSNorm(config.d_model, eps=config.rms_norm_eps)
        self.attn = MultiHeadSelfAttention(config.d_model, config.n_heads, rng=rng)
        self.moe_norm = RMSNorm(config.d_model, eps=config.rms_norm_eps)
        self.moe = MoELayer(
            d_model=config.d_model,
            d_ff=config.d_ff,
            num_experts=num_experts,
            top_k=config.top_k,
            num_shared_experts=config.num_shared_experts,
            activation=config.activation,
            gate_noise_std=config.gate_noise_std,
            rng=rng,
        )
        self.dropout = Dropout(config.dropout, rng=rng)

    def attention_half(self, x: Tensor,
                       attention_mask: Optional[np.ndarray] = None) -> Tensor:
        """Self-attention sub-layer plus its residual: the stream entering the MoE half."""
        attn_out = self.attn(self.attn_norm(x), attention_mask=attention_mask)
        return x + self.dropout(attn_out)

    def moe_half(self, x: Tensor, token_attention: Optional[np.ndarray] = None,
                 attention_mask: Optional[np.ndarray] = None,
                 sample_ids: Optional[np.ndarray] = None,
                 normed: Optional[Tensor] = None,
                 read: Optional[np.ndarray] = None) -> Tensor:
        """MoE sub-layer plus its residual, applied to the output of :meth:`attention_half`.

        ``token_attention`` is the attention half's bookkeeping signal (routing
        statistics only).  ``normed`` is ``self.moe_norm(x)`` when the caller
        already holds it.  Padding reaches no expert, and with ``read`` (flat
        row indices) neither does any row outside it: such a row leaves as
        its residual alone, for no reader.
        """
        moe_out = self.moe(
            self.moe_norm(x) if normed is None else normed,
            token_attention=token_attention,
            sample_ids=sample_ids,
            token_mask=attention_mask,
            read=read,
        )
        return x + self.dropout(moe_out)

    def forward(self, x: Tensor, attention_mask: Optional[np.ndarray] = None,
                sample_ids: Optional[np.ndarray] = None,
                read: Optional[np.ndarray] = None) -> Tensor:
        x = self.attention_half(x, attention_mask=attention_mask)
        return self.moe_half(x, token_attention=self.attn.last_token_attention,
                             attention_mask=attention_mask, sample_ids=sample_ids, read=read)


class MoETransformer(Module):
    """Decoder-only language model with MoE feed-forward layers."""

    def __init__(self, config: MoEModelConfig) -> None:
        super().__init__()
        self._build(config, np.random.default_rng(config.seed))

    @classmethod
    def allocate(cls, config: MoEModelConfig) -> "MoETransformer":
        """The module tree of ``cls(config)`` with parameters allocated but not drawn.

        For clones whose every parameter is overwritten right away
        (``load_state_dict`` of a same-config model): the values are
        uninitialised memory until then.  A model loaded this way computes
        bit-identically to one built with ``cls(config)`` and loaded the same
        way whenever ``config.dropout == 0`` and ``config.gate_noise_std ==
        0``; otherwise it differs in its noise stream only, because
        ``Dropout`` and the gate noise share the initialisation generator,
        which here has made no draws.
        """
        model = cls.__new__(cls)
        Module.__init__(model)
        model._build(config, AllocationOnlyGenerator(np.random.PCG64(config.seed)))
        return model

    @classmethod
    def copy_of(cls, model: "MoETransformer", dtype: Optional[str] = None) -> "MoETransformer":
        """A fresh ``cls(model.config)``-shaped model holding ``model``'s parameter values.

        The one way to copy a model: :meth:`allocate` (nothing is drawn; its
        caveat applies) and each parameter copied once, in ``parameters()``
        order, straight from ``model`` — no name-keyed state dict in between.
        ``model`` must have the module tree its config builds (not a compact
        model).  ``dtype`` (``"float32"`` / ``"float64"``) makes the copy a
        model of that precision, its values ``model``'s rounded to it; the
        default is ``model``'s own.
        """
        config = model.config if dtype is None else dataclasses.replace(model.config, dtype=dtype)
        clone = cls.allocate(config)
        for target, source in zip(clone.parameters(), model.parameters(), strict=True):
            target.data[...] = source.data
        return clone

    def _build(self, config: MoEModelConfig, rng: np.random.Generator) -> None:
        self.config = config
        #: the one generator every ``Dropout`` and gate-noise source of this
        #: model draws from (after the initialisers, when they drew at all)
        self.noise_rng = rng
        # Parameters are created under the config's dtype; random draws happen
        # in float64 before casting, so a float32 model is the rounded image of
        # the float64 model built from the same seed.
        with default_dtype(config.dtype):
            self.token_embedding = Embedding(config.vocab_size, config.d_model, rng=rng)
            self.position_embedding = Embedding(config.max_seq_len, config.d_model, rng=rng)
            self.blocks = ModuleList([
                MoETransformerBlock(config, num_experts, rng=rng)
                for num_experts in config.experts_per_layer()
            ])
            self.final_norm = RMSNorm(config.d_model, eps=config.rms_norm_eps)
            if config.tie_embeddings:
                self.lm_head = None
            else:
                self.lm_head = Linear(config.d_model, config.vocab_size, bias=False, rng=rng)

    # ---------------------------------------------------------------- forward
    def embed(self, input_ids: np.ndarray) -> Tensor:
        """Token + position embeddings ``(batch, seq, d_model)``: the input of block 0."""
        input_ids = np.asarray(input_ids, dtype=np.int64)
        if input_ids.ndim == 1:
            input_ids = input_ids[None, :]
        batch, seq_len = input_ids.shape
        if seq_len > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds max_seq_len {self.config.max_seq_len}"
            )
        positions = np.broadcast_to(np.arange(seq_len), (batch, seq_len))
        return self.token_embedding(input_ids) + self.position_embedding(positions)

    def run_blocks(self, x: Tensor, start: int = 0, stop: Optional[int] = None,
                   attention_mask: Optional[np.ndarray] = None,
                   sample_ids: Optional[np.ndarray] = None,
                   read: Optional[np.ndarray] = None) -> Tensor:
        """Push the residual stream ``x`` through blocks ``[start, stop)``.

        ``x`` is the output of :meth:`embed` (``start == 0``) or of block
        ``start - 1``; ``stop=None`` runs to the last block.  The batch axis of
        ``x`` is free: independent copies of a batch may be concatenated along
        it, with ``attention_mask`` tiled to match.

        ``read`` — flat indices into the ``batch * seq`` rows of the output —
        names the rows the caller consumes; the pass then returns only those,
        ``(len(read), d_model)``, and the last block it runs computes its
        experts on them alone.
        """
        blocks = self.blocks[start:stop]
        for index, block in enumerate(blocks):
            last = index == len(blocks) - 1
            x = block(x, attention_mask=attention_mask, sample_ids=sample_ids,
                      read=read if last else None)
        if read is None:
            return x
        return take_rows(x.reshape(-1, x.shape[-1]), read)

    def _project(self, hidden: Tensor) -> Tensor:
        if self.lm_head is not None:
            return self.lm_head(hidden)
        return F.linear(hidden, self.token_embedding.weight)

    def logits(self, x: Tensor) -> Tensor:
        """Final norm + LM head on the output of the last block (or on rows of it)."""
        return self._project(self.final_norm(x))

    def forward_hidden(self, input_ids: np.ndarray,
                       attention_mask: Optional[np.ndarray] = None,
                       sample_ids: Optional[np.ndarray] = None,
                       read: Optional[np.ndarray] = None) -> Tensor:
        """Return final-layer token embeddings ``(batch, seq, d_model)``.

        With ``read`` (flat row indices, as :meth:`run_blocks` takes them) only
        those rows: ``(len(read), d_model)``.
        """
        x = self.run_blocks(self.embed(input_ids), attention_mask=attention_mask,
                            sample_ids=sample_ids, read=read)
        return self.final_norm(x)

    def forward(self, input_ids: np.ndarray,
                attention_mask: Optional[np.ndarray] = None,
                sample_ids: Optional[np.ndarray] = None,
                read: Optional[np.ndarray] = None) -> Tensor:
        """Return next-token logits ``(batch, seq, vocab)``.

        With ``read`` (flat indices into the ``batch * seq`` positions) the
        final norm and the LM head run on those positions only and the result
        is their logits, ``(len(read), vocab)``.
        """
        return self._project(self.forward_hidden(
            input_ids, attention_mask=attention_mask, sample_ids=sample_ids, read=read))

    def compute_loss(self, input_ids: np.ndarray, labels: Optional[np.ndarray] = None,
                     attention_mask: Optional[np.ndarray] = None,
                     sample_ids: Optional[np.ndarray] = None,
                     ignore_index: int = -100) -> Tensor:
        """Causal language-modelling loss (labels default to shifted inputs).

        The mean cross-entropy over the supervised positions, which are the
        only rows the forward pass reads.  Their losses are placed back at
        full length before the sum, so the sum adds the same terms in the same
        order as a loss over every position.  A batch with no supervised
        position has a zero loss with nothing to differentiate.
        """
        input_ids = np.asarray(input_ids, dtype=np.int64)
        if input_ids.ndim == 1:
            input_ids = input_ids[None, :]
        if labels is None:
            labels = np.full_like(input_ids, ignore_index)
            labels[:, :-1] = input_ids[:, 1:]
            if attention_mask is not None:
                mask = np.asarray(attention_mask, dtype=bool)
                labels[:, :-1] = np.where(mask[:, 1:], labels[:, :-1], ignore_index)
        targets = np.asarray(labels, dtype=np.int64).reshape(-1)
        read = np.flatnonzero(targets != ignore_index)
        logits = self.forward(input_ids, attention_mask=attention_mask, sample_ids=sample_ids,
                              read=read)
        if not read.size:
            return Tensor(np.zeros((), dtype=logits.dtype))
        losses = F.cross_entropy(logits, targets[read], reduction="none")
        return place_rows(losses, read, targets.size).sum() * (1.0 / read.size)

    def greedy_generate(self, prompt_ids: np.ndarray, max_new_tokens: int = 16) -> np.ndarray:
        """Greedy decoding used by the ROUGE-based evaluation."""
        tokens = list(np.asarray(prompt_ids, dtype=np.int64).reshape(-1))
        with no_grad():
            for _ in range(max_new_tokens):
                context = np.asarray(tokens[-self.config.max_seq_len:], dtype=np.int64)[None, :]
                logits = self.forward(context)
                next_token = int(np.argmax(logits.data[0, -1]))
                tokens.append(next_token)
        return np.asarray(tokens, dtype=np.int64)

    # ---------------------------------------------------------- expert access
    @property
    def num_layers(self) -> int:
        return len(self.blocks)

    def moe_layers(self) -> List[MoELayer]:
        return [block.moe for block in self.blocks]

    def experts_per_layer(self) -> List[int]:
        """Original (routed-over) expert count per layer."""
        return [layer.num_original_experts for layer in self.moe_layers()]

    def local_experts_per_layer(self) -> List[int]:
        """Number of expert modules actually materialised per layer."""
        return [layer.num_local_experts for layer in self.moe_layers()]

    def get_expert(self, layer: int, expert: int) -> ExpertFFN:
        return self.blocks[layer].moe.experts[expert]

    def set_expert(self, layer: int, expert: int, module: ExpertFFN) -> None:
        self.blocks[layer].moe.experts[expert] = module

    def expert_state(self, layer: int, expert: int) -> Dict[str, np.ndarray]:
        """Copy of one expert's weights (transport format for FL updates)."""
        return self.get_expert(layer, expert).state()

    def load_expert_state(self, layer: int, expert: int, state: Dict[str, np.ndarray]) -> None:
        self.get_expert(layer, expert).load_state(state)

    def iter_expert_ids(self):
        """Yield every ``(layer, expert)`` pair of the original architecture."""
        for layer_index, count in enumerate(self.experts_per_layer()):
            for expert_index in range(count):
                yield layer_index, expert_index

    def freeze_non_expert_parameters(self) -> None:
        """Freeze everything except routed expert FFNs (expert-only fine-tuning)."""
        for param in self.parameters():
            param.requires_grad = False
        for layer in self.moe_layers():
            for expert in layer.experts:
                for param in expert.parameters():
                    param.requires_grad = True

    def set_expert_trainable(self, layer: int, expert: int, trainable: bool) -> None:
        for param in self.get_expert(layer, expert).parameters():
            param.requires_grad = trainable

    # -------------------------------------------------------- routing records
    def set_routing_accumulation(self, enabled: bool) -> None:
        for layer in self.moe_layers():
            layer.accumulate_routing = enabled
            if enabled:
                layer.reset_routing_accumulator()

    def routing_records(self, accumulated: bool = False) -> List[RoutingRecord]:
        """Per-layer routing records from the last pass (or accumulated)."""
        records = []
        for layer in self.moe_layers():
            record = layer.accumulated_routing() if accumulated else layer.last_routing
            if record is None:
                record = RoutingRecord.empty(layer.num_original_experts)
            records.append(record)
        return records

    def activation_frequencies(self, accumulated: bool = False) -> List[np.ndarray]:
        """Per-layer activation frequency vectors."""
        return [record.activation_frequency() for record in self.routing_records(accumulated)]

    # --------------------------------------------------------------- counting
    def num_expert_parameters(self) -> int:
        total = 0
        for layer in self.moe_layers():
            for expert in layer.experts:
                total += expert.num_parameters()
        return total

    def parameter_breakdown(self) -> Dict[str, int]:
        """Parameter counts split into expert and non-expert components."""
        expert_params = self.num_expert_parameters()
        total = self.num_parameters()
        return {
            "total": total,
            "experts": expert_params,
            "non_expert": total - expert_params,
        }
