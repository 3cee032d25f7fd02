"""The sparsely-activated MoE feed-forward layer.

Each token is routed by a :class:`~repro.models.gating.GatingNetwork` to its
top-k experts; the layer dispatches tokens to the selected experts, combines
their outputs with the (differentiable) gate weights, and records routing
statistics used by Flux's profiling and merging modules.

The layer also supports *compact* operation: the list of local experts may be
shorter than the number of original experts the gate routes over, with an
:class:`~repro.models.rerouting.ExpertRemap` translating original ids to local
slots (tuning experts preserved 1:1, non-tuning experts collapsed onto merged
experts).

Live rows
---------
A row reaches an expert only if something reads its output.  Padding
(``token_mask`` False) is read by nothing: the gate still scores it, but its
assignments are dropped before dispatch, so it reaches no routed or shared
expert and its output row is exactly 0.  A caller that reads only some rows
says so with ``read`` (the transformer's last block, on the rows its loss or
evaluation reads); experts then run on the real rows among those alone.
Routing statistics are unaffected: they count every real token, read or not.
The gradient-presence rule follows: an expert whose only rows were dropped
gets no gradient at all (not a zero one), so an optimizer takes no step on
it, and which experts step does not depend on what sits in the padding.
The kernel below and its fallback obey both rules.

Kernel
------
The experts run in one *segment-grouped* GEMM node,
:meth:`MoELayer._combine_batched`; no option selects it.  Token-slot
assignments are stably argsorted by expert slot and the routed rows gathered
**once** into one contiguous ``(A, d_model)`` buffer in slot order
(``A = live tokens * top_k``, whatever the routing), so every expert that
received tokens owns a contiguous row range of it.  Each such expert's
three SwiGLU GEMMs run on its own rows with ``np.matmul(..., out=...)`` into
slices of shared ``(A, d_ff)`` buffers, reading its weight matrices where they
live.  What is **never** built: a workspace padded to the busiest expert's
token count (routing is skewed — that is the paper's premise — so padding
would multiply the rows), stacked or concatenated copies of the weights, or a
second gather in the backward pass.  The activation and the top-k combine run
once over all assignments; the hand-written backward walks the same segments,
keeps its temporaries in persistent per-layer scratch, and hands every expert
its weight gradient as a fresh array the parameter adopts.  The autograd graph
has O(1) nodes per layer instead of O(num_experts).

The fallback is :meth:`MoELayer._combine_loop`, the per-expert Python loop
(one gather, FFN call and ``scatter_rows`` per expert), which calls each
expert module as it is.  A layer runs it when some local expert is not a
plain :class:`~repro.models.experts.ExpertFFN` — a
:class:`~repro.models.lora.LoRAExpert`, the paper's adapter integration.  The
loop is also the kernel's test oracle: a segment's GEMMs have exactly the
loop's shapes and operand layouts, so the fused node reproduces its outputs,
gate-weight gradients and expert gradients bit for bit, in float64 and
float32, at ``top_k`` <= 2 (every preset's); at a larger ``top_k`` a token's
expert outputs are summed in another grouping and agree to a few ULP.  Every
expert of a layer has the layer's ``(d_model, d_ff)`` and dtype, checked
where experts enter (:meth:`MoELayer.set_compact_experts`), and SiLU, the one
nonlinearity of :class:`~repro.models.experts.ExpertFFN`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import (
    Module,
    ModuleList,
    Tensor,
    default_dtype,
    is_grad_enabled,
    place_rows,
    scatter_rows,
    take_rows,
)
from .experts import ExpertFFN, stack_expert_weights
from .gating import GatingNetwork, GroupedRouting, RoutingRecord
from .rerouting import ExpertRemap


def _live_rows(num_tokens: int, token_mask: Optional[np.ndarray],
               read: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Sorted indices of the tokens an expert must see, or None for all of them.

    A token is live when it is real (``token_mask``) and, if the caller
    names the rows it reads (``read``), one of them.
    """
    live = None if token_mask is None else np.asarray(token_mask, dtype=bool).reshape(num_tokens)
    if read is not None:
        wanted = np.zeros(num_tokens, dtype=bool)
        wanted[read] = True
        live = wanted if live is None else live & wanted
    return None if live is None or live.all() else np.flatnonzero(live)


class MoELayer(Module):
    """Mixture-of-Experts feed-forward layer with top-k routing."""

    def __init__(
        self,
        d_model: int,
        d_ff: int,
        num_experts: int,
        top_k: int,
        num_shared_experts: int = 0,
        gate_noise_std: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.d_model = d_model
        self.d_ff = d_ff
        self.num_original_experts = num_experts
        self.top_k = top_k
        self.gate = GatingNetwork(d_model, num_experts, top_k, noise_std=gate_noise_std, rng=rng)
        self.experts = ModuleList([
            ExpertFFN(d_model, d_ff, rng=rng) for _ in range(num_experts)
        ])
        self.shared_experts = ModuleList([
            ExpertFFN(d_model, d_ff, rng=rng) for _ in range(num_shared_experts)
        ])
        self.remap = ExpertRemap.identity(num_experts)
        #: resident modules :meth:`mount_compact` runs in place of experts it
        #: does not keep; outside the parameter tree until mounted
        self._spare_experts: List[ExpertFFN] = []
        #: the full expert list while :meth:`mount_compact` has replaced it
        self._full_experts: Optional[Tuple[ExpertFFN, ...]] = None
        #: routing statistics of the most recent forward pass
        self.last_routing: Optional[RoutingRecord] = None
        #: when set, routing statistics accumulate here per group of batch
        #: rows instead (a pass then leaves no ``last_routing``)
        self.routing_groups: Optional[GroupedRouting] = None
        # Persistent backward-pass scratch buffers of the fused batched
        # dispatch (backward-internal temporaries only — never tensors a
        # graph node retains), reused across steps to avoid re-faulting
        # freshly-mmapped pages every iteration.  ``MoETransformer`` hands
        # all its layers one dict.
        self._bwd_scratch: Dict[str, np.ndarray] = {}

    # ---------------------------------------------------------------- config
    @property
    def num_local_experts(self) -> int:
        """Number of expert modules actually held by this layer."""
        return len(self.experts)

    def set_compact_experts(self, experts: Sequence[ExpertFFN], remap: ExpertRemap) -> None:
        """Replace the local expert list with a compact set plus a remap.

        Used by Flux clients (tuning experts + merged non-tuning experts) and
        by the FMES baseline (selected experts only, others re-routed).  Every
        expert must have the layer's ``(d_model, d_ff)`` and dtype.
        """
        if remap.num_original != self.num_original_experts:
            raise ValueError("remap must cover the original expert count")
        self.check_experts(experts)
        max_slot = int(remap.table.max())
        if max_slot >= len(experts):
            raise ValueError(
                f"remap references slot {max_slot} but only {len(experts)} experts provided"
            )
        self.experts = ModuleList(list(experts))
        self.remap = remap

    def check_experts(self, experts: Sequence[ExpertFFN]) -> None:
        """Refuse an expert of another ``(d_model, d_ff)`` or dtype than the layer's.

        A model never mixes dtypes: an expert drawn outside the model's
        ``default_dtype`` would silently run (and train) at another precision.
        """
        dtype = self.gate.proj.weight.data.dtype
        for expert in experts:
            if (expert.d_model, expert.d_ff) != (self.d_model, self.d_ff):
                raise ValueError(f"every expert must have the layer's (d_model, d_ff) = "
                                 f"({self.d_model}, {self.d_ff})")
            if expert.w_gate.weight.data.dtype != dtype:
                raise ValueError(f"expert dtype {expert.w_gate.weight.data.dtype} is not "
                                 f"the layer's {dtype}")

    def spare_expert(self, index: int) -> ExpertFFN:
        """The layer's ``index``-th resident spare expert, allocated on first use.

        A spare holds what a compact layer runs in place of experts it does
        not keep (a merged expert, a zero skip expert).  Its values are
        whatever its last user wrote: fill it, then :meth:`mount_compact`.
        """
        while len(self._spare_experts) <= index:
            with default_dtype(self.gate.proj.weight.data.dtype):
                self._spare_experts.append(ExpertFFN.allocate(self.d_model, self.d_ff))
        return self._spare_experts[index]

    def mount_compact(self, kept: Sequence[int], absorbed: Sequence[Sequence[int]]) -> None:
        """Go compact in place, on modules this layer already holds.

        Slot ``s < len(kept)`` is the layer's own expert ``kept[s]`` (an
        original id); slot ``len(kept) + i`` is ``spare_expert(i)``, frozen,
        standing in for the original ids ``absorbed[i]`` — the caller has
        written its values.  Between them they must cover every original id.
        Nothing is allocated or copied, so a model that is handed from one
        participant to the next (the server's training replica) builds each
        compact model in its own storage; :meth:`restore_full_experts` undoes
        the mount.
        """
        self.restore_full_experts()          # a second mount starts from the full list too
        full = self._full_experts = tuple(self.experts)
        mapping = {int(original): slot for slot, original in enumerate(kept)}
        local = [full[int(original)] for original in kept]
        for index, members in enumerate(absorbed):
            spare = self.spare_expert(index)
            spare.freeze()
            mapping.update((int(member), len(local)) for member in members)
            local.append(spare)
        if len(mapping) != self.num_original_experts:
            raise ValueError("kept and absorbed experts must cover every original expert id")
        self.set_compact_experts(local, ExpertRemap(self.num_original_experts, mapping))

    def restore_full_experts(self) -> None:
        """Undo :meth:`mount_compact`: the full expert list and the identity remap."""
        if self._full_experts is not None:
            self.experts = ModuleList(list(self._full_experts))
            self.remap = ExpertRemap.identity(self.num_original_experts)
            self._full_experts = None

    def drop_pass_state(self) -> None:
        """Forget what forward/backward passes left here: routing records
        (grouping off) and the activation-sized backward workspaces."""
        self.last_routing = None
        self.routing_groups = None
        self._bwd_scratch.clear()

    # --------------------------------------------------------------- forward
    def forward(
        self,
        x: Tensor,
        token_attention: Optional[np.ndarray] = None,
        sample_ids: Optional[np.ndarray] = None,
        token_mask: Optional[np.ndarray] = None,
        read: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Route and transform a batch of token representations.

        Parameters
        ----------
        x:
            ``(batch, seq, d_model)`` hidden states.
        token_attention:
            Optional ``(batch, seq)`` attention-received scores from the
            attention sub-layer (profiling signal for merging).
        sample_ids:
            Optional ``(batch,)`` integer sample identifiers; used to record
            which samples touch which expert (the paper's :math:`D^e_i`).
        token_mask:
            Optional ``(batch, seq)`` boolean mask of real tokens.  Padding is
            routed but reaches no expert, routed or shared: its output row is
            exactly 0, and it is left out of the routing statistics.
        read:
            Optional flat indices into the ``batch * seq`` rows whose output
            the caller reads.  Experts then run on the real rows among them
            only, and every other row's output is exactly 0.  The routing
            statistics still count every real token.
        """
        batch, seq_len, d_model = x.shape
        num_tokens = batch * seq_len
        flat = x.reshape(num_tokens, d_model)

        top_idx, top_weights = self._route(flat, seq_len, token_attention, sample_ids, token_mask)
        if self.remap.is_identity():
            local_idx = top_idx
        else:
            local_idx = self.remap.apply(top_idx)

        rows = _live_rows(num_tokens, token_mask, read)
        combine = self._combine_batched if self._can_batch() else self._combine_loop
        out = combine(flat, local_idx, top_weights, num_tokens, d_model, rows=rows)
        if self.shared_experts and (rows is None or rows.size):
            shared_in = flat if rows is None else take_rows(flat, rows)
            for shared in self.shared_experts:
                shared_out = shared(shared_in)
                out = out + (shared_out if rows is None
                             else place_rows(shared_out, rows, num_tokens))
        return out.reshape(batch, seq_len, d_model)

    def route(
        self,
        x: Tensor,
        token_attention: Optional[np.ndarray] = None,
        sample_ids: Optional[np.ndarray] = None,
        token_mask: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Tensor]:
        """The routing half of :meth:`forward`: gate ``x`` and record the statistics.

        Takes :meth:`forward`'s arguments, runs no expert, and returns
        ``(top_idx, top_weights)`` — original expert ids ``(tokens, top_k)``
        and their normalised gate weights.  ``last_routing`` (or
        :attr:`routing_groups`) is updated exactly as by a full forward, which
        is all activation profiling needs of a model's last layer.
        """
        batch, seq_len, d_model = x.shape
        return self._route(x.reshape(batch * seq_len, d_model), seq_len,
                           token_attention, sample_ids, token_mask)

    def _route(self, flat: Tensor, seq_len: int, token_attention: Optional[np.ndarray],
               sample_ids: Optional[np.ndarray],
               token_mask: Optional[np.ndarray]) -> Tuple[np.ndarray, Tensor]:
        top_idx, top_weights, _ = self.gate(flat, with_probs=False)
        self._record_routing(top_idx, top_weights, flat.shape[0], seq_len,
                             token_attention, sample_ids, token_mask)
        return top_idx, top_weights

    # ------------------------------------------------------ expert execution
    def _can_batch(self) -> bool:
        """Whether every local expert is a plain :class:`ExpertFFN` (a LoRA-wrapped one is not)."""
        return all(type(expert) is ExpertFFN for expert in self.experts)

    def _combine_loop(self, flat: Tensor, local_idx: np.ndarray, top_weights: Tensor,
                      num_tokens: int, d_model: int,
                      rows: Optional[np.ndarray] = None) -> Tensor:
        """The per-expert loop: one gather/FFN/scatter per active expert.

        Runs experts :meth:`_combine_batched` cannot (any module that is not a
        plain :class:`ExpertFFN`), and is that kernel's test oracle: the same
        signature and, on plain experts, the same results bit for bit (at
        ``top_k`` <= 2; see the module docstring).
        ``rows`` (sorted token indices, ``None`` for all) are the live tokens;
        the others' assignments are dropped, so their output rows are 0.
        """
        combined = Tensor(np.zeros((num_tokens, d_model), dtype=flat.data.dtype))
        if rows is not None:
            dropped = np.ones(num_tokens, dtype=bool)
            dropped[rows] = False
            local_idx = np.where(dropped[:, None], -1, local_idx)    # -1: no slot
        for slot in np.unique(local_idx):
            if slot < 0:
                continue
            slot_mask = local_idx == slot  # (num_tokens, top_k)
            token_rows, k_positions = np.nonzero(slot_mask)
            if token_rows.size == 0:
                continue
            expert = self.experts[int(slot)]
            expert_in = flat[token_rows]
            expert_out = expert(expert_in)
            weights = top_weights[token_rows, k_positions].reshape(-1, 1)
            weighted = expert_out * weights
            combined = combined + scatter_rows(weighted, token_rows, num_tokens)
        return combined

    def _combine_batched(self, flat: Tensor, local_idx: np.ndarray, top_weights: Tensor,
                         num_tokens: int, d_model: int,
                         rows: Optional[np.ndarray] = None) -> Tensor:
        """Segment-grouped kernel: one gather, then GEMMs on each expert's own rows.

        Assignments are stably argsorted by expert slot and the routed rows
        gathered once into a contiguous ``(A, d_model)`` buffer in slot order
        (``A = live tokens * top_k`` whatever the routing), so expert ``j``
        owns the row range ``[bounds[j], bounds[j + 1])`` and its three GEMMs
        run on exactly those rows, reading its weight matrices in place and
        writing into slices of shared buffers.  Nothing is padded to the
        busiest expert and no weight is stacked; every GEMM has the loop
        path's shapes and operand layouts, which is what keeps the two
        bit-identical.  Only experts that received tokens are visited, so
        gradients reach exactly the parameters the loop path reaches; the
        activations and the top-k combine run once over all assignments, and
        the layer is one autograd node.

        ``rows`` (sorted token indices, ``None`` for all) are the live tokens:
        the assignments of every other token are dropped before the sort, so
        its output row, its gate-weight gradient and its input gradient are
        exactly 0, and an expert it alone was routed to gets no gradient.
        """
        top_k = local_idx.shape[1]
        weights = top_weights.data
        if rows is not None:
            local_idx, weights = local_idx[rows], weights[rows]
        num_live = local_idx.shape[0]
        num_assign = local_idx.size
        dtype = flat.data.dtype
        if num_assign == 0:
            return Tensor(np.zeros((num_tokens, d_model), dtype=dtype))

        def at_rows(live: np.ndarray) -> np.ndarray:
            """A per-live-token array at full ``num_tokens`` height (0 elsewhere)."""
            if rows is None:
                return live
            full = np.zeros((num_tokens,) + live.shape[1:], dtype=live.dtype)
            full[rows] = live
            return full

        slots = local_idx.reshape(-1)                      # (A,) assignment → slot
        # Stable integer argsort uses radix internally; a uint8 key makes it a
        # single-pass radix instead of eight passes over int64.
        sort_key = slots.astype(np.uint8) if len(self.experts) <= 256 else slots
        order = np.argsort(sort_key, kind="stable")        # slot-major, token-minor
        sorted_slots = slots[order]
        # Segment boundaries from the already-sorted slots (no second sort).
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(sorted_slots)) + 1, [num_assign]))
        experts = [self.experts[int(slot)] for slot in sorted_slots[bounds[:-1]]]
        segments = range(len(experts))
        d_ff = experts[0].d_ff
        gate_params = [e.w_gate.weight for e in experts]
        up_params = [e.w_up.weight for e in experts]
        down_params = [e.w_down.weight for e in experts]
        w_gate, w_up, w_down = ([p.data for p in params]
                                for params in (gate_params, up_params, down_params))
        edges = bounds.tolist()

        def by_rows(buffer: np.ndarray) -> list:
            """Expert ``j``'s row range of an ``(A, ...)`` buffer."""
            return [buffer[edges[j]:edges[j + 1]] for j in segments]

        # ---- forward: gather → per-segment gate/up GEMMs → activation →
        # per-segment down GEMM → un-permute → combine over top-k
        token_of = order // top_k                          # token of each sorted assignment
        if rows is not None:
            token_of = rows[token_of]
        x = flat.data[token_of]                            # (A, d) routed rows, slot order
        x_segs = by_rows(x)
        gate_pre = np.empty((num_assign, d_ff), dtype=dtype)
        up = np.empty((num_assign, d_ff), dtype=dtype)
        for j, x_seg, gate_seg, up_seg in zip(segments, x_segs, by_rows(gate_pre), by_rows(up)):
            np.matmul(x_seg, w_gate[j].T, out=gate_seg)
            np.matmul(x_seg, w_up[j].T, out=up_seg)
        # sig = 1 / (1 + exp(-gate_pre)), computed in one buffer
        sig = np.negative(gate_pre)
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
        act = gate_pre * sig
        hidden = act * up
        hidden_segs = by_rows(hidden)
        y_sorted = np.empty((num_assign, d_model), dtype=dtype)
        for j, hidden_seg, y_seg in zip(segments, hidden_segs, by_rows(y_sorted)):
            np.matmul(hidden_seg, w_down[j].T, out=y_seg)
        y = np.empty_like(y_sorted)
        y[order] = y_sorted                                # a permutation: plain assignment
        # single-pass weighted combine over the top-k axis
        out_data = at_rows(np.einsum("tkd,tk->td", y.reshape(num_live, top_k, d_model), weights))

        parents = (flat, top_weights) + tuple(gate_params + up_params + down_params)
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(out_data, requires_grad=requires, _prev=parents if requires else ())
        if not requires:
            return out
        w_sorted = weights.reshape(num_assign, 1)[order]

        # ---- backward: mirrors the op-by-op chain segment by segment (same
        # evaluation order as the composed graph, so loop/batched stay
        # bit-identical).  Large temporaries live in persistent per-layer
        # scratch; each weight gradient is a fresh array its parameter adopts.
        def _backward() -> None:
            g_y = self._scratch("g_y", (num_assign, d_model), dtype)
            np.take(out.grad, token_of, axis=0, out=g_y)
            if top_weights.requires_grad:
                g_weights = np.empty(num_assign, dtype=dtype)
                g_weights[order] = (g_y * y_sorted).sum(axis=1)
                top_weights._accumulate(at_rows(g_weights.reshape(num_live, top_k)), owned=True)
            np.multiply(g_y, w_sorted, out=g_y)
            # whether anything upstream of the down projection wants a gradient
            inner = flat.requires_grad or any(p.requires_grad for p in gate_params + up_params)
            ffn_shape = (num_assign, d_ff)
            g_hidden = self._scratch("g_hidden", ffn_shape, dtype)
            for j, g_seg, g_hidden_seg in zip(segments, by_rows(g_y), by_rows(g_hidden)):
                if inner:
                    np.matmul(g_seg, w_down[j], out=g_hidden_seg)
                if down_params[j].requires_grad:
                    down_params[j]._accumulate(np.matmul(hidden_segs[j].T, g_seg).T, owned=True)
            if not inner:
                return
            g_gate = self._scratch("g_gate", ffn_shape, dtype)
            g_up = self._scratch("g_up", ffn_shape, dtype)
            np.multiply(g_hidden, up, out=g_gate)
            np.multiply(g_hidden, act, out=g_up)
            # d_act = sig * (1 + gate_pre * (1 - sig))
            d_act = self._scratch("d_act", ffn_shape, dtype)
            np.subtract(1.0, sig, out=d_act)
            np.multiply(gate_pre, d_act, out=d_act)
            d_act += 1.0
            np.multiply(sig, d_act, out=d_act)
            np.multiply(g_gate, d_act, out=g_gate)
            g_x = self._scratch("g_x", (num_assign, d_model), dtype)
            g_x_up = self._scratch("g_x_up", (num_assign, d_model), dtype)
            for j, g_gate_seg, g_up_seg, g_x_seg, g_x_up_seg in zip(
                    segments, by_rows(g_gate), by_rows(g_up), by_rows(g_x), by_rows(g_x_up)):
                if gate_params[j].requires_grad:
                    gate_params[j]._accumulate(np.matmul(x_segs[j].T, g_gate_seg).T, owned=True)
                if up_params[j].requires_grad:
                    up_params[j]._accumulate(np.matmul(x_segs[j].T, g_up_seg).T, owned=True)
                if flat.requires_grad:
                    # Two GEMMs (not one over a concatenated 2f axis): separate
                    # dot products + add keep the loop path's summation grouping.
                    np.matmul(g_gate_seg, w_gate[j], out=g_x_seg)
                    np.matmul(g_up_seg, w_up[j], out=g_x_up_seg)
            if flat.requires_grad:
                g_x += g_x_up
                g_y[order] = g_x       # back to assignment order (g_y is free by now)
                flat._accumulate(
                    at_rows(g_y.reshape(num_live, top_k, d_model).sum(axis=1)), owned=True)

        out._backward = _backward
        return out

    def _scratch(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Persistent backward scratch: the leading rows of a grow-only buffer.

        Reallocated only when it has fewer rows than ``shape`` asks for (or
        another row shape or dtype), and then allocated zeroed: consumers
        that skip re-zeroing rely on stale contents being finite (never
        NaN/Inf heap garbage).
        """
        buf = self._bwd_scratch.get(name)
        if (buf is None or buf.shape[0] < shape[0] or buf.shape[1:] != shape[1:]
                or buf.dtype != dtype):
            buf = np.zeros(shape, dtype=dtype)
            self._bwd_scratch[name] = buf
        return buf[:shape[0]]

    # ------------------------------------------------------ routing statistics
    def _record_routing(self, top_idx: np.ndarray, top_weights: Tensor,
                        num_tokens: int, seq_len: int,
                        token_attention: Optional[np.ndarray],
                        sample_ids: Optional[np.ndarray],
                        token_mask: Optional[np.ndarray]) -> None:
        """Vectorised routing bookkeeping (kept in original-expert coordinates).

        Every statistic is one ``bincount`` over ``(group, expert)`` keys.
        Under :attr:`routing_groups` the groups are its ``rows`` and the
        statistics accumulate there; otherwise the pass is one group and its
        record is ``last_routing``.
        """
        grouped = self.routing_groups
        num_experts = self.num_original_experts
        stats = GroupedRouting(1, num_experts) if grouped is None else grouped
        row_groups = None if grouped is None else grouped.rows
        batch = num_tokens // seq_len
        if token_mask is None:
            flat_mask = None
            valid_idx = top_idx                            # (T, top_k)
            valid_weights = top_weights.data
        else:
            flat_mask = np.asarray(token_mask, dtype=bool).reshape(num_tokens)
            valid_idx = top_idx[flat_mask]                 # (V, top_k)
            valid_weights = top_weights.data[flat_mask]
        rows = None                                        # the batch row of each valid token
        if row_groups is not None or sample_ids is not None:
            rows = np.repeat(np.arange(batch), seq_len)
            if flat_mask is not None:
                rows = rows[flat_mask]
        if row_groups is None:
            stats.total_tokens[0] += len(valid_idx)
        else:
            token_groups = row_groups[rows]
            stats.total_tokens += np.bincount(token_groups, minlength=stats.num_groups)

        if valid_idx.size:
            size = stats.num_groups * num_experts
            shape = stats.token_counts.shape
            keys = valid_idx.reshape(-1)
            if row_groups is not None:
                keys = keys + np.repeat(token_groups * num_experts, self.top_k)
            stats.token_counts += np.bincount(keys, minlength=size).reshape(shape)
            if token_attention is not None:
                flat_attention = np.asarray(token_attention, dtype=np.float64).reshape(num_tokens)
                if flat_mask is not None:
                    flat_attention = flat_attention[flat_mask]
                stats.attention_sums += np.bincount(
                    keys, weights=np.repeat(flat_attention, self.top_k),
                    minlength=size).reshape(shape)
            stats.gate_weight_sums += np.bincount(
                keys,
                weights=valid_weights.reshape(-1).astype(np.float64, copy=False),
                minlength=size,
            ).reshape(shape)
            if sample_ids is not None:
                # Deduplicate (key, batch row) pairs rather than (key, sample
                # id) pairs: the key space is keys x batch whatever the ids
                # are — small enough for a bincount presence scan — and the
                # present pairs come out sorted, so each key's rows are one
                # slice of them: one ``set.update`` per key that has any.
                ids = np.asarray(sample_ids, dtype=np.int64)
                pairs = keys * batch
                pairs += np.repeat(rows, self.top_k)
                present = np.flatnonzero(np.bincount(pairs, minlength=batch * size))
                bounds = np.searchsorted(present, np.arange(size + 1) * batch).tolist()
                samples = ids[present % batch].tolist()
                for key, (first, last) in enumerate(zip(bounds, bounds[1:])):
                    if first < last:
                        stats.sample_ids[key].update(samples[first:last])
        if grouped is not None:
            self.last_routing = None
            return
        self.last_routing = stats.record(0)

    # ------------------------------------------------------------- inspection
    def stacked_expert_weights(self) -> Dict[str, np.ndarray]:
        """Stack every local expert's matrices into ``(num_experts, ...)`` arrays.

        This is the raw-data (no-gradient) counterpart of the batched dispatch
        tensors, consumed by clustering / merging / quantization code that
        previously re-stacked flattened weight vectors expert by expert.
        """
        return stack_expert_weights(list(self.experts))

    def expert_weight_matrix(self) -> np.ndarray:
        """Stack every local expert's flattened weights into a 2-D matrix.

        Rows keep the :meth:`ExpertFFN.weight_vector` layout
        ``[w_gate, w_up, w_down]`` but are built from the stacked weight
        arrays in three reshapes instead of per-expert flatten+concatenate.
        """
        if not all(type(expert) is ExpertFFN for expert in self.experts):
            return np.stack([expert.weight_vector() for expert in self.experts])
        stacked = self.stacked_expert_weights()
        count = len(self.experts)
        return np.concatenate(
            [stacked[key].reshape(count, -1) for key in ("w_gate", "w_up", "w_down")], axis=1
        )
