"""Reference implementations of the fold, kept verbatim.

**Buffered FedAvg.**  What ``ParameterServer.aggregate`` ran by default before
the streaming fold became the only fold: group a round's updates by expert key
(:func:`group_updates`), average each group with a sequential weighted fold
(:func:`fedavg_states`, built on :func:`fold_weighted_state`, the per-key
running-sum fold ``repro.comm.aggregator`` had before its sum matrices) and
load the result (:func:`apply_fedavg`).  They exist only here: ``test_fold_oracle.py`` holds
:class:`repro.comm.StreamingAggregator` — serial, sharded and as the service's
fold jobs — to them bit for bit.  The one behaviour the streaming fold does
not share is :func:`fedavg_states`'s uniform mean over a key whose weights
are all zero; there the streaming fold raises.

**The frame-at-a-time fold job.**  What ``repro.service.fold`` ran before a
sender's frames decoded and folded as one group: every frame walked and
decoded on its own (:func:`oracle_decode_update_parts`, with the per-tensor
top-k decoders :func:`oracle_topk_decode_array` /
:func:`oracle_topk_quant_decode_array`), folded into one accumulator per
expert key through the strategy's own accumulator
(:class:`OracleAggregator`; the FedAvg family's is :class:`_FoldAccumulator`,
which ``repro.federated.strategies`` had until the aggregator's own sums made
it a second FedAvg), in arrival order
(:func:`oracle_fold_frames`).  ``test_fold_batch.py`` holds
:meth:`StreamingAggregator.fold_frames
<repro.comm.StreamingAggregator.fold_frames>` and the fold jobs built on it to
:func:`oracle_prefold_node_frames` / :func:`oracle_fold_shard_frames` byte for
byte.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm import (
    decode_state_dict,
    encode_state_dict,
    encode_updates,
    get_codec,
    verify_frame,
)
from repro.comm.aggregator import finalize_weighted_sum
from repro.comm.codecs import (
    PayloadCorruptedError,
    TopKDeltaCodec,
    TopKQuantCodec,
    _check_reference,
    _deliver,
    _index_dtype_for,
)
from repro.comm.serialization import (
    _DTYPES,
    _SHAPE_STRUCTS,
    _U16,
    _U32,
    _UPDATE_HEADER,
    KIND_UPDATE,
    _dtype_for,
    _parse_header,
    _shape_struct,
)
from repro.federated.aggregation import ExpertKey, ExpertUpdate
from repro.federated.strategies import UpdateAccumulator, get_strategy
from repro.models import MoETransformer
from repro.quantization import unpack_int_codes


def fold_weighted_state(acc: Dict[str, np.ndarray], state: Dict[str, np.ndarray],
                        weight: float, scratch=None) -> None:
    """Fold ``weight * state`` into ``acc`` in place (float64 accumulators).

    With a ``scratch`` pool the ``weight * value`` term is computed into the
    pool's persistent per-shape term buffer instead of a fresh allocation —
    same multiply loop (``dtype=float64`` forced either way), same add, so
    the running sums are bit-identical to the allocating fold.
    """
    weight = float(weight)
    if weight < 0:
        raise ValueError("aggregation weights must be non-negative")
    # keys() views compare set-wise in C — no per-fold set construction
    if acc and state.keys() != acc.keys():
        raise ValueError("cannot fold states with mismatched tensor names")
    term_of = scratch.term if scratch is not None else None
    for name, value in state.items():
        running = acc.get(name)
        if running is None:
            # the accumulator owns this array, so it cannot come from scratch
            acc[name] = np.multiply(value, weight, dtype=np.float64)
        elif term_of is None:
            running += np.multiply(value, weight, dtype=np.float64)
        else:
            shape = getattr(value, "shape", None)
            if shape is None:
                value = np.asarray(value)
                shape = value.shape
            term = term_of(shape)
            np.multiply(value, weight, out=term, dtype=np.float64,
                        casting="unsafe")
            np.add(running, term, out=running)


class _FoldAccumulator(UpdateAccumulator):
    """Weighted running sum — the exact streaming-FedAvg arithmetic."""

    def __init__(self, discount=None) -> None:
        super().__init__()
        self._acc: Dict[str, np.ndarray] = {}
        self._discount = discount

    @property
    def finalizable(self) -> bool:
        # A weighted mean needs positive total weight; the individual states
        # are gone, so all-zero weights cannot fall back to a uniform mean.
        return self.total_weight > 0

    def add(self, state, weight: float, staleness: int = 0) -> None:
        if self._discount is not None:
            weight = weight * self._discount(staleness)
        fold_weighted_state(self._acc, state, weight)
        self.total_weight += float(weight)
        self.count += 1

    def finalize(self) -> Dict[str, np.ndarray]:
        return finalize_weighted_sum(self._acc, self.total_weight)


def fedavg_states(states: Sequence[Dict[str, np.ndarray]],
                  weights: Sequence[float],
                  scratch=None) -> Dict[str, np.ndarray]:
    """Weighted average of several identically shaped state dicts.

    Implemented as a sequential weighted fold over the states
    (:func:`fold_weighted_state`: the arithmetic of the streaming server
    path), so buffered and streaming aggregation are bit-identical.
    ``scratch`` (a :class:`~repro.comm.scratch.ScratchPool`) reuses the
    pool's term buffers for the per-state multiplies — same arithmetic,
    no per-fold allocation.
    """
    if not states:
        raise ValueError("cannot average an empty list of states")
    if len(states) != len(weights):
        raise ValueError("one weight per state is required")
    if any(w < 0 for w in weights):
        raise ValueError("aggregation weights must be non-negative")
    total = 0.0
    for weight in weights:
        total += float(weight)
    if total <= 0:
        # All-zero weights degrade to an unweighted mean (legacy behaviour).
        weights = [1.0] * len(states)
        total = float(len(states))
    acc: Dict[str, np.ndarray] = {}
    for state, weight in zip(states, weights):
        fold_weighted_state(acc, state, weight, scratch=scratch)
    return finalize_weighted_sum(acc, total)


def group_updates(updates: Iterable[ExpertUpdate]) -> Dict[ExpertKey, List[ExpertUpdate]]:
    """Group expert updates by (layer, expert)."""
    grouped: Dict[ExpertKey, List[ExpertUpdate]] = {}
    for update in updates:
        grouped.setdefault(update.key, []).append(update)
    return grouped


def apply_fedavg(model: MoETransformer, updates: Iterable[ExpertUpdate],
                 scratch=None) -> Dict[ExpertKey, int]:
    """FedAvg every expert that received updates and load it into ``model``.

    Returns a mapping from expert key to the number of participants that
    contributed to it (used for logging and cost accounting).  ``scratch``
    threads a :class:`~repro.comm.scratch.ScratchPool` through the per-key
    folds.
    """
    grouped = group_updates(updates)
    contributions: Dict[ExpertKey, int] = {}
    for (layer, expert), expert_updates in grouped.items():
        averaged = fedavg_states([u.state for u in expert_updates],
                                 [u.weight for u in expert_updates],
                                 scratch=scratch)
        model.load_expert_state(layer, expert, averaged)
        contributions[(layer, expert)] = len(expert_updates)
    return contributions


# ------------------------------------------------ the frame-at-a-time fold job
def _delta_workspace(reference: np.ndarray) -> np.ndarray:
    """A flat float64 copy of ``reference`` for delta codecs to scatter into."""
    return np.asarray(reference, dtype=np.float64).reshape(-1).copy()


def _decode_sparse_indices(section: bytes, count: int, size: int) -> np.ndarray:
    """Read ``count`` sparse indices, accepting both u2 and u4 widths."""
    if count == 0:
        if section:
            raise PayloadCorruptedError("sparse index section should be empty")
        return np.empty(0, dtype=np.int64)
    for dtype in (_index_dtype_for(size), np.dtype("<u4"), np.dtype("<u2")):
        if len(section) == count * dtype.itemsize:
            indices = np.frombuffer(section, dtype=dtype)
            if int(indices.max()) >= size:
                raise PayloadCorruptedError("sparse index outside the declared tensor")
            return indices.astype(np.int64)
    raise PayloadCorruptedError("sparse index section length matches no index width")


def oracle_topk_decode_array(sections: Sequence[bytes], shape: Tuple[int, ...],
                             dtype: np.dtype,
                             reference: Optional[np.ndarray] = None) -> np.ndarray:
    """``TopKDeltaCodec.decode_array`` as it was: one tensor, one scatter-add."""
    reference = _check_reference(shape, reference)
    if len(sections) != 2:
        raise PayloadCorruptedError("top-k codec expects index + value sections")
    value_width = np.dtype("<f8").itemsize
    if len(sections[1]) % value_width:
        raise PayloadCorruptedError("top-k value section is not whole values")
    values = np.frombuffer(sections[1], dtype="<f8")
    work = _delta_workspace(reference)
    indices = _decode_sparse_indices(sections[0], values.size, work.size)
    work[indices] += values
    return _deliver(work, shape, dtype, None)


def oracle_topk_quant_decode_array(codec: TopKQuantCodec, sections: Sequence[bytes],
                                   shape: Tuple[int, ...], dtype: np.dtype,
                                   reference: Optional[np.ndarray] = None) -> np.ndarray:
    """``TopKQuantCodec.decode_array`` as it was: one tensor, one unpack, one scatter-add."""
    reference = _check_reference(shape, reference)
    if len(sections) != 3:
        raise PayloadCorruptedError(
            "topk-quantized codec expects index + code + scale sections")
    index_section, code_section, scale_section = sections
    work = _delta_workspace(reference)
    if not index_section and not code_section and not scale_section:
        return _deliver(work, shape, dtype, None)
    scales = np.frombuffer(scale_section, dtype="<f4").astype(np.float64)
    if scales.size != 1:
        raise PayloadCorruptedError(
            "topk-quantized codec expects exactly one scale")
    # the index width determines k: try the width the encoder would pick
    # for this tensor first, then the other, cross-checked against the
    # packed-code section length
    k = None
    preferred = _index_dtype_for(work.size).itemsize
    for width in (preferred, 6 - preferred):  # the other of {2, 4}
        candidate, remainder = divmod(len(index_section), width)
        if remainder == 0 and len(code_section) == -(-candidate * codec.bits // 8):
            k = candidate
            break
    if k is None or k == 0:
        raise PayloadCorruptedError(
            "topk-quantized index and code sections disagree in length")
    indices = _decode_sparse_indices(index_section, k, work.size)
    try:
        codes = unpack_int_codes(code_section, codec.bits, k)
    except ValueError as exc:
        raise PayloadCorruptedError(str(exc)) from exc
    work[indices] += codes * scales[0]
    return _deliver(work, shape, dtype, None)


def _oracle_decode_array(codec, sections, shape, dtype, reference):
    if isinstance(codec, TopKQuantCodec):
        return oracle_topk_quant_decode_array(codec, sections, shape, dtype, reference)
    if isinstance(codec, TopKDeltaCodec):
        return oracle_topk_decode_array(sections, shape, dtype, reference)
    return codec.decode_array(sections, shape, dtype, reference=reference)


def _oracle_decode_tensors(body: memoryview, offset: int, codec,
                           reference: Optional[Dict[str, np.ndarray]]
                           ) -> Dict[str, np.ndarray]:
    """The per-tensor walk-and-decode loop as it was (allocating path)."""
    size = len(body)
    needs_reference = codec.needs_reference
    cast_dtype = codec.cast_wire_dtype
    cast_itemsize = cast_dtype.itemsize if cast_dtype is not None else 0
    shape_structs = _SHAPE_STRUCTS
    dtypes = _DTYPES
    (ntensors,) = _U16.unpack_from(body, offset)
    offset += 2
    state: Dict[str, np.ndarray] = {}
    for _ in range(ntensors):
        (name_len,) = _U16.unpack_from(body, offset)
        offset += 2
        end = offset + name_len
        if end > size:
            raise PayloadCorruptedError("frame truncated")
        name = str(body[offset:end], "utf-8")
        dtype_len = body[end]
        offset = end + 1
        end = offset + dtype_len
        if end > size:
            raise PayloadCorruptedError("frame truncated")
        token = str(body[offset:end], "ascii")
        dtype = dtypes.get(token)
        if dtype is None:
            dtype = _dtype_for(token)
        ndim = body[end]
        offset = end + 1
        compiled = shape_structs.get(ndim)
        if compiled is None:
            compiled = _shape_struct(ndim)
        shape = compiled.unpack_from(body, offset)
        offset += compiled.size
        nsections = body[offset]
        offset += 1
        if cast_dtype is not None and nsections == 1:
            (section_len,) = _U32.unpack_from(body, offset)
            offset += 4
            end = offset + section_len
            if end > size:
                raise PayloadCorruptedError("frame truncated")
            if section_len != cast_itemsize * math.prod(shape):
                raise PayloadCorruptedError(
                    "payload size does not match the declared shape")
            values = np.frombuffer(body[offset:end], dtype=cast_dtype)
            offset = end
            state[name] = values.reshape(shape).astype(dtype)
            continue
        sections = []
        for _ in range(nsections):
            (section_len,) = _U32.unpack_from(body, offset)
            offset += 4
            end = offset + section_len
            if end > size:
                raise PayloadCorruptedError("frame truncated")
            sections.append(body[offset:end])
            offset = end
        ref = None
        if needs_reference:
            if reference is None or name not in reference:
                raise ValueError(
                    f"codec {codec.name!r} needs a reference for tensor {name!r}")
            ref = reference[name]
        state[name] = _oracle_decode_array(codec, sections, shape, dtype, ref)
    return state


def oracle_decode_update_parts(data, reference_lookup):
    """``(participant_id, layer, expert, weight, state)`` of one frame, as it was decoded."""
    body = verify_frame(data)
    try:
        kind, codec, offset = _parse_header(body)
        if kind != KIND_UPDATE:
            raise PayloadCorruptedError(f"expected an update frame, got kind {kind}")
        participant_id, layer, expert, weight = _UPDATE_HEADER.unpack_from(
            body, offset)
        offset += _UPDATE_HEADER.size
        reference = None
        if codec.needs_reference and reference_lookup is not None:
            reference = reference_lookup(layer, expert)
        state = _oracle_decode_tensors(body, offset, codec, reference)
    except (struct.error, KeyError, IndexError, UnicodeDecodeError, TypeError) as exc:
        raise PayloadCorruptedError(f"malformed update frame: {exc}") from exc
    return participant_id, layer, expert, weight, state


class OracleAggregator:
    """One strategy accumulator per expert key, fed one decoded frame at a time."""

    def __init__(self, strategy=None) -> None:
        self.strategy = get_strategy(strategy if strategy is not None else "fedavg")
        self._accs: Dict[ExpertKey, object] = {}

    def fold_payload(self, data, reference_lookup=None, staleness: int = 0) -> None:
        _, layer, expert, weight, state = oracle_decode_update_parts(data, reference_lookup)
        acc = self._accs.get((layer, expert))
        if acc is None:
            acc = self._accs[(layer, expert)] = (
                _FoldAccumulator(self.strategy.discount) if self.strategy.foldable
                else self.strategy.make_accumulator())
        acc.add(state, weight, staleness)

    def contributions(self) -> Dict[ExpertKey, int]:
        return {key: acc.count for key, acc in self._accs.items()}

    def finalize(self, skip_unfinalizable: bool = False
                 ) -> Dict[ExpertKey, Dict[str, np.ndarray]]:
        return {key: acc.finalize() for key, acc in self._accs.items()
                if not skip_unfinalizable or getattr(acc, "finalizable", True)}

    def partials(self, participant_id: int) -> List[ExpertUpdate]:
        return [
            ExpertUpdate(participant_id=participant_id, layer=layer, expert=expert,
                         state=state, weight=self._accs[(layer, expert)].total_weight)
            for (layer, expert), state in self.finalize(skip_unfinalizable=True).items()
        ]


def oracle_fold_frames(strategy, framed, references) -> OracleAggregator:
    """Fold a job's ``(frame, staleness)`` pairs, in order, into one aggregator."""
    aggregator = OracleAggregator(strategy)
    states = {key: decode_state_dict(frame)
              for key, frame in (references or {}).items()}

    def lookup(layer: int, expert: int):
        return states.get((layer, expert))

    fold_payload = aggregator.fold_payload
    for frame, staleness in framed:
        fold_payload(frame, reference_lookup=lookup, staleness=int(staleness))
    return aggregator


def oracle_fold_shard_frames(strategy, framed, references=None
                             ) -> List[Tuple[ExpertKey, bytes, int]]:
    """``fold_shard_frames`` over the frame-at-a-time fold."""
    aggregator = oracle_fold_frames(strategy, framed, references)
    codec = get_codec("fp64")
    counts = aggregator.contributions()
    return [(key, encode_state_dict(state, codec), counts[key])
            for key, state in aggregator.finalize().items()]


def oracle_prefold_node_frames(strategy, pseudo_id: int, framed,
                               references=None) -> List[bytes]:
    """``prefold_node_frames`` over the frame-at-a-time fold."""
    aggregator = oracle_fold_frames(strategy, framed, references)
    return encode_updates(aggregator.partials(pseudo_id), get_codec("fp64"))
