"""Constant-memory streaming aggregation of expert updates — the one fold.

:class:`StreamingAggregator` folds each update into a per-expert accumulator
the moment it arrives; under the default FedAvg strategy the accumulator is a
running weighted sum, so peak server memory is one group of updates plus the
running sums, independent of how many clients contributed.  Every fold in the
repo — the serial servers, the aggregation tree's tiers, the service's fold
jobs — is this class.

The unit of work is a *group*: the frames of one sender (distinct expert keys,
one tensor table) decode as one ``(E, *shape)`` array per tensor
(:func:`~repro.comm.serialization.decode_update_group`) and fold with one
multiply and one add per tensor into ``(keys, *shape)`` running-sum matrices
whose rows are the per-key accumulators (:meth:`StreamingAggregator.fold_frames`).
One frame or one in-memory update is a group of one, not a second path.  Per
element and per key the arithmetic is what it always was — ``running +
value * weight`` in arrival order, the first contribution assigned.

The references it is held to are in ``tests/fold_oracles.py``: the
frame-at-a-time decode-and-fold this replaced (``tests/test_fold_batch.py``:
every partial frame and shard aggregate byte for byte), and the
group-then-average FedAvg over the per-key running-sum accumulator the
strategies used to own (it lives there now, finalized by the same
:func:`finalize_weighted_sum`), in the same arrival order; they agree bit for
bit wherever a key's total weight is positive.

The aggregator is strategy-aware (:mod:`repro.federated.strategies`): pass a
strategy name or instance and every expert key folds through that strategy's
accumulator instead.  Order statistics (``trimmed_mean``, ``median``) buffer
their contributions per key — streaming then bounds memory per *expert*, not
per run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .scratch import ScratchPool
from .serialization import (
    DecodedGroup,
    ParsedUpdate,
    decode_update_group,
    parse_update,
)

ExpertKey = Tuple[int, int]

#: most frames one group fold takes on: bounds its work matrices (a sender
#: with more experts than this folds as several groups)
MAX_GROUP_FRAMES = 64


def finalize_weighted_sum(acc: Dict[str, np.ndarray],
                          total_weight: float) -> Dict[str, np.ndarray]:
    """Divide the running sums by the total weight."""
    if total_weight <= 0:
        raise ValueError("cannot finalize an aggregation with non-positive total weight")
    return {name: value / total_weight for name, value in acc.items()}


class _SumRow:
    """One expert key's row of an aggregator's running-sum matrices.

    The per-key face of a foldable strategy's state — count, total weight,
    :meth:`finalize` — so everything that reads accumulators treats foldable
    and buffering strategies alike.  The sums themselves live in the owning
    aggregator's ``(keys, *shape)`` matrices, one per ``(name, shape)``.
    """

    __slots__ = ("_sums", "row", "tensors", "count", "total_weight")

    def __init__(self, sums: Dict[Tuple[str, tuple], np.ndarray], row: int) -> None:
        self._sums = sums
        self.row = row
        #: ``(name, shape)`` of every tensor of this key, first-contribution order
        self.tensors: Optional[Tuple[Tuple[str, tuple], ...]] = None
        self.count = 0
        self.total_weight = 0.0

    @property
    def finalizable(self) -> bool:
        # A weighted mean needs positive total weight; the individual states
        # are gone, so all-zero weights cannot fall back to a uniform mean.
        return self.total_weight > 0

    def finalize(self) -> Dict[str, np.ndarray]:
        return finalize_weighted_sum(
            {name: self._sums[name, shape][self.row] for name, shape in self.tensors or ()},
            self.total_weight)


class StreamingAggregator:
    """Folds expert updates, a group at a time, into per-expert accumulators.

    ``strategy`` selects the per-expert reduction
    (:mod:`repro.federated.strategies`); ``None`` is weighted FedAvg.
    All-zero FedAvg weights cannot be averaged (the individual states are
    gone by finalize time); feeding only zero-weight updates for a key raises
    at :meth:`finalize`.
    """

    def __init__(self, strategy=None,
                 scratch: Optional[ScratchPool] = None) -> None:
        # Late import: repro.federated.strategies imports the fold primitives
        # from this module at load time, so the dependency must stay one-way
        # at import time and resolve here at construction time.
        from ..federated.strategies import get_strategy

        self.strategy = get_strategy(strategy if strategy is not None else "fedavg")
        # Scratch only engages for foldable strategies: buffering accumulators
        # (trimmed_mean, median) retain references to the decoded states, and
        # a recycled scratch array under a retained reference is corruption.
        self._foldable = bool(self.strategy.foldable)
        self._scratch = scratch if self._foldable else None
        #: per key: a :class:`_SumRow` (foldable strategies) or the strategy's
        #: own accumulator (buffering ones), in first-contribution order
        self._accs: Dict[ExpertKey, object] = {}
        #: foldable strategies: ``(keys, *shape)`` float64 running sums per
        #: ``(name, shape)``; row ``r`` belongs to the key whose row is ``r``
        self._sums: Dict[Tuple[str, tuple], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._accs)

    @property
    def num_updates(self) -> int:
        return sum(acc.count for acc in self._accs.values())

    def contributions(self) -> Dict[ExpertKey, int]:
        """Updates folded so far, per expert key."""
        return {key: acc.count for key, acc in self._accs.items()}

    def total_weight(self, key: ExpertKey) -> float:
        """Sum of the (possibly discounted) weights folded for ``key``."""
        return self._accs[key].total_weight

    # ------------------------------------------------------------------ folding
    def _fold_group(self, keys: Sequence[ExpertKey], weights: Sequence[float],
                    stalenesses: Sequence[int], groups: Sequence[DecodedGroup]) -> None:
        """Fold one contribution per (distinct) key; ``groups`` hold their tensors.

        Under a foldable strategy everything is checked before anything is
        folded, so a group folds whole or not at all.
        """
        accs = self._accs
        if not self._foldable:
            members = [accs.get(key) for key in keys]
            for position, key in enumerate(keys):
                if members[position] is None:
                    members[position] = accs[key] = self.strategy.make_accumulator()
            for positions, tensors, values in groups:
                for row, position in enumerate(positions):
                    members[position].add(
                        {name: value[row] for (name, _), value in zip(tensors, values)},
                        weights[position], stalenesses[position])
            return
        discount = self.strategy.discount
        factors = []
        for weight, staleness in zip(weights, stalenesses):
            if discount is not None:
                weight = weight * discount(staleness)
            weight = float(weight)
            if weight < 0:
                raise ValueError("aggregation weights must be non-negative")
            factors.append(weight)
        members = [accs.get(key) for key in keys]
        for positions, tensors, _ in groups:
            for position in positions:
                acc = members[position]
                if (acc is not None and acc.tensors != tensors
                        and dict(acc.tensors) != dict(tensors)):
                    raise ValueError("cannot fold states with mismatched tensor names")
        for position, key in enumerate(keys):
            if members[position] is None:
                members[position] = accs[key] = _SumRow(self._sums, len(accs))
        for positions, tensors, values in groups:
            rows = [members[position].row for position in positions]
            count = len(rows)
            # One add for the group when its rows are consecutive and all of an
            # age — a sender uploading the experts the sums already hold, in
            # the order they hold them (or the first sender of all); any other
            # row set adds row by row.
            fresh = [members[position].count == 0 for position in positions]
            block = (slice(rows[0], rows[0] + count)
                     if fresh.count(fresh[0]) == count
                     and rows == list(range(rows[0], rows[0] + count)) else None)
            group_factors = [factors[position] for position in positions]
            for tensor, value in zip(tensors, values):
                self._add_rows(tensor, rows, block, fresh, value, group_factors)
            for position, factor in zip(positions, group_factors):
                acc = members[position]
                if acc.tensors is None:
                    acc.tensors = tensors
                acc.total_weight += factor
                acc.count += 1

    def _add_rows(self, tensor: Tuple[str, tuple], rows: List[int],
                  block: Optional[slice], fresh: List[bool],
                  values: Sequence[np.ndarray], factors: List[float]) -> None:
        """``sums[rows] += values * factors`` in float64, a key's first term assigned.

        ``fresh[r]``: row ``r`` has no contribution yet.  ``block`` is the rows
        as a slice when they are consecutive and all fresh or all not (else
        ``None``).
        """
        shape = tensor[1]
        sums = self._sums.get(tensor)
        needed = (block.stop if block is not None else max(rows) + 1)
        if sums is None or len(sums) < needed:
            held = 0 if sums is None else len(sums)
            grown = np.empty((max(needed, 2 * held), *shape), dtype=np.float64)
            if held:
                grown[:held] = sums
            self._sums[tensor] = sums = grown
        count = len(rows)
        if block is not None and fresh[0]:
            term = sums[block]              # a first term is the product itself
        elif self._scratch is not None:
            term = self._scratch.term_rows(count, shape)
        else:
            term = np.empty((count, *shape), dtype=np.float64)
        if isinstance(values, np.ndarray):
            np.multiply(values, np.array(factors).reshape((count,) + (1,) * len(shape)),
                        out=term, dtype=np.float64, casting="unsafe")
        else:
            for value, factor, row_term in zip(values, factors, term):
                np.multiply(value, factor, out=row_term, dtype=np.float64,
                            casting="unsafe")
        if block is not None:
            if not fresh[0]:
                target = sums[block]
                np.add(target, term, out=target)
            return
        for row, is_fresh, row_term in zip(rows, fresh, term):
            if is_fresh:
                sums[row] = row_term
            else:
                np.add(sums[row], row_term, out=sums[row])

    def add_state(self, key: ExpertKey, state: Dict[str, np.ndarray],
                  weight: float, staleness: int = 0) -> None:
        """Fold one in-memory state: a group of one."""
        values = [[np.asarray(value)] for value in state.values()]
        self._fold_group((key,), (weight,), (staleness,), ((
            (0,), tuple([(name, value[0].shape) for name, value in zip(state, values)]),
            values),))

    def add(self, update) -> None:
        """Fold one :class:`~repro.federated.aggregation.ExpertUpdate`."""
        self.add_state(update.key, update.state, update.weight,
                       getattr(update, "staleness", 0))

    def fold_frames(self, frames: Sequence, stalenesses: Optional[Sequence[int]] = None,
                    reference_lookup=None) -> None:
        """Decode and fold wire frames, in order — the fused decode-and-fold hot path.

        Consecutive frames with distinct expert keys (a sender's upload; at
        most :data:`MAX_GROUP_FRAMES`) are one group: every frame is verified
        and parsed (:func:`~repro.comm.serialization.parse_update`), the
        group's same-named tensors decode as one array each and fold with one
        multiply and one add each.  A key's contributions fold in frame order,
        so the sums are bit for bit those of folding frame by frame.  With a
        scratch pool (and a foldable strategy) the arrays are pool-owned and
        recycled per group — zero allocations in steady state.

        Wire frames carry no staleness: pass ``stalenesses`` (one per frame)
        when the transport tracks it out of band.  Delta codecs resolve their
        references via ``reference_lookup(layer, expert)``.  A group with a
        frame that fails verification or decoding raises and folds nothing
        (earlier groups stay folded).
        """
        if stalenesses is None:
            stalenesses = [0] * len(frames)
        start = 0
        group: Dict[ExpertKey, ParsedUpdate] = {}
        for position, frame in enumerate(frames):
            parsed = parse_update(frame)
            key = (parsed.layer, parsed.expert)
            if key in group or len(group) == MAX_GROUP_FRAMES:
                self._fold_parsed(group, stalenesses[start:position], reference_lookup)
                start, group = position, {}
            group[key] = parsed
        if group:
            self._fold_parsed(group, stalenesses[start:], reference_lookup)

    def _fold_parsed(self, group: Dict[ExpertKey, ParsedUpdate],
                     stalenesses: Sequence[int], reference_lookup) -> None:
        scratch = self._scratch
        parsed = list(group.values())
        try:
            self._fold_group(list(group), [update.weight for update in parsed], stalenesses,
                             decode_update_group(parsed, reference_lookup, scratch))
        finally:
            if scratch is not None:
                scratch.recycle()

    # --------------------------------------------------------------- finalizing
    def partials(self, participant_id: int) -> list:
        """Pre-folded partial aggregates, one update per finalizable key.

        Each partial carries the key's accumulated (post-discount) weight, so
        a downstream weighted fold treats this aggregator's whole input as one
        heavy contributor — the building block of hierarchical aggregation
        (:mod:`repro.federated.topology`) and of the service's node pre-folds
        (:mod:`repro.service.fold`).  Unfinalizable keys (only zero-weight
        FedAvg contributions) are dropped.  ``participant_id`` is the pseudo
        id stamped on the partials (aggregator tiers use negative ids).
        """
        from ..federated.aggregation import ExpertUpdate

        return [
            ExpertUpdate(
                participant_id=participant_id,
                layer=layer,
                expert=expert,
                state=state,
                weight=self.total_weight((layer, expert)),
            )
            for (layer, expert), state in self.finalize(skip_unfinalizable=True).items()
        ]

    def finalize(self, skip_unfinalizable: bool = False
                 ) -> Dict[ExpertKey, Dict[str, np.ndarray]]:
        """Aggregated state per expert key (leaves the aggregator intact).

        ``skip_unfinalizable=True`` silently drops keys whose accumulator
        cannot produce a result — under FedAvg, keys that received only
        zero-weight contributions (the states are gone, so no uniform-mean
        fallback is possible) — instead of raising.
        """
        return {key: acc.finalize() for key, acc in self._accs.items()
                if not skip_unfinalizable or getattr(acc, "finalizable", True)}

    def apply(self, model) -> Dict[ExpertKey, int]:
        """Write the aggregated experts into ``model``; returns contributions."""
        for (layer, expert), aggregated in self.finalize().items():
            model.load_expert_state(layer, expert, aggregated)
        return self.contributions()
