"""Constant-memory streaming aggregation of expert updates — the one fold.

:class:`StreamingAggregator` folds each update into a per-expert accumulator
the moment it arrives; under the default FedAvg strategy the accumulator is a
running weighted sum, so peak server memory is one update plus the running
sums, independent of how many clients contributed.  Every fold in the repo —
the serial servers, the aggregation tree's tiers, the service's fold jobs —
is this class.

The reference it is held to is the group-then-average FedAvg in
``tests/fold_oracles.py``, built on the same :func:`fold_weighted_state` /
:func:`finalize_weighted_sum` pair in the same arrival order; the two agree
bit for bit wherever a key's total weight is positive.

The aggregator is strategy-aware (:mod:`repro.federated.strategies`): pass a
strategy name or instance and every expert key folds through that strategy's
accumulator instead.  Order statistics (``trimmed_mean``, ``median``) buffer
their contributions per key — streaming then bounds memory per *expert*, not
per run.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .scratch import ScratchPool
from .serialization import _decode_update_parts, decode_update

ExpertKey = Tuple[int, int]


def fold_weighted_state(acc: Dict[str, np.ndarray], state: Dict[str, np.ndarray],
                        weight: float,
                        scratch: Optional[ScratchPool] = None) -> None:
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


def finalize_weighted_sum(acc: Dict[str, np.ndarray],
                          total_weight: float) -> Dict[str, np.ndarray]:
    """Divide the running sums by the total weight."""
    if total_weight <= 0:
        raise ValueError("cannot finalize an aggregation with non-positive total weight")
    return {name: value / total_weight for name, value in acc.items()}


class StreamingAggregator:
    """Folds expert updates one at a time into per-expert accumulators.

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
        self._scratch = scratch if self.strategy.foldable else None
        self._accs: Dict[ExpertKey, object] = {}

    @property
    def uses_scratch(self) -> bool:
        """Whether this aggregator folds through a scratch pool.

        ``False`` for buffering strategies even when one was passed — callers
        deciding whether to scratch-decode payloads must check this, not the
        constructor argument.
        """
        return self._scratch is not None

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
    def add_state(self, key: ExpertKey, state: Dict[str, np.ndarray],
                  weight: float, staleness: int = 0) -> None:
        acc = self._accs.get(key)
        if acc is None:
            acc = self._accs[key] = self.strategy.make_accumulator()
            if self._scratch is not None:
                acc.scratch = self._scratch
        acc.add(state, weight, staleness)

    def add(self, update) -> None:
        """Fold one :class:`~repro.federated.aggregation.ExpertUpdate`."""
        self.add_state(update.key, update.state, update.weight,
                       getattr(update, "staleness", 0))

    def add_updates(self, updates: Iterable) -> None:
        for update in updates:
            self.add(update)

    def add_payload(self, data,
                    reference: Optional[Dict[str, np.ndarray]] = None,
                    reference_lookup=None):
        """Decode one wire frame and fold it; returns the decoded update.

        This is the fused decode-and-fold hot path: with a scratch pool (and
        a foldable strategy) the frame decodes into pool-owned arrays, folds,
        and the arrays are recycled for the next frame — zero allocations in
        steady state.  The *returned* update's state then references volatile
        scratch storage; it is a peek at what was folded, not a value to
        retain.
        """
        scratch = self._scratch
        update = decode_update(data, reference=reference,
                               reference_lookup=reference_lookup,
                               scratch=scratch)
        self.add(update)
        if scratch is not None:
            scratch.recycle()
        return update

    def fold_payload(self, data,
                     reference: Optional[Dict[str, np.ndarray]] = None,
                     reference_lookup=None, staleness: int = 0) -> None:
        """:meth:`add_payload` without the update peek — the leanest fold.

        Identical decode and fold arithmetic; the only difference is that no
        :class:`~repro.federated.aggregation.ExpertUpdate` is materialised
        (wire frames carry no staleness, so pass ``staleness=`` explicitly
        when the transport tracks it out of band).
        """
        scratch = self._scratch
        _, layer, expert, weight, state = _decode_update_parts(
            data, reference, reference_lookup, scratch)
        self.add_state((layer, expert), state, weight, staleness)
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
