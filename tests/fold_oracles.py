"""Reference implementation of buffered FedAvg, kept verbatim.

What ``ParameterServer.aggregate`` ran by default before the streaming fold
became the only fold: group a round's updates by expert key
(:func:`group_updates`), average each group with a sequential weighted fold
(:func:`fedavg_states`) and load the result (:func:`apply_fedavg`).  They
exist only here: ``test_fold_oracle.py`` holds
:class:`repro.comm.StreamingAggregator` — serial, sharded and as the service's
fold jobs — to them bit for bit.  The one behaviour the streaming fold does
not share is :func:`fedavg_states`'s uniform mean over a key whose weights
are all zero; there the streaming fold raises.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.comm.aggregator import finalize_weighted_sum, fold_weighted_state
from repro.federated.aggregation import ExpertKey, ExpertUpdate
from repro.models import MoETransformer


def fedavg_states(states: Sequence[Dict[str, np.ndarray]],
                  weights: Sequence[float],
                  scratch=None) -> Dict[str, np.ndarray]:
    """Weighted average of several identically shaped state dicts.

    Implemented as a sequential weighted fold over the states (the same
    :func:`~repro.comm.aggregator.fold_weighted_state` the streaming server
    path uses), so buffered and streaming aggregation are bit-identical.
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
