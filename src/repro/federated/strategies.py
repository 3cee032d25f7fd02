"""Pluggable aggregation strategies for expert updates.

The server-side fold is no longer hardwired to weighted FedAvg: a strategy
names *how* a set of per-expert updates becomes one aggregated expert state.
Strategies are registered by name and selected via
:attr:`~repro.federated.orchestrator.RunConfig.aggregation`, so the whole
topology — flat server, expert shards, edge aggregators — composes with any of
them:

``fedavg``
    Weighted average: the sequential fold of
    :class:`~repro.comm.StreamingAggregator`, which keeps the running sums
    itself, so selecting it explicitly is bit-identical to the default.

``trimmed_mean``
    Coordinate-wise trimmed mean (Yin et al.): per scalar coordinate, drop the
    ``k`` smallest and ``k`` largest contributions and average the rest —
    robust to up to ``k`` arbitrarily corrupted clients per expert.

``median``
    Coordinate-wise median, the classic robust aggregation baseline.

A strategy sees weights only: the asynchronous scheduler's FedBuff discount
is already in an update's weight when the update is folded
(:class:`repro.runtime.scheduler.AsyncScheduler`).

The foldable strategy (FedAvg) keeps O(1) state per expert, in the
aggregator; order statistics (trimmed mean, median) produce per-expert
*accumulators* that buffer their contributions until
:meth:`UpdateAccumulator.finalize`.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.aggregator import StreamingAggregator

State = Dict[str, np.ndarray]

#: the key :meth:`AggregationStrategy.aggregate` folds its states under
_ONE_KEY = (0, 0)


class UpdateAccumulator(abc.ABC):
    """Collects the updates of one expert key and reduces them to one state."""

    def __init__(self) -> None:
        self.count = 0
        self.total_weight = 0.0

    @property
    def finalizable(self) -> bool:
        """Whether :meth:`finalize` can produce a result from what was added."""
        return self.count > 0

    @abc.abstractmethod
    def add(self, state: State, weight: float) -> None:
        """Fold (or buffer) one contribution."""

    @abc.abstractmethod
    def finalize(self) -> State:
        """The aggregated expert state (leaves the accumulator intact)."""


class AggregationStrategy(abc.ABC):
    """How the updates of one expert key become one state."""

    name: str = "base"
    #: True when the reduction is the weighted mean of the contributions: a
    #: :class:`~repro.comm.StreamingAggregator` then keeps the running sums of
    #: all keys itself (O(1) state per expert, whole groups of updates folded
    #: at once).  Otherwise every key gets one :meth:`make_accumulator`, which
    #: buffers its contributions until finalize (order statistics).
    foldable: bool = False

    def make_accumulator(self) -> UpdateAccumulator:
        """A fresh accumulator for one expert key (non-:attr:`foldable` strategies)."""
        raise NotImplementedError(
            f"{type(self).__name__} defines no per-key accumulator "
            "(a foldable strategy's sums are the aggregator's)")

    def aggregate(self, states: Sequence[State], weights: Sequence[float]) -> State:
        """Convenience one-shot aggregation of pre-collected states.

        The states of one (anonymous) expert key through a
        :class:`~repro.comm.StreamingAggregator` — the fold every server runs.
        """
        if not states:
            raise ValueError("cannot aggregate an empty list of states")
        if len(states) != len(weights):
            raise ValueError("one weight per state is required")
        aggregator = StreamingAggregator(self)
        for state, weight in zip(states, weights):
            aggregator.add_state(_ONE_KEY, state, weight)
        return aggregator.finalize()[_ONE_KEY]


# -------------------------------------------------------------------- fedavg
class FedAvgStrategy(AggregationStrategy):
    """Weighted FedAvg: the aggregator's running weighted sums, finalized by the total."""

    name = "fedavg"
    foldable = True


# ---------------------------------------------------------- order statistics
class _BufferingAccumulator(UpdateAccumulator):
    """Keeps every contribution; subclasses reduce the stacked coordinates."""

    def __init__(self) -> None:
        super().__init__()
        self._states: List[State] = []

    def add(self, state: State, weight: float) -> None:
        if weight < 0:
            raise ValueError("aggregation weights must be non-negative")
        if self._states and set(state) != set(self._states[0]):
            raise ValueError("cannot aggregate states with mismatched tensor names")
        self._states.append({name: np.asarray(value, dtype=np.float64)
                             for name, value in state.items()})
        self.total_weight += float(weight)
        self.count += 1

    def _stacked(self) -> Dict[str, np.ndarray]:
        if not self._states:
            raise ValueError("cannot finalize an empty aggregation")
        return {name: np.stack([state[name] for state in self._states])
                for name in self._states[0]}

    @abc.abstractmethod
    def _reduce(self, stacked: np.ndarray) -> np.ndarray:
        """Reduce the leading (contributor) axis to one tensor."""

    def finalize(self) -> State:
        return {name: self._reduce(stacked) for name, stacked in self._stacked().items()}


class _TrimmedMeanAccumulator(_BufferingAccumulator):
    def __init__(self, trim_ratio: float) -> None:
        super().__init__()
        self.trim_ratio = trim_ratio

    def _reduce(self, stacked: np.ndarray) -> np.ndarray:
        n = stacked.shape[0]
        k = min(int(self.trim_ratio * n), (n - 1) // 2)
        if k == 0:
            return stacked.mean(axis=0)
        ordered = np.sort(stacked, axis=0)
        return ordered[k:n - k].mean(axis=0)


class TrimmedMeanStrategy(AggregationStrategy):
    """Coordinate-wise trimmed mean: robust to ``trim_ratio`` corrupted clients."""

    name = "trimmed_mean"
    foldable = False

    def __init__(self, trim_ratio: float = 0.1) -> None:
        if not 0.0 <= trim_ratio < 0.5:
            raise ValueError("trim_ratio must be in [0, 0.5)")
        self.trim_ratio = trim_ratio

    def make_accumulator(self) -> UpdateAccumulator:
        return _TrimmedMeanAccumulator(self.trim_ratio)


class _MedianAccumulator(_BufferingAccumulator):
    def _reduce(self, stacked: np.ndarray) -> np.ndarray:
        return np.median(stacked, axis=0)


class MedianStrategy(AggregationStrategy):
    """Coordinate-wise median of the contributions."""

    name = "median"
    foldable = False

    def make_accumulator(self) -> UpdateAccumulator:
        return _MedianAccumulator()


# ------------------------------------------------------------------ registry
_REGISTRY: Dict[str, Callable[..., AggregationStrategy]] = {}


def register_strategy(name: str, factory: Callable[..., AggregationStrategy]) -> None:
    """Register (or replace) a strategy factory under ``name``."""
    _REGISTRY[name] = factory


def available_strategies() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_strategy(spec, **kwargs) -> AggregationStrategy:
    """Resolve ``spec`` (a name or an instance) into a strategy object."""
    if isinstance(spec, AggregationStrategy):
        return spec
    try:
        factory = _REGISTRY[spec]
    except KeyError:
        raise KeyError(
            f"unknown aggregation strategy {spec!r} "
            f"(available: {', '.join(available_strategies())})") from None
    return factory(**kwargs)


def picklable_strategy(spec) -> Optional[AggregationStrategy]:
    """Resolve ``spec`` and verify it can cross a process boundary.

    Service aggregation (:class:`~repro.service.ServiceAggregationPool`)
    ships the *strategy object* to the aggregator servers and rebuilds
    accumulators there, so a strategy's construction-time state (a trim ratio,
    …) must pickle.  All built-in strategies do; a custom
    strategy holding e.g. a lambda or an open handle fails here with a clear
    error instead of a server-side one.  ``None`` (the FedAvg default) passes
    through untouched.
    """
    import pickle

    if spec is None:
        return None
    strategy = get_strategy(spec)
    try:
        pickle.loads(pickle.dumps(strategy))
    except Exception as exc:
        raise TypeError(
            f"aggregation strategy {strategy.name!r} cannot cross a process "
            f"boundary ({exc}); service aggregation requires a picklable "
            "strategy — keep construction-time state to plain data") from exc
    return strategy


def strategy_from_config(config) -> Optional[AggregationStrategy]:
    """The strategy a :class:`~repro.federated.RunConfig` selects.

    Returns ``None`` for the default ``"fedavg"``, which the aggregators
    resolve to the FedAvg strategy themselves.
    """
    name = getattr(config, "aggregation", "fedavg")
    if name == "fedavg":
        return None
    if name == "trimmed_mean":
        return TrimmedMeanStrategy(trim_ratio=getattr(config, "trim_ratio", 0.1))
    return get_strategy(name)


register_strategy("fedavg", FedAvgStrategy)
register_strategy("trimmed_mean", TrimmedMeanStrategy)
register_strategy("median", MedianStrategy)
