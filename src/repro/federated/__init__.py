"""Federated learning substrate: clients, servers, aggregation topology, round loop."""

from .aggregation import ExpertKey, ExpertUpdate
from .client import LocalTrainResult, Participant, ParticipantResources
from .communication import ExchangePlan, bytes_per_param_for_bits
from .privacy import GaussianMechanism, epsilon_estimate
from .orchestrator import (
    FederatedFineTuner,
    ParticipantRoundResult,
    RoundResult,
    RunConfig,
    RunResult,
)
from .server import (
    ParameterServer,
    ShardedParameterServer,
    make_aggregation_pool,
    make_server,
)
from .strategies import (
    AggregationStrategy,
    FedAvgStrategy,
    MedianStrategy,
    TrimmedMeanStrategy,
    available_strategies,
    get_strategy,
    picklable_strategy,
    register_strategy,
    strategy_from_config,
)
from .topology import (
    AggregationTree,
    CallableGrouping,
    CostAwareGrouping,
    GroupingPolicy,
    RoundRobinGrouping,
    make_topology,
)

__all__ = [
    "ExpertKey",
    "ExpertUpdate",
    "Participant",
    "ParticipantResources",
    "LocalTrainResult",
    "ExchangePlan",
    "bytes_per_param_for_bits",
    "GaussianMechanism",
    "epsilon_estimate",
    "ParameterServer",
    "ShardedParameterServer",
    "make_server",
    "make_aggregation_pool",
    "AggregationStrategy",
    "FedAvgStrategy",
    "TrimmedMeanStrategy",
    "MedianStrategy",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "picklable_strategy",
    "strategy_from_config",
    "AggregationTree",
    "GroupingPolicy",
    "RoundRobinGrouping",
    "CostAwareGrouping",
    "CallableGrouping",
    "make_topology",
    "FederatedFineTuner",
    "RunConfig",
    "RunResult",
    "RoundResult",
    "ParticipantRoundResult",
]
