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
)
from .topology import (
    AggregationTree,
    CostAwareGrouping,
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
    "make_aggregation_pool",
    "AggregationTree",
    "RoundRobinGrouping",
    "CostAwareGrouping",
    "make_topology",
    "FederatedFineTuner",
    "RunConfig",
    "RunResult",
    "RoundResult",
    "ParticipantRoundResult",
]
