"""Event-driven federated execution engine.

This package owns *when* and *on what* participant work runs — client
sampling, fault injection, the simulated event clock, sync/semi-sync/async
aggregation policies and (optionally) a process pool for parallel local
training — while the *work itself* stays behind
:meth:`~repro.federated.orchestrator.FederatedFineTuner.participant_round`.
Select a policy via :attr:`RunConfig.scheduler` (``"sync"`` | ``"semisync"`` |
``"async"``) or pass a :class:`Scheduler` instance to
:meth:`FederatedFineTuner.run` directly.
"""

from .checkpoint import (
    CheckpointRecord,
    RunCheckpointer,
    capture_run_checkpoint,
    latest_checkpoint,
    load_run_checkpoint,
    prune_checkpoints,
    restore_run_state,
    save_run_checkpoint,
    write_run_checkpoint,
)
from .events import Event, EventQueue
from .executor import (
    ParticipantExecutor,
    ProcessPoolParticipantExecutor,
    SerialExecutor,
    make_executor,
)
from .faults import (
    ChannelFaultInjector,
    ChannelFaultOutcome,
    FaultInjector,
    FaultOutcome,
    scale_breakdown,
)
from .sampling import (
    AvailabilityTraceSampler,
    ClientSampler,
    ResourceAwareSampler,
    UniformSampler,
    make_sampler,
)
from .scheduler import (
    SCHEDULERS,
    AsyncScheduler,
    Scheduler,
    SemiSyncScheduler,
    SyncScheduler,
    make_scheduler,
)

__all__ = [
    "CheckpointRecord",
    "RunCheckpointer",
    "capture_run_checkpoint",
    "latest_checkpoint",
    "load_run_checkpoint",
    "prune_checkpoints",
    "restore_run_state",
    "save_run_checkpoint",
    "write_run_checkpoint",
    "Event",
    "EventQueue",
    "ClientSampler",
    "UniformSampler",
    "ResourceAwareSampler",
    "AvailabilityTraceSampler",
    "make_sampler",
    "FaultInjector",
    "FaultOutcome",
    "ChannelFaultInjector",
    "ChannelFaultOutcome",
    "scale_breakdown",
    "ParticipantExecutor",
    "SerialExecutor",
    "ProcessPoolParticipantExecutor",
    "make_executor",
    "Scheduler",
    "SyncScheduler",
    "SemiSyncScheduler",
    "AsyncScheduler",
    "SCHEDULERS",
    "make_scheduler",
]
