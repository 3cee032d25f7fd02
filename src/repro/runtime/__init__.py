"""Event-driven federated execution engine.

This package owns *when* and *on what* participant work runs — client
selection, fault injection, the simulated event clock and the
sync/semi-sync/async aggregation policies — while the *work itself* stays
behind :meth:`~repro.federated.orchestrator.FederatedFineTuner.participant_round`.
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
    write_run_checkpoint,
)
from .events import Event, EventQueue
from .faults import (
    ChannelFaultInjector,
    ChannelFaultOutcome,
    FaultInjector,
    FaultOutcome,
    scale_breakdown,
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
    "write_run_checkpoint",
    "Event",
    "EventQueue",
    "FaultInjector",
    "FaultOutcome",
    "ChannelFaultInjector",
    "ChannelFaultOutcome",
    "scale_breakdown",
    "Scheduler",
    "SyncScheduler",
    "SemiSyncScheduler",
    "AsyncScheduler",
    "SCHEDULERS",
    "make_scheduler",
]
