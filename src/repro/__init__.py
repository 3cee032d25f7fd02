"""Flux: federated fine-tuning of sparsely-activated (MoE) LLMs on constrained devices.

Reproduction of the EuroSys 2026 paper.  The public API re-exports the pieces a
downstream user needs to run an end-to-end federated MoE fine-tuning
experiment: model presets, synthetic benchmark datasets with non-IID
partitioning, the device/cost simulation, the Flux fine-tuner and the three
baselines (FMD, FMQ, FMES).

Quickstart::

    from repro import (
        MoETransformer, llama_moe_mini, make_gsm8k_like, partition_dirichlet,
        Participant, ParticipantResources, ParameterServer,
        FluxFineTuner, RunConfig,
    )

    config = llama_moe_mini()
    dataset = make_gsm8k_like()
    train, test = dataset.split()
    shards = partition_dirichlet(train, num_clients=4, alpha=0.5)
    participants = [
        Participant(i, train.subset(shard),
                    resources=ParticipantResources(max_experts=16, max_tuning_experts=8))
        for i, shard in enumerate(shards)
    ]
    server = ParameterServer(MoETransformer(config))
    tuner = FluxFineTuner(server, participants, test, config=RunConfig())
    result = tuner.run(num_rounds=5)
    for row in result.tracker.as_series():
        print(row)

Pass ``RunConfig(telemetry=True, telemetry_dir="trace/")`` and the run also
emits a JSONL span/metrics event log, a Chrome trace (open it in Perfetto)
and a Prometheus text snapshot — see :mod:`repro.obs` and
``scripts/run_report.py``.

The ``RunConfig`` runtime block selects the :mod:`repro.runtime` execution
engine: ``scheduler`` picks the aggregation policy (``"sync"`` — the default,
the paper's synchronous loop; ``"semisync"`` — deadline-based with straggler
dropping; ``"async"`` — FedBuff-style buffered aggregation with
staleness-discounted updates), ``participants_per_round`` how many
participants a round draws uniformly (under async: how many train at once;
``None`` is everyone) and ``dropout_prob``/``straggler_prob`` seeded fault
injection::

    async_config = RunConfig(scheduler="async", buffer_size=4,
                             participants_per_round=8, straggler_prob=0.2)
    result = FluxFineTuner(server, participants, test, config=async_config).run(20)
"""

from .baselines import FMDFineTuner, FMESFineTuner, FMQFineTuner
from .comm import (
    Channel,
    ChannelStats,
    StreamingAggregator,
    decode_update,
    encode_update,
    get_codec,
)
from .core import (
    EpsilonSchedule,
    FluxConfig,
    FluxFineTuner,
    QuantizedProfiler,
    StaleProfiler,
)
from .data import (
    SyntheticDataset,
    Vocabulary,
    make_dataset,
    make_dolly_like,
    make_gsm8k_like,
    make_mmlu_like,
    partition_dirichlet,
)
from .federated import (
    AggregationTree,
    FederatedFineTuner,
    ParameterServer,
    Participant,
    ParticipantResources,
    RunConfig,
    RunResult,
    ShardedParameterServer,
)
from .metrics import PerformanceTracker, evaluate_model
from .obs import (
    MetricsRegistry,
    NullTracer,
    RunTelemetry,
    Span,
    Tracer,
)
from .runtime import (
    AsyncScheduler,
    EventQueue,
    FaultInjector,
    Scheduler,
    SemiSyncScheduler,
    SyncScheduler,
    make_scheduler,
)
from .models import (
    MoEModelConfig,
    MoETransformer,
    customized_moe,
    deepseek_moe_mini,
    llama_moe_mini,
    load_model,
    save_checkpoint,
    tiny_moe,
)
from .service import (
    AggregatorServer,
    ServiceAggregationPool,
    ServiceClient,
    spawn_server,
)
from .systems import CONSUMER_GPU, L20_SERVER, SMALL_GPU, CostModel, DeviceProfile, MemoryModel

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # models
    "MoEModelConfig",
    "MoETransformer",
    "llama_moe_mini",
    "deepseek_moe_mini",
    "tiny_moe",
    "customized_moe",
    "save_checkpoint",
    "load_model",
    # data
    "Vocabulary",
    "SyntheticDataset",
    "make_dataset",
    "make_dolly_like",
    "make_gsm8k_like",
    "make_mmlu_like",
    "partition_dirichlet",
    # federated substrate
    "Participant",
    "ParticipantResources",
    "ParameterServer",
    "ShardedParameterServer",
    "AggregationTree",
    "FederatedFineTuner",
    "RunConfig",
    "RunResult",
    # comm (wire-level transport)
    "Channel",
    "ChannelStats",
    "StreamingAggregator",
    "get_codec",
    "encode_update",
    "decode_update",
    # systems
    "DeviceProfile",
    "CONSUMER_GPU",
    "SMALL_GPU",
    "L20_SERVER",
    "MemoryModel",
    "CostModel",
    # metrics
    "evaluate_model",
    "PerformanceTracker",
    # obs (tracing, metrics registry, structured logging)
    "Span",
    "Tracer",
    "NullTracer",
    "MetricsRegistry",
    "RunTelemetry",
    # runtime (event-driven execution engine)
    "EventQueue",
    "Scheduler",
    "SyncScheduler",
    "SemiSyncScheduler",
    "AsyncScheduler",
    "make_scheduler",
    "FaultInjector",
    # service (persistent socket-backed aggregation servers)
    "AggregatorServer",
    "spawn_server",
    "ServiceClient",
    "ServiceAggregationPool",
    # Flux + baselines
    "FluxConfig",
    "EpsilonSchedule",
    "QuantizedProfiler",
    "StaleProfiler",
    "FluxFineTuner",
    "FMDFineTuner",
    "FMQFineTuner",
    "FMESFineTuner",
]
