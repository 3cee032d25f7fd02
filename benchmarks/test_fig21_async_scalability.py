"""Figure 21 (new): sync vs semi-sync vs async scheduling at 20/50/100 clients.

The event-driven runtime (``repro.runtime``) decouples *when* aggregation
happens from *what* a participant round computes.  This benchmark compares the
three aggregation policies on a common federation under mild fault injection
(10% stragglers at 4x slowdown) and reports simulated time-to-target-accuracy
at increasing federation sizes.

Expected shape: the synchronous round is gated by the slowest (straggling)
participant, so the deadline-based semi-synchronous policy and the buffered
asynchronous policy reach the common accuracy target in no more simulated time
than the synchronous policy — and the gap grows with the federation size,
because larger uniform samples are more likely to contain a straggler.

The federation uses the tiny MoE preset so a 100-client round stays tractable;
cost accounting still charges full-scale (LLaMA-MoE) device costs.
"""


from common import FAST, print_header, print_table

from repro import (
    FMDFineTuner,
    MoETransformer,
    ParameterServer,
    Participant,
    ParticipantResources,
    RunConfig,
    tiny_moe,
)
from repro.data import Vocabulary, make_gsm8k_like, partition_dirichlet
from repro.models.presets import ARCHITECTURE_DESCRIPTORS
from repro.systems import CONSUMER_GPU, CostModel, MemoryModel

CLIENT_COUNTS = [20, 100] if FAST else [20, 50, 100]
ROUNDS = 2 if FAST else 4
PER_ROUND_CLIENTS = 10
SCHEDULER_CONFIGS = {
    "sync": {},
    "semisync": {"deadline_quantile": 0.7},
    "async": {"buffer_size": 5},
}


def _build_federation(num_clients, seed=0):
    vocab = Vocabulary(size=96, num_topics=4)
    config = tiny_moe(vocab_size=vocab.size)
    dataset = make_gsm8k_like(vocab=vocab, num_samples=max(4 * num_clients, 240), seed=seed)
    train, test = dataset.split(seed=seed)
    shards = partition_dirichlet(train, num_clients, alpha=0.5, seed=seed, min_samples=2)
    memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"])
    participants, cost_models = [], {}
    for i, shard in enumerate(shards):
        participants.append(Participant(
            i, train.subset(shard),
            resources=ParticipantResources(max_experts=8, max_tuning_experts=4),
            seed=seed + i))
        cost_models[i] = CostModel(CONSUMER_GPU, memory)
    return config, participants, test, cost_models


def _run_scheduler(scheduler, num_clients, seed=0):
    config, participants, test, cost_models = _build_federation(num_clients, seed=seed)
    run_config = RunConfig(
        batch_size=8, max_local_batches=1, learning_rate=1e-2,
        eval_max_samples=16, seed=seed,
        participants_per_round=PER_ROUND_CLIENTS,
        scheduler=scheduler,
        straggler_prob=0.1,
        **SCHEDULER_CONFIGS[scheduler],
    )
    server = ParameterServer(MoETransformer(config))
    tuner = FMDFineTuner(server, participants, test, cost_models=cost_models,
                         config=run_config)
    return tuner.run(num_rounds=ROUNDS)


def _measure():
    table = {}
    for num_clients in CLIENT_COUNTS:
        table[num_clients] = {}
        for scheduler in SCHEDULER_CONFIGS:
            result = _run_scheduler(scheduler, num_clients)
            best = result.tracker.best_metric()
            table[num_clients][scheduler] = {
                "result": result,
                "best_metric": best,
                "total_time": result.total_time,
            }
        # Common quality target: what every policy managed to reach.
        target = 0.95 * min(e["best_metric"] for e in table[num_clients].values())
        for entry in table[num_clients].values():
            entry["time_to_target"] = entry["result"].tracker.time_to_target(target)
    return table


def _print_and_check(table):
    print_header("Figure 21: sync vs semi-sync vs async time-to-target accuracy")
    rows = []
    for num_clients, per_scheduler in table.items():
        row = [num_clients]
        for scheduler in SCHEDULER_CONFIGS:
            entry = per_scheduler[scheduler]
            value = entry["time_to_target"]
            row.append(round(value, 1) if value is not None else f">{round(entry['total_time'], 1)}")
        rows.append(row)
    print_table(["clients"] + list(SCHEDULER_CONFIGS), rows, width=14)

    for num_clients, per_scheduler in table.items():
        sync_entry = per_scheduler["sync"]
        for scheduler in ("semisync", "async"):
            entry = per_scheduler[scheduler]
            assert entry["time_to_target"] is not None, (
                f"{scheduler} never reached the common target at {num_clients} clients")
            # Straggler-tolerant policies aggregate earlier in simulated time.
            assert entry["time_to_target"] <= sync_entry["total_time"] * 1.05, (
                f"{scheduler} slower than the whole sync run at {num_clients} clients")


def test_fig21_async_scalability(benchmark):
    table = benchmark.pedantic(_measure, rounds=1, iterations=1)
    _print_and_check(table)


def test_fig21_hundred_client_semisync_round():
    """Acceptance: a semi-synchronous round with all 100 clients end-to-end."""
    config, participants, test, cost_models = _build_federation(100, seed=1)
    run_config = RunConfig(
        batch_size=8, max_local_batches=1, eval_max_samples=16, seed=1,
        scheduler="semisync", deadline_quantile=0.8,
        straggler_prob=0.1,
    )
    server = ParameterServer(MoETransformer(config))
    tuner = FMDFineTuner(server, participants, test, cost_models=cost_models,
                         config=run_config)
    result = tuner.run(num_rounds=1)
    first = result.rounds[0]
    assert first.num_selected == 100
    assert 0 < first.num_aggregated <= 100
    assert first.num_stragglers > 0          # the 0.8-quantile deadline drops some
    assert first.round_duration > 0
    assert 0.0 <= first.metric_value <= 1.0
