"""Asynchronous and semi-synchronous federation with the event-driven runtime.

The synchronous FedAvg round is gated by its slowest participant: one
straggling device stalls everyone.  This example runs the same federation —
heterogeneous devices, 10% stragglers at 4x slowdown, 5% dropouts — under the
three aggregation policies of :mod:`repro.runtime`:

* ``sync``      — the paper's synchronous loop (slowest participant gates);
* ``semisync``  — aggregate whoever finished by the round deadline
                  (the 70%-duration quantile here), drop stragglers;
* ``async``     — FedBuff-style buffered aggregation: clients train
                  continuously, updates are weighted by
                  ``(1 + staleness) ** -0.5``, the server aggregates every
                  ``buffer_size`` arrivals.

and prints simulated time-to-accuracy for each, plus the per-round staleness
the asynchronous run observed.

Run with:  python examples/async_federation.py
"""

from __future__ import annotations

from repro import (
    FMDFineTuner,
    MoETransformer,
    ParameterServer,
    Participant,
    ParticipantResources,
    RunConfig,
    Vocabulary,
    make_gsm8k_like,
    partition_dirichlet,
    tiny_moe,
)
from repro.models.presets import ARCHITECTURE_DESCRIPTORS
from repro.systems import CostModel, MemoryModel, heterogeneous_fleet


def build_federation(num_clients: int = 12, seed: int = 0):
    vocab = Vocabulary(size=96, num_topics=4)
    config = tiny_moe(vocab_size=vocab.size)
    dataset = make_gsm8k_like(vocab=vocab, num_samples=240, seed=seed)
    train, test = dataset.split(seed=seed)
    shards = partition_dirichlet(train, num_clients, alpha=0.5, seed=seed)
    devices = heterogeneous_fleet(num_clients, seed=seed, spread=0.5)
    memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"])
    participants, cost_models = [], {}
    for pid, (shard, device) in enumerate(zip(shards, devices)):
        participants.append(Participant(
            pid, train.subset(shard), device=device,
            resources=ParticipantResources(max_experts=8, max_tuning_experts=4),
            seed=seed + pid))
        cost_models[pid] = CostModel(device, memory)
    return config, participants, test, cost_models


def run_policy(scheduler: str, num_rounds: int = 6, seed: int = 0, **runtime_knobs):
    config, participants, test, cost_models = build_federation(seed=seed)
    run_config = RunConfig(
        batch_size=8, max_local_batches=1, learning_rate=1e-2,
        eval_max_samples=24, seed=seed,
        participants_per_round=6,
        scheduler=scheduler,
        straggler_prob=0.10, dropout_prob=0.05,
        **runtime_knobs,
    )
    server = ParameterServer(MoETransformer(config))
    tuner = FMDFineTuner(server, participants, test, cost_models=cost_models,
                         config=run_config)
    return tuner.run(num_rounds=num_rounds)


def main() -> None:
    runs = {
        "sync": run_policy("sync"),
        "semisync": run_policy("semisync", deadline_quantile=0.7),
        "async": run_policy("async", buffer_size=4),
    }

    # Common quality target: 95% of the weakest policy's best metric.
    target = 0.95 * min(r.tracker.best_metric() for r in runs.values())
    print(f"{'policy':>10} {'rounds':>7} {'total sim time':>15} "
          f"{'time to target':>15} {'best metric':>12}")
    for name, result in runs.items():
        reached = result.tracker.time_to_target(target)
        reached_text = f"{reached:.1f}s" if reached is not None else "never"
        print(f"{name:>10} {len(result.rounds):>7} {result.total_time:>14.1f}s "
              f"{reached_text:>15} {result.tracker.best_metric():>12.3f}")

    print("\nsemi-sync straggler handling (per round):")
    for round_result in runs["semisync"].rounds:
        print(f"  round {round_result.round_index}: "
              f"{round_result.num_aggregated}/{round_result.num_selected} aggregated, "
              f"{round_result.num_stragglers} dropped at the deadline, "
              f"duration {round_result.round_duration:.1f}s")

    print("\nasync staleness (per aggregation):")
    for round_result in runs["async"].rounds:
        print(f"  aggregation {round_result.round_index}: "
              f"{round_result.num_aggregated} buffered updates, "
              f"mean staleness {round_result.mean_staleness:.2f} versions, "
              f"at simulated t={round_result.simulated_time:.1f}s")


if __name__ == "__main__":
    main()
