"""Federated instruction tuning scenario (Dolly-like workload).

This example mirrors the paper's motivating deployment: organisations hold
private instruction-following data (here the Dolly-like generation task), their
GPUs cannot fit all experts for fine-tuning, and they collaborate through a
parameter server.  It runs Flux end to end, prints the ROUGE-L trajectory, and
shows the per-phase time breakdown of a round (profiling / merging /
assignment / training / communication) that the paper's overhead analysis
reports.

Run with:  python examples/federated_instruction_tuning.py
"""

from __future__ import annotations

from repro import (
    FluxConfig,
    FluxFineTuner,
    MoETransformer,
    ParameterServer,
    Participant,
    ParticipantResources,
    RunConfig,
    Vocabulary,
    llama_moe_mini,
    make_dolly_like,
    partition_dirichlet,
)
from repro.core import EpsilonSchedule
from repro.metrics import evaluate_model
from repro.models.presets import ARCHITECTURE_DESCRIPTORS
from repro.systems import CONSUMER_GPU, CostModel, MemoryModel


def main() -> None:
    vocab = Vocabulary(size=256, num_topics=8)
    config = llama_moe_mini(vocab_size=vocab.size)

    dataset = make_dolly_like(vocab=vocab, num_samples=500, seed=3)
    train, test = dataset.split(seed=3)
    num_clients = 6
    shards = partition_dirichlet(train, num_clients, alpha=0.5, seed=3)

    memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"])
    participants, cost_models = [], {}
    for pid, shard in enumerate(shards):
        participants.append(Participant(
            pid, train.subset(shard),
            resources=ParticipantResources(max_experts=12, max_tuning_experts=6),
            seed=pid))
        cost_models[pid] = CostModel(CONSUMER_GPU, memory)

    server = ParameterServer(MoETransformer(config))
    initial_rouge = evaluate_model(server.global_model, test, max_samples=60)
    print(f"ROUGE-L of the pre-trained (untuned) global model: {initial_rouge:.3f}")

    tuner = FluxFineTuner(
        server, participants, test,
        cost_models=cost_models,
        config=RunConfig(batch_size=16, max_local_batches=3, learning_rate=1e-2,
                         eval_max_samples=60),
        flux_config=FluxConfig(
            profiling_bits=4,
            stale_profiling=True,
            epsilon=EpsilonSchedule(initial=0.5, final=0.95, warmup_rounds=5)),
    )
    result = tuner.run(num_rounds=8)

    print("\nROUGE-L over federated rounds:")
    for entry in result.rounds:
        bar = "#" * int(entry.metric_value * 40)
        print(f"  round {entry.round_index}: {entry.metric_value:.3f} "
              f"({entry.simulated_time:7.1f}s simulated) {bar}")

    print("\nwhere the time goes (totals across the run):")
    totals = result.phase_totals()
    overall = sum(totals.values()) or 1.0
    for phase, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {phase:>14}: {seconds:8.1f}s ({seconds / overall * 100:5.1f}%)")

    final_rouge = result.tracker.final_metric()
    print(f"\nROUGE-L improved from {initial_rouge:.3f} to {final_rouge:.3f} "
          f"in {result.total_time:.1f} simulated seconds")


if __name__ == "__main__":
    main()
