"""Quickstart: federated fine-tuning of a mini MoE LLM with Flux.

Builds a small federation (non-IID GSM8K-like data across 4 participants with
constrained expert budgets), runs a few Flux rounds, and prints the
round-by-round metric together with the simulated wall-clock time.

Run with:  python examples/quickstart.py
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
    make_gsm8k_like,
    partition_dirichlet,
)
from repro.models.presets import ARCHITECTURE_DESCRIPTORS
from repro.systems import CONSUMER_GPU, CostModel, MemoryModel


def main() -> None:
    # 1. Model: a scaled-down LLaMA-MoE-like transformer (4 MoE layers x 8 experts).
    vocab = Vocabulary(size=256, num_topics=8)
    config = llama_moe_mini(vocab_size=vocab.size)
    server = ParameterServer(MoETransformer(config))

    # 2. Data: synthetic GSM8K-like problems, split and partitioned non-IID.
    dataset = make_gsm8k_like(vocab=vocab, num_samples=400, seed=0)
    train, test = dataset.split(seed=0)
    shards = partition_dirichlet(train, num_clients=4, alpha=0.5, seed=0)

    # 3. Participants: consumer-GPU devices that can hold 12 experts and tune 6.
    memory = MemoryModel(ARCHITECTURE_DESCRIPTORS["llama-moe"])
    participants = []
    cost_models = {}
    for pid, shard in enumerate(shards):
        participants.append(Participant(
            pid, train.subset(shard),
            resources=ParticipantResources(max_experts=12, max_tuning_experts=6),
            seed=pid,
        ))
        cost_models[pid] = CostModel(CONSUMER_GPU, memory)

    # 4. Flux fine-tuner: quantized stale profiling, adaptive merging, dynamic roles.
    tuner = FluxFineTuner(
        server, participants, test,
        cost_models=cost_models,
        config=RunConfig(batch_size=16, max_local_batches=3, learning_rate=1e-2,
                         eval_max_samples=60),
        flux_config=FluxConfig(profiling_bits=4, stale_profiling=True),
    )
    result = tuner.run(num_rounds=6)

    # 5. Inspect the outcome.
    print(f"method: {result.method}")
    print(f"{'round':>6} {'sim time (s)':>14} {'accuracy':>10} {'rel. accuracy':>14}")
    for row in result.tracker.as_series():
        print(f"{row['round']:>6} {row['time_s']:>14.1f} "
              f"{row['metric']:>10.3f} {row['relative_accuracy']:>14.3f}")
    reached = result.tracker.time_to_target()
    if reached is not None:
        print(f"target reached after {reached:.1f} simulated seconds")
    else:
        print("target not reached yet - increase num_rounds for full convergence")


if __name__ == "__main__":
    main()
