"""Sharded, hierarchical, resumable federation — the full topology stack.

This example runs the same federated fine-tuning job two production knobs
away from the flat defaults:

* **4 expert shards** (:class:`~repro.federated.ShardedParameterServer`): the
  server's ``ExpertKey`` space is partitioned round-robin, each shard folding
  its own streaming aggregator — bit-identical parameters, sharded state.
* **2-tier aggregation** (``edge_tiers=(3,)``): participants upload to
  edge aggregators, which pre-fold their group's updates and forward one
  wire-framed partial aggregate per expert over a metered edge→root channel.
  The per-round backhaul traffic surfaces as ``RoundResult.edge_bytes``.
  Because every participant has a cost model, the participant→edge assignment
  is **cost-aware** by default: a greedy bin-pack on upload cost balances the
  per-edge upload makespan instead of ``pid % num_edges``.

Every fold — edge, super-edge and shard — is weighted FedAvg, so the tree's
weighted mean of weighted means is the flat weighted mean up to rounding.

It then scales the topology to a **3-tier parallel tree**
(``edge_tiers=(3, 2)``: participants → 3 edges → 2 super-edges → root) with
the whole fold plane behind the aggregation service
(``aggregation_executor="service"``): expert shards and tree nodes fold as
jobs on long-lived aggregator servers — bit-identical to the serial
fold, with per-tier backhaul metrics in ``RoundResult.tier_bytes``.

On top of that the run is **durable**: every 2 rounds the full run state
(model, metrics, RNG streams, per-tier channel positions, scheduler position)
is checkpointed — with ``checkpoint_keep_last=2`` pruning older snapshots —
the run is "killed" halfway, resumed from the latest snapshot, and the
resumed result is verified to match an uninterrupted reference run exactly.

With ``--trace-dir DIR`` the 3-tier parallel run also records full telemetry
(:mod:`repro.obs`): a JSONL span/metrics event log, a Chrome trace you can
open in Perfetto (ui.perfetto.dev), and a Prometheus text snapshot — then
prints the per-round breakdown table (``scripts/run_report.py`` renders the
rest).

Run with:  python examples/hierarchical_federation.py [--trace-dir traces/]
"""

from __future__ import annotations

import argparse
import os
import tempfile

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
from repro.runtime import latest_checkpoint
from repro.systems import CostModel, MemoryModel, heterogeneous_fleet

NUM_ROUNDS = 4
CHECKPOINT_EVERY = 2


def build_tuner(run_config: RunConfig, num_clients: int = 12, seed: int = 0):
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
    server = ParameterServer(MoETransformer(config))
    return FMDFineTuner(server, participants, test, cost_models=cost_models,
                        config=run_config)


def topology_config(checkpoint_dir: str | None = None, **overrides) -> RunConfig:
    knobs = dict(
        batch_size=8, max_local_batches=1, learning_rate=1e-2,
        eval_max_samples=24, seed=0, participants_per_round=6,
        # --- the aggregation topology ---
        num_shards=4,
        edge_tiers=(3,),
        edge_latency_s=0.01,
        # --- durability ---
        checkpoint_every=CHECKPOINT_EVERY if checkpoint_dir else 0,
        checkpoint_dir=checkpoint_dir,
        checkpoint_keep_last=2,
    )
    knobs.update(overrides)
    return RunConfig(**knobs)


def three_tier_parallel_config(checkpoint_dir: str | None = None,
                               trace_dir: str | None = None) -> RunConfig:
    """The 3-tier tree with the fold plane behind the aggregation service."""
    return topology_config(
        checkpoint_dir,
        edge_tiers=(3, 2),                 # participants -> 3 edges -> 2 super-edges -> root
        aggregation_executor="service",    # shard folds + tree-node pre-folds on servers
        aggregation_workers=2,
        service_transport="socketpair",    # in-process servers: no network setup
        telemetry=trace_dir is not None,
        telemetry_dir=trace_dir,
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=None,
                        help="record repro.obs telemetry for the 3-tier "
                             "parallel run into this directory")
    args = parser.parse_args(argv)

    print(f"reference: uninterrupted {NUM_ROUNDS}-round run "
          "(4 shards, 3 edges, FedAvg)")
    reference_tuner = build_tuner(topology_config())
    reference = reference_tuner.run(num_rounds=NUM_ROUNDS)

    print(f"{'round':>6} {'metric':>8} {'loss':>8} {'edge KiB':>9} {'edge s':>7}")
    for r in reference.rounds:
        print(f"{r.round_index:>6} {r.metric_value:>8.3f} {r.train_loss:>8.3f} "
              f"{r.edge_bytes / 1024:>9.1f} {r.edge_seconds:>7.2f}")

    sharded = reference_tuner.server
    print(f"\nshard load (updates folded in the last round): "
          f"{sharded.last_shard_contributions}")
    print(f"edge tier (client updates folded per edge, last round): "
          f"{reference_tuner.topology.last_edge_counts}")
    print(f"edge grouping: {reference_tuner.topology.grouping.name} "
          "(greedy bin-pack on each participant's upload cost)")

    print("\n3-tier parallel tree: participants -> 3 edges -> 2 super-edges "
          "-> 4 shards, folds on aggregator servers"
          + (" (telemetry on)" if args.trace_dir else ""))
    parallel_tuner = build_tuner(three_tier_parallel_config(
        trace_dir=args.trace_dir))
    parallel = parallel_tuner.run(num_rounds=2)
    print(f"topology: {parallel_tuner.topology.describe()}")
    for r in parallel.rounds:
        per_tier = ", ".join(
            f"tier{k}: {bytes_ / 1024:.1f} KiB / {payloads} partials"
            for k, (bytes_, payloads) in enumerate(zip(r.tier_bytes,
                                                       r.tier_payloads)))
        print(f"  round {r.round_index}: {per_tier}")

    if args.trace_dir:
        from repro.obs import JSONL_FILE, format_table, load_events, round_table

        events = load_events(os.path.join(args.trace_dir, JSONL_FILE))
        print(f"\ntelemetry written to {args.trace_dir}/ "
              "(trace.jsonl, trace_chrome.json for Perfetto, metrics.prom)")
        headers, rows = round_table(events)
        print(format_table(headers, rows))

    with tempfile.TemporaryDirectory(prefix="hier-fed-ckpt-") as workdir:
        checkpoint_dir = os.path.join(workdir, "checkpoints")
        print(f"\ndurable run: checkpoint every {CHECKPOINT_EVERY} rounds "
              f"(keeping the newest 2), 'killed' after round {CHECKPOINT_EVERY}")
        killed = build_tuner(topology_config(checkpoint_dir))
        killed.run(num_rounds=CHECKPOINT_EVERY)  # the coordinator dies here

        snapshot = latest_checkpoint(checkpoint_dir)
        print(f"resuming from {os.path.basename(snapshot)} "
              f"to round {NUM_ROUNDS}")
        resumed_tuner = build_tuner(topology_config(checkpoint_dir))
        resumed = resumed_tuner.run(num_rounds=NUM_ROUNDS, resume_from=snapshot)

    matches = resumed.tracker.as_series() == reference.tracker.as_series()
    print(f"\nresumed run == uninterrupted run: {matches}")
    if not matches:
        raise SystemExit("resume mismatch — this should never happen")
    print(f"final metric {resumed.final_metric():.3f} after "
          f"{len(resumed.rounds)} rounds, "
          f"total simulated time {resumed.total_time:.1f}s")


if __name__ == "__main__":
    main()
