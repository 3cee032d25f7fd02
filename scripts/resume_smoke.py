"""CI resume-smoke: kill a federated run mid-flight, resume it, assert equality.

For every configuration in the matrix, three phases:

1. **reference** — an uninterrupted ``NUM_ROUNDS``-round run (in-process).
2. **kill** — the same run re-launched as a *subprocess* with checkpointing
   enabled; the child hard-exits via ``os._exit`` (no cleanup, no atexit —
   the closest a Python process gets to SIGKILL) at the start of round
   ``KILL_AT_ROUND``.  Only the on-disk snapshot survives.
3. **resume** — a fresh tuner resumes from the latest surviving snapshot and
   finishes the run; its :class:`~repro.federated.RunResult` and final model
   parameters must match the reference *exactly*.

Matrix:

* ``sharded-edges`` — 2 expert shards, one edge tier, trimmed mean (the
  historical smoke).
* ``service-tree`` — 3-tier aggregation tree (participants → 2 edges →
  2 super-edges → root), 2 shards, and the whole fold plane behind in-process
  (``socketpair``) aggregator servers — the kill lands while a fold backend is
  live, so resume also proves no server state is (or needs to be) durable.
* ``delta-chain`` — snapshots every round as a sparse-delta chain
  (``checkpoint_delta_every=4``: full at round 1, deltas after) written by
  the background checkpoint writer (``checkpoint_async=True``); the hard
  kill races the in-flight write, so resume must come back bit-identically
  from whichever complete snapshot survived — the delta tip or its base.

Exit status 0 on success, 1 on any mismatch.  Used by the nightly CI job,
which also uploads the surviving checkpoint directories as an artifact::

    python scripts/resume_smoke.py --workdir resume-smoke
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(REPO_ROOT, "src")):
    sys.path.append(os.path.join(REPO_ROOT, "src"))

import numpy as np  # noqa: E402

from repro import (  # noqa: E402
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
from repro.runtime import latest_checkpoint  # noqa: E402

NUM_ROUNDS = 4
CHECKPOINT_EVERY = 2
KILL_AT_ROUND = 3  # after the round-2 snapshot, before the run completes

#: the hard-kill/resume matrix: config-name -> RunConfig overrides
#: (``checkpoint_every`` here overrides the matrix-wide default cadence)
CONFIGS = {
    "sharded-edges": dict(
        num_shards=2, edge_tiers=(2,),
        aggregation="trimmed_mean", trim_ratio=0.2,
    ),
    "service-tree": dict(
        num_shards=2, edge_tiers=(2, 2),
        aggregation="trimmed_mean", trim_ratio=0.2,
        aggregation_executor="service", aggregation_workers=2,
        service_transport="socketpair",
    ),
    "delta-chain": dict(
        num_shards=2, edge_tiers=(2,),
        aggregation="trimmed_mean", trim_ratio=0.2,
        checkpoint_every=1, checkpoint_delta_every=4, checkpoint_async=True,
    ),
}


#: ``--backend service``: the whole matrix re-runs with the fold plane behind
#: live :mod:`repro.service` aggregator servers (TCP child processes), so the
#: hard kill orphans half-folded server-side round state and the resume must
#: come back bit-identically through *fresh* servers (the nightly lane)
SERVICE_OVERRIDES = dict(
    aggregation_executor="service", aggregation_workers=2,
    service_transport="tcp",
)


def build_tuner(name: str, checkpoint_dir: str | None = None,
                kill_at: int | None = None, trace_dir: str | None = None,
                backend: str = "config"):
    vocab = Vocabulary(size=96, num_topics=4)
    config = tiny_moe(vocab_size=vocab.size)
    dataset = make_gsm8k_like(vocab=vocab, num_samples=160, seed=3)
    train, test = dataset.split(seed=3)
    shards = partition_dirichlet(train, 8, alpha=0.5, seed=3)
    participants = [
        Participant(pid, train.subset(shard),
                    resources=ParticipantResources(max_experts=8, max_tuning_experts=4),
                    seed=3 + pid)
        for pid, shard in enumerate(shards)
    ]
    overrides = dict(CONFIGS[name])
    if backend == "service":
        overrides.update(SERVICE_OVERRIDES)
    checkpoint_every = overrides.pop("checkpoint_every", CHECKPOINT_EVERY)
    run_config = RunConfig(
        batch_size=8, max_local_batches=1, eval_max_samples=16, seed=3,
        participants_per_round=4,
        checkpoint_every=checkpoint_every if checkpoint_dir else 0,
        checkpoint_dir=checkpoint_dir,
        telemetry=trace_dir is not None,
        telemetry_dir=trace_dir,
        **overrides,
    )
    server = ParameterServer(MoETransformer(config))

    if kill_at is None:
        return FMDFineTuner(server, participants, test, config=run_config)

    class KilledMidFlight(FMDFineTuner):
        def before_round(self, round_index, selected):
            if round_index == kill_at:
                # Bypass every Python-level cleanup path, like a SIGKILL or
                # OOM would: the only state that survives is what the
                # checkpointer already put on disk.
                os._exit(137)
            super().before_round(round_index, selected)

    return KilledMidFlight(server, participants, test, config=run_config)


def check_round_spans(trace_dir: str, num_rounds: int) -> list[str]:
    """Assert the resumed trace holds exactly one round span per round.

    The killed child wrote spans for every round it completed; the resume
    prunes the re-executed rounds' events before appending its own.  A
    duplicated (or missing) round index means that prune/append contract
    broke.
    """
    from repro.obs import JSONL_FILE, load_events

    events = load_events(os.path.join(trace_dir, JSONL_FILE))
    rounds = sorted(event["round"] for event in events
                    if event.get("type") == "span" and event.get("cat") == "round")
    failures = []
    if rounds != list(range(num_rounds)):
        failures.append(
            f"round spans after resume: expected exactly one per round "
            f"0..{num_rounds - 1}, got {rounds}")
    run_spans = sum(1 for event in events
                    if event.get("type") == "span" and event.get("cat") == "run")
    if run_spans != 1:
        failures.append(f"expected exactly 1 run span after resume "
                        f"(the child's never completes), got {run_spans}")
    return failures


def run_config_smoke(name: str, workdir: str,
                     trace_root: str | None = None,
                     backend: str = "config") -> list[str]:
    """Kill+resume one matrix configuration; return a list of failures."""
    checkpoint_dir = os.path.join(workdir, name, "checkpoints")
    if os.path.isdir(checkpoint_dir):
        # A stale checkpoint from a previous invocation would let the resume
        # phase restore a *completed* run (zero rounds executed) and print a
        # vacuous PASS — every run must start from an empty snapshot dir.
        shutil.rmtree(checkpoint_dir)
    trace_dir = os.path.join(trace_root, name) if trace_root else None
    if trace_dir and os.path.isdir(trace_dir):
        shutil.rmtree(trace_dir)  # same staleness hazard as checkpoints

    tag = f"{name} ({backend} backend)" if backend != "config" else name
    print(f"=== {tag} ===", flush=True)
    print(f"[1/3] reference: uninterrupted {NUM_ROUNDS}-round run", flush=True)
    reference_tuner = build_tuner(name, backend=backend)
    reference = reference_tuner.run(num_rounds=NUM_ROUNDS)

    cadence = CONFIGS[name].get("checkpoint_every", CHECKPOINT_EVERY)
    print(f"[2/3] kill: subprocess dies mid round {KILL_AT_ROUND} "
          f"(snapshots every {cadence} round(s))", flush=True)
    child_argv = [sys.executable, os.path.abspath(__file__),
                  "--workdir", workdir, "--phase", "killed-child",
                  "--config", name, "--backend", backend]
    if trace_root:
        child_argv += ["--trace-dir", trace_root]
    child = subprocess.run(child_argv, cwd=REPO_ROOT)
    if child.returncode != 137:
        return [f"expected the child to die with os._exit(137), "
                f"got {child.returncode}"]

    snapshot = latest_checkpoint(checkpoint_dir)
    if snapshot is None:
        return [f"no surviving checkpoint under {checkpoint_dir}"]
    print(f"[3/3] resume: from {os.path.basename(snapshot)} "
          f"to round {NUM_ROUNDS}", flush=True)
    resumed_tuner = build_tuner(name, checkpoint_dir, trace_dir=trace_dir,
                                backend=backend)
    resumed = resumed_tuner.run(num_rounds=NUM_ROUNDS, resume_from=snapshot)

    failures = []
    if trace_dir:
        failures += check_round_spans(trace_dir, NUM_ROUNDS)
    if resumed.tracker.as_series() != reference.tracker.as_series():
        failures.append("metric history differs")
    if len(resumed.rounds) != len(reference.rounds):
        failures.append("round counts differ")
    for got, want in zip(resumed.rounds, reference.rounds):
        for field_name in ("train_loss", "metric_value", "simulated_time",
                           "round_duration", "num_aggregated", "edge_bytes",
                           "tier_bytes"):
            if getattr(got, field_name) != getattr(want, field_name):
                failures.append(
                    f"round {want.round_index}: {field_name} "
                    f"{getattr(got, field_name)!r} != {getattr(want, field_name)!r}")
    ref_state = reference_tuner.server.global_model.state_dict()
    res_state = resumed_tuner.server.global_model.state_dict()
    for tensor_name in ref_state:
        if not np.array_equal(ref_state[tensor_name], res_state[tensor_name]):
            failures.append(f"model parameter {tensor_name} differs")
    if not failures:
        print(f"PASS [{tag}]: killed-then-resumed run is identical to the "
              f"uninterrupted reference ({len(resumed.rounds)} rounds, "
              f"final metric {resumed.final_metric():.3f})")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="resume-smoke",
                        help="directory for checkpoints (uploaded as a CI artifact)")
    parser.add_argument("--config", choices=sorted(CONFIGS), default=None,
                        help="run a single matrix configuration (default: all)")
    parser.add_argument("--backend", choices=["config", "service"], default="config",
                        help="'service' forces the fold plane of every matrix "
                             "configuration behind live TCP aggregator servers "
                             "(the nightly service-resume lane)")
    parser.add_argument("--trace-dir", default=None,
                        help="record repro.obs telemetry for the killed+resumed "
                             "runs under this directory (one subdir per "
                             "config) and assert the resumed trace has no "
                             "duplicated round spans")
    parser.add_argument("--phase", choices=["main", "killed-child"], default="main",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.phase == "killed-child":
        checkpoint_dir = os.path.join(args.workdir, args.config, "checkpoints")
        trace_dir = (os.path.join(args.trace_dir, args.config)
                     if args.trace_dir else None)
        build_tuner(args.config, checkpoint_dir, kill_at=KILL_AT_ROUND,
                    trace_dir=trace_dir, backend=args.backend).run(num_rounds=NUM_ROUNDS)
        print("child: run completed without dying?!", flush=True)
        return 1  # the kill switch must have fired before this point

    all_failures = {}
    for name in ([args.config] if args.config else sorted(CONFIGS)):
        failures = run_config_smoke(name, args.workdir, args.trace_dir,
                                    backend=args.backend)
        if failures:
            all_failures[name] = failures
    if all_failures:
        print("FAIL: resumed run(s) do not match the uninterrupted reference:")
        for name, failures in all_failures.items():
            for failure in failures:
                print(f"  - [{name}] {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
