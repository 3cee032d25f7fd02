"""CI service-smoke: run the fold plane through live aggregator servers.

Drives a short federated run over an aggregation-tree topology (participants
→ edge aggregators → root, 2 expert shards) with the whole fold plane behind
``aggregation_executor="service"`` — persistent :mod:`repro.service` servers
speaking the CRC-framed repro.comm protocol over TCP (one child process per
server) or an in-process socketpair.  The run's results must be bit-identical
to the same run folded serially in-process.

``--edge-tiers`` sets the aggregator-tier widths (default ``2``: one edge
tier).  ``--edge-tiers 2,2`` adds an *inner* tier, whose partial-of-partials
folds also route through the servers — the smoke then additionally requires
``repro_service_tier_folds_total`` counters for every tier, proving the
inner-tier routing actually happened over the wire.

``--kill-server`` additionally hard-kills one aggregator server (SIGKILL on
the child process) in the middle of a request of the final round: after the
header and half the frames of its first leaf fold job have been written.
The rest of the request meets a dead connection; the client reconnects —
respawning the server on a fresh port — and resends the whole request.
Combined with ``--edge-tiers 2,2`` the killed server also owns inner-tier
folds, so the respawned one serves a mid-tree fold next.  The smoke asserts
the run still completes, the results are still bit-identical to the serial
reference, and the respawn / reconnect / resent-request counters all fired.

Per-server logs land under ``<workdir>/logs`` (``--log-dir`` overrides); the
CI ``service-smoke`` job uploads them as an artifact when the smoke fails.
Exit status 0 on success, 1 on any mismatch::

    python scripts/service_smoke.py --kill-server --edge-tiers 2,2 \\
        --workdir service-smoke
"""

from __future__ import annotations

import argparse
import os
import shutil
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
from repro.federated.topology import tier_of_pseudo_id  # noqa: E402
from repro.obs import (  # noqa: E402
    JSONL_FILE,
    format_table,
    load_events,
    tier_table,
)
from repro.service import encode_message  # noqa: E402
from repro.service.protocol import OP_FOLD_NODE  # noqa: E402

NUM_ROUNDS = 3
NUM_SERVERS = 2
KILLED_SERVER = "server0"  # pool._server_name(0): the kill target

#: the base aggregation topology (participants → edge tiers → root, 2 shards);
#: the edge-tier widths come from ``--edge-tiers``
TOPOLOGY = dict(
    num_shards=2,
    participants_per_round=4,
)


def build_tuner(backend: str, transport: str, edge_tiers: tuple[int, ...],
                log_dir: str | None = None,
                trace_dir: str | None = None, kill_server: bool = False):
    vocab = Vocabulary(size=96, num_topics=4)
    config = tiny_moe(vocab_size=vocab.size)
    dataset = make_gsm8k_like(vocab=vocab, num_samples=160, seed=5)
    train, test = dataset.split(seed=5)
    shards = partition_dirichlet(train, 8, alpha=0.5, seed=5)
    participants = [
        Participant(pid, train.subset(shard),
                    resources=ParticipantResources(max_experts=8, max_tuning_experts=4),
                    seed=5 + pid)
        for pid, shard in enumerate(shards)
    ]
    run_config = RunConfig(
        batch_size=8, max_local_batches=1, eval_max_samples=16, seed=5,
        aggregation_executor=backend,
        aggregation_workers=NUM_SERVERS if backend != "serial" else None,
        service_transport=transport,
        service_log_dir=log_dir,
        telemetry=trace_dir is not None,
        telemetry_dir=trace_dir,
        edge_tiers=edge_tiers,
        **TOPOLOGY,
    )
    server = ParameterServer(MoETransformer(config))

    if not kill_server:
        return FMDFineTuner(server, participants, test, config=run_config)

    class KillsAServerMidRequest(FMDFineTuner):
        """Hard-kills one live aggregator server inside a last-round request."""

        def before_round(self, round_index, selected):
            rounds_seen = getattr(self, "_smoke_rounds_seen", 0) + 1
            self._smoke_rounds_seen = rounds_seen
            if rounds_seen == NUM_ROUNDS:
                arm_mid_request_kill(self._aggregation_pool, rounds_seen)
            super().before_round(round_index, selected)

    return KillsAServerMidRequest(server, participants, test, config=run_config)


def arm_mid_request_kill(pool, round_number: int) -> None:
    """SIGKILL server 0 after the header and half the frames of its next leaf job.

    The rest of the request is written to the dead connection, which fails
    either there or when the response is read; the client's resend is what
    has to heal it.
    """
    victim = pool._servers[0] if pool._servers else None
    if victim is None or not victim.alive:
        raise AssertionError("kill round reached but no live spawned server to kill "
                             "— the fold plane never started?")
    client = pool._clients[0]
    send = client._send_request

    def send_and_kill(stream, op, body, frames=()):
        if op != OP_FOLD_NODE or tier_of_pseudo_id(body["pseudo_id"]) != 0 or len(frames) < 2:
            return send(stream, op, body, frames)
        client._send_request = send  # one kill per run
        half = len(frames) // 2
        stream.send_frames([encode_message(op, body), *frames[:half]])
        victim.kill()
        print(f"    killed {KILLED_SERVER} (pid {victim.process.pid}) after "
              f"{half} of {len(frames)} frames of a leaf job in round "
              f"{round_number}/{NUM_ROUNDS}", flush=True)
        stream.send_frames(frames[half:])

    client._send_request = send_and_kill


def check_service_counters(registry, killed: bool,
                           edge_tiers: tuple[int, ...]) -> list[str]:
    """Assert the repro_service_* counters recorded the run (and the kill)."""
    failures = []
    folds = registry.counter_value("repro_service_folds_total", kind="shard")
    if not folds:
        failures.append("no repro_service_folds_total{kind=shard} recorded")
    # One tier-folds counter per aggregator tier: tier 0 is the leaf fan-in,
    # every deeper tier proves inner-tier partials routed through the servers.
    for tier in range(len(edge_tiers)):
        if not registry.counter_value("repro_service_tier_folds_total",
                                      tier=tier):
            failures.append(f"no repro_service_tier_folds_total{{tier={tier}}}"
                            " — inner-tier folds never reached the service?")
    for name in ("server0", "server1"):
        if not registry.counter_value("repro_service_bytes_sent_total", server=name):
            failures.append(f"no bytes sent to {name} — did it fold anything?")
    if not killed:
        return failures
    checks = (("repro_service_respawns_total", 1),
              ("repro_service_reconnects_total", 1),
              ("repro_service_retried_rounds_total", 1))
    for metric, want_at_least in checks:
        got = registry.counter_value(metric, server=KILLED_SERVER)
        if got < want_at_least:
            failures.append(f"{metric}{{server={KILLED_SERVER}}} = {got}, "
                            f"expected >= {want_at_least} after the hard kill")
    return failures


def check_server_logs(log_dir: str) -> list[str]:
    failures = []
    for index in range(NUM_SERVERS):
        log_path = os.path.join(log_dir, f"server{index}.log")
        if not (os.path.isfile(log_path) and os.path.getsize(log_path)):
            failures.append(f"server log {log_path} missing or empty")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="service-smoke",
                        help="server logs + telemetry land here "
                             "(uploaded as a CI artifact on failure)")
    parser.add_argument("--log-dir", default=None,
                        help="per-server log directory (default <workdir>/logs)")
    parser.add_argument("--transport", choices=["tcp", "socketpair"], default="tcp",
                        help="service transport (CI exercises tcp)")
    parser.add_argument("--edge-tiers", default="2",
                        help="comma-separated aggregator-tier widths; depth "
                             ">= 2 (e.g. '2,2') routes inner-tier folds "
                             "through the servers too")
    parser.add_argument("--kill-server", action="store_true",
                        help="hard-kill one aggregator server in the middle of "
                             "a final-round request and require the run to heal")
    args = parser.parse_args()

    if args.kill_server and args.transport != "tcp":
        parser.error("--kill-server needs --transport tcp (only spawned "
                     "server processes can be hard-killed and respawned)")
    try:
        edge_tiers = tuple(int(width) for width in args.edge_tiers.split(","))
    except ValueError:
        parser.error(f"--edge-tiers {args.edge_tiers!r} is not a "
                     "comma-separated list of widths")

    log_dir = args.log_dir or os.path.join(args.workdir, "logs")
    trace_dir = os.path.join(args.workdir, "trace")
    for path in (log_dir, trace_dir):
        if os.path.isdir(path):
            shutil.rmtree(path)  # stale logs/traces would mask a failure

    tiers_note = "x".join(str(width) for width in edge_tiers)
    print(f"[1/2] reference: serial fold plane, {NUM_ROUNDS} rounds, "
          f"edge tiers {tiers_note}", flush=True)
    reference_tuner = build_tuner("serial", args.transport, edge_tiers)
    reference = reference_tuner.run(num_rounds=NUM_ROUNDS)

    kill_note = (", hard-killing server0 mid-request in the last round"
                 if args.kill_server else "")
    print(f"[2/2] service: {NUM_SERVERS} {args.transport} aggregator "
          f"servers{kill_note}", flush=True)
    service_tuner = build_tuner("service", args.transport, edge_tiers,
                                log_dir=log_dir,
                                trace_dir=trace_dir, kill_server=args.kill_server)
    service = service_tuner.run(num_rounds=NUM_ROUNDS)

    failures = []
    if len(service.rounds) != NUM_ROUNDS:
        failures.append(f"service run completed {len(service.rounds)} rounds, "
                        f"expected {NUM_ROUNDS}")
    if service.tracker.as_series() != reference.tracker.as_series():
        failures.append("metric history differs from the serial reference")
    ref_state = reference_tuner.server.global_model.state_dict()
    svc_state = service_tuner.server.global_model.state_dict()
    for tensor_name in ref_state:
        if not np.array_equal(ref_state[tensor_name], svc_state[tensor_name]):
            failures.append(f"model parameter {tensor_name} differs")

    failures += check_service_counters(service_tuner.telemetry.registry,
                                       killed=args.kill_server,
                                       edge_tiers=edge_tiers)
    if args.transport == "tcp":
        failures += check_server_logs(log_dir)

    events = load_events(os.path.join(trace_dir, JSONL_FILE))
    service_folds = [event for event in events
                     if event.get("type") == "span"
                     and event.get("attrs", {}).get("transport") == "service"]
    if not service_folds:
        failures.append("trace has no service-tagged fold spans")

    headers, rows = tier_table(events)
    print("== Per-tier backhaul (service run) ==")
    print(format_table(headers, rows))

    if failures:
        print("FAIL: service run does not check out:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"PASS: service fold plane matches the serial reference bit-for-bit "
          f"({NUM_ROUNDS} rounds, final metric {service.final_metric():.3f}"
          f"{', healed after hard kill' if args.kill_server else ''})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
