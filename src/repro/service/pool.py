"""The ``aggregation_executor="service"`` fold plane: a pool of live servers.

:class:`ServiceAggregationPool` is the fold executor the dispatcher in
:mod:`repro.service.fold` hands a tier's or a root's framed jobs to —
``fold_shards`` / ``prefold_nodes`` / ``last_span_records`` / ``close`` —
when ``RunConfig(aggregation_executor="service")`` routes every fold through
long-lived :class:`~repro.service.server.AggregatorServer`'s.

Topology: one client connection per server, shard/node ``k`` pinned to
server ``k % num_servers`` (stable across rounds, so a shard's folds always
land on the same persistent server).  Jobs to distinct out-of-process servers
are dispatched concurrently from a thread pool, and jobs sharing a server
serialize on its connection lock.  In-process (``"socketpair"``) servers share
the caller's interpreter lock, so their jobs run one after another on the
calling thread: two server threads folding at once gain no parallelism and
hand the lock over at every NumPy call that releases it, one cross-thread
wake-up per hand-over, which ties the fold's wall time to the host's wake-up
latency.

Payload: a job is its updates' wire frames plus the references dict their
delta frames decode against (``{}`` when none do) — see
:mod:`repro.service.fold`, the one module both ends share — and travels as
exactly one request (see
:mod:`repro.service.client`): a fold call of N jobs is N requests.

Failure handling: each client resends a job's request with backoff (see
:mod:`repro.service.client`); for *spawned* servers the dial factory first
respawns a dead process on a fresh port, so a server hard-killed mid-request
heals transparently — the request is resent to the replacement and the run
completes (the CI ``service-smoke`` lane kills one mid-request to enforce
exactly this).  Servers keep nothing between requests, so a resumed run needs
no server-side cleanup either.  ``close()`` is the graceful drain: every
server gets an ack'd ``OP_SHUTDOWN``, spawned processes are joined, and the
pool lazily restarts for a next run.

Transports: ``"tcp"`` spawns one child process per server on an ephemeral
``127.0.0.1`` port (or, with ``addresses=[(host, port), ...]``, dials
externally managed servers and never spawns or shuts down anything);
``"socketpair"`` runs each server in this process, one thread per
``socket.socketpair()`` connection — the same protocol end-to-end with zero
network setup, for in-host tests and constrained sandboxes.

Observability: with telemetry bound (the orchestrator calls
:meth:`bind_telemetry`), every fold call drains the per-server transport
counters into ``repro_service_*`` metrics — including per-codec
``repro_service_frame_bytes_total``, per-tier
``repro_service_tier_folds_total`` and ``repro_service_reference_bytes_total``
payload counters — and server-measured fold span records land in
:attr:`last_span_records` for the caller's tracer to ingest.
"""

from __future__ import annotations

import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ..comm.serialization import frame_codec_name
from ..comm.stream import FrameStream
from ..federated.topology import tier_of_pseudo_id
from .client import ServiceClient
from .server import InProcessServer, ServerProcess, spawn_server

#: spawned-server default when ``aggregation_workers`` is unset: enough for
#: the benched shard counts, without forking a server per core on big hosts
_DEFAULT_NUM_SERVERS = 4

TRANSPORTS = ("tcp", "socketpair")


class ServiceAggregationPool:
    """Service-backed fold plane (see module docstring)."""

    def __init__(self, num_servers: Optional[int] = None, *,
                 transport: str = "tcp",
                 addresses: Optional[Sequence[Tuple[str, int]]] = None,
                 retry_attempts: int = 3, retry_delay_s: float = 0.05,
                 timeout_s: float = 30.0,
                 log_dir: Optional[str] = None) -> None:
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown service transport {transport!r} "
                             f"(expected one of {', '.join(TRANSPORTS)})")
        if addresses is not None:
            if transport != "tcp":
                raise ValueError("explicit addresses require transport='tcp'")
            if not addresses:
                raise ValueError("addresses must name at least one server")
            if num_servers is not None and num_servers != len(addresses):
                raise ValueError(
                    f"num_servers={num_servers} disagrees with "
                    f"{len(addresses)} explicit address(es)")
            num_servers = len(addresses)
        if num_servers is not None and num_servers < 1:
            raise ValueError("num_servers must be positive")
        self.transport = transport
        self.addresses = [tuple(address) for address in addresses] if addresses else None
        self.num_servers = num_servers or min(
            _DEFAULT_NUM_SERVERS, os.cpu_count() or 1)
        self.retry_attempts = int(retry_attempts)
        self.retry_delay_s = float(retry_delay_s)
        self.timeout_s = float(timeout_s)
        self.log_dir = log_dir
        #: server-measured fold span records of the most recent ``timed=True``
        #: call (cleared per call), for the caller's tracer to ingest
        self.last_span_records: List[dict] = []
        self._servers: List[object] = []     # ServerProcess | InProcessServer | None
        self._clients: List[ServiceClient] = []
        self._locks: List[threading.Lock] = []
        self._dispatch: Optional[ThreadPoolExecutor] = None
        self._registry = None
        self._published: List[Dict[str, int]] = []
        self._respawns: List[int] = []

    # -------------------------------------------------------------- lifecycle
    def bind_telemetry(self, telemetry) -> None:
        """Adopt the run's metrics registry (``None``-registry telemetry is off)."""
        self._registry = telemetry.registry

    def _server_name(self, index: int) -> str:
        return f"server{index}"

    def _dial_tcp(self, host: str, port: int) -> FrameStream:
        sock = socket.create_connection((host, port), timeout=self.timeout_s)
        # Without NODELAY, Nagle holds a request's sub-MSS tail segment until
        # the segments before it are acknowledged, and the server answers
        # nothing before the tail.  (The server sets it on what it accepts.)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return FrameStream(sock)

    def _connect_factory(self, index: int):
        """The per-server dial callable handed to its :class:`ServiceClient`.

        Called on every (re)connect, so for spawned servers it is also the
        supervisor: a dead server process is respawned on a fresh port before
        dialing, which — combined with the client resending the request — is
        what lets a run survive a hard-killed aggregator.
        """
        if self.addresses is not None:
            host, port = self.addresses[index]
            return lambda: self._dial_tcp(host, port)
        if self.transport == "socketpair":
            return lambda: FrameStream(self._servers[index].connect())

        def dial() -> FrameStream:
            server = self._servers[index]
            if not server.alive:
                server.join(timeout=1.0)
                self._servers[index] = spawn_server(
                    name=self._server_name(index), log_dir=self.log_dir)
                self._respawns[index] += 1
            return self._dial_tcp(*self._servers[index].address)

        return dial

    def _ensure_started(self) -> None:
        if self._clients:
            return
        self.last_span_records = []
        if self.addresses is not None:
            self._servers = [None] * self.num_servers
        elif self.transport == "socketpair":
            self._servers = [
                InProcessServer(name=self._server_name(index))
                for index in range(self.num_servers)]
        else:
            self._servers = [
                spawn_server(name=self._server_name(index), log_dir=self.log_dir)
                for index in range(self.num_servers)]
        self._respawns = [0] * self.num_servers
        self._published = [dict.fromkeys(
            ("connections", "reconnects", "requests", "bytes_sent",
             "bytes_received", "retried_rounds"), 0)
            for _ in range(self.num_servers)]
        self._clients = [
            ServiceClient(self._connect_factory(index),
                          name=self._server_name(index),
                          retry_attempts=self.retry_attempts,
                          retry_delay_s=self.retry_delay_s,
                          timeout_s=self.timeout_s)
            for index in range(self.num_servers)]
        self._locks = [threading.Lock() for _ in range(self.num_servers)]
        if self.transport != "socketpair":
            self._dispatch = ThreadPoolExecutor(
                max_workers=self.num_servers,
                thread_name_prefix="repro-service-dispatch")

    def close(self) -> None:
        """Graceful drain (idempotent; the pool lazily restarts on next use).

        Every spawned/in-process server receives an ack'd shutdown and is
        joined; externally addressed servers only lose their connections —
        their lifecycle belongs to whoever started them.
        """
        clients, servers = self._clients, self._servers
        try:
            # The servers stay reachable until every client is done: a client
            # that never folded dials its first connection here, to deliver
            # the shutdown.
            for index, client in enumerate(clients):
                if self.addresses is not None:
                    client.close()  # external servers outlive the pool
                    continue
                server = servers[index]
                if isinstance(server, ServerProcess) and not server.alive:
                    client.close()
                    continue  # a dead spawned server needs no drain
                client.shutdown()
        finally:
            self._clients, self._servers = [], []
        for server in servers:
            if isinstance(server, ServerProcess):
                server.join(timeout=self.timeout_s)
            elif isinstance(server, InProcessServer):
                server.close()
        self._locks = []
        if self._dispatch is not None:
            self._dispatch.shutdown(wait=True)
            self._dispatch = None

    # ------------------------------------------------------------------ folds
    def _count(self, metric: str, value, **labels) -> None:
        if self._registry is not None and value:
            self._registry.counter(metric, **labels).inc(value)

    def _publish_metrics(self) -> None:
        """Drain per-client transport counter deltas into the metrics registry."""
        if self._registry is None:
            return
        for index, client in enumerate(self._clients):
            published = self._published[index]
            labels = {"server": client.name}
            for stat, metric in (
                    ("connections", "repro_service_connections_total"),
                    ("reconnects", "repro_service_reconnects_total"),
                    ("requests", "repro_service_requests_total"),
                    ("bytes_sent", "repro_service_bytes_sent_total"),
                    ("bytes_received", "repro_service_bytes_received_total"),
                    ("retried_rounds", "repro_service_retried_rounds_total")):
                self._count(metric, client.stats[stat] - published[stat], **labels)
                published[stat] = client.stats[stat]
            if self._respawns[index]:
                self._count("repro_service_respawns_total",
                            self._respawns[index], **labels)
                self._respawns[index] = 0

    def _count_payloads(self, framed_lists, references_list) -> None:
        """Account fold payload bytes: per-codec frame bytes + reference bytes.

        The codec is sniffed from each frame's RWP1 header (``"unknown"`` for
        anything unparseable), which is what makes a compressed codec's savings
        visible per codec in run reports without decoding anything.
        """
        if self._registry is None:
            return
        by_codec: Dict[str, int] = {}
        for framed in framed_lists:
            for frame in framed:
                try:
                    codec = frame_codec_name(frame)
                except ValueError:
                    codec = "unknown"
                by_codec[codec] = by_codec.get(codec, 0) + len(frame)
        for codec in sorted(by_codec):
            self._count("repro_service_frame_bytes_total", by_codec[codec],
                        codec=codec)
        self._count("repro_service_reference_bytes_total", sum(
            len(frame) for references in references_list
            for frame in references.values()))

    def _run_jobs(self, kind: str, jobs: Sequence[Tuple], run_one) -> List:
        """Dispatch one fold call's jobs across the servers (results job-order)."""
        self._ensure_started()
        self.last_span_records = []

        def execute(job):
            server_index = int(job[0]) % self.num_servers
            with self._locks[server_index]:
                return run_one(self._clients[server_index], job)

        if self._dispatch is None:      # in-process servers: see module docstring
            results_and_records = [execute(job) for job in jobs]
        else:
            results_and_records = list(self._dispatch.map(execute, jobs))
        out = []
        for (key, result, record) in results_and_records:
            if record is not None:
                self.last_span_records.append(record)
            out.append((key, result))
        self._count("repro_service_folds_total", len(jobs), kind=kind)
        self._publish_metrics()
        return out

    def fold_shards(self, jobs: Sequence[Tuple[int, Sequence[bytes], Dict]],
                    timed: bool = False
                    ) -> List[Tuple[int, List[Tuple[Tuple[int, int], bytes, int]]]]:
        """Fold every shard's frames on its pinned server (job order).

        Jobs are ``(shard, frames, references)``.
        """

        def run_one(client: ServiceClient, job):
            shard, framed, references = job
            result, record = client.fold_shard(
                shard, framed, timed=timed, references=references)
            return shard, result, record

        out = self._run_jobs("shard", jobs, run_one)
        self._count_payloads([job[1] for job in jobs], [job[2] for job in jobs])
        return out

    def prefold_nodes(self, jobs: Sequence[Tuple[int, int, Sequence[bytes], Dict]],
                      timed: bool = False) -> List[Tuple[int, List[bytes]]]:
        """Pre-fold every tree node's frames on its pinned server.

        Jobs are ``(node, pseudo_id, frames, references)``.  The pseudo id
        also names the node's tree tier, counted into
        ``repro_service_tier_folds_total{tier=...}`` so inner-tier routing is
        visible in run reports.
        """

        def run_one(client: ServiceClient, job):
            node, pseudo_id, framed, references = job
            result, record = client.prefold_node(
                node, pseudo_id, framed, timed=timed, references=references)
            return node, result, record

        out = self._run_jobs("node", jobs, run_one)
        if self._registry is not None and jobs:
            tiers = [tier_of_pseudo_id(job[1]) for job in jobs]
            for tier in sorted(set(tiers)):
                self._count("repro_service_tier_folds_total",
                            tiers.count(tier), tier=tier)
        self._count_payloads([job[2] for job in jobs], [job[3] for job in jobs])
        return out

    # -------------------------------------------------------------- inspection
