"""Long-lived aggregator servers: the fold plane as a socket service.

An :class:`AggregatorServer` is one persistent fold node that outlives rounds
(and runs) and holds nothing between requests but its scratch pool and
lifetime counters: a fold job is one request — a header and the job's frames
— answered by one response, so a request cut short by a dead connection
leaves nothing behind and resending it is the whole recovery.  It speaks the
:mod:`repro.service.protocol` messages over
:class:`~repro.comm.stream.FrameStream`, the blocking length-prefixed
transport the client uses too.  Each client connection is served by a thread
of its own running one blocking read / fold / answer loop, so the shard folds
and tier-0 subtree pre-folds of one round — or of several concurrent runs —
can stream into the same server at once.

The fold math is deliberately *not* implemented here: fold requests call
:func:`repro.service.fold.fold_shard_frames` /
:func:`~repro.service.fold.prefold_node_frames`, which run the serial server's
:class:`~repro.comm.StreamingAggregator` over the job's frames, so a service
fold is bit-identical to a serial fold by construction (test-enforced).
Requests run one at a time under one per-server lock (they share the server's
scratch pool): the parallelism of the service plane comes from running many
single-shard/subtree servers, one per shard or subtree.

Three ways to run one:

* :meth:`AggregatorServer.run_forever` — a TCP server in *this* process
  (a blocking accept loop; what :func:`serve_main` runs in spawned children);
* :func:`spawn_server` — a TCP server in a child process, with the bound
  ephemeral port reported back through a pipe and an optional line-oriented
  log file (the CI smoke uploads these on failure);
* :class:`InProcessServer` — the ``socketpair`` transport: each
  :meth:`~InProcessServer.connect` hands the server end of a
  ``socket.socketpair()`` to a new connection thread, so in-host tests
  exercise the full protocol without touching TCP.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..comm import PayloadCorruptedError, frame_codec_name, get_codec
from ..comm.scratch import ScratchPool
from ..comm.stream import FrameStream, TruncatedFrameError
from ..federated.topology import tier_of_pseudo_id
from ..obs import span_record
from .fold import fold_shard_frames, prefold_node_frames
from .protocol import (
    OP_ERR,
    OP_FOLD_NODE,
    OP_FOLD_SHARD,
    OP_HELLO,
    OP_NAMES,
    OP_OK,
    OP_PING,
    OP_SHUTDOWN,
    OP_STATS,
    PROTOCOL_VERSION,
    ServiceProtocolError,
    UnknownCodecError,
    announced_frames,
    decode_message,
    encode_message,
)

#: how long a stopping server waits for its open connections to end
_DRAIN_S = 5.0


def _check_codec(frame: bytes) -> None:
    """Reject a frame whose declared codec the registry does not know.

    Raised as the typed :class:`UnknownCodecError`, with the offending tag in
    the message — never an opaque decode failure deep inside the fold.
    """
    try:
        codec_name = frame_codec_name(frame)
    except ValueError as error:
        raise ServiceProtocolError(f"fold job frame is not an RWP1 frame: {error}") from error
    try:
        get_codec(codec_name)
    except KeyError:
        raise UnknownCodecError(f"fold job frame declares unknown codec {codec_name!r}") from None


class AggregatorServer:
    """One persistent aggregator node (see module docstring).

    The server is transport-agnostic at its core: :meth:`serve_connection`
    serves one connected socket on a thread of its own, and both the TCP
    accept loop and the in-process ``socketpair`` adapter feed it.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 name: str = "aggregator", log_path: Optional[str] = None) -> None:
        self.host = host
        self.port = port  # 0 = ephemeral; rebound by listen()
        self.name = name
        self.log_path = log_path
        #: persistent decode/fold scratch shared by every fold this server
        #: ever runs — the long-lived service is the best case for scratch
        #: reuse, since the buffers stay warm *across rounds and runs*.
        #: Requests run under ``_lock``, so one pool per server is race-free.
        self._scratch = ScratchPool()
        #: serializes requests, and the counters below, across connections
        self._lock = threading.Lock()
        self.stats: Dict[str, float] = {
            "pid": os.getpid(),
            "started_wall": time.time(),
            "connections_total": 0,
            "requests_total": 0,
            "frames_received": 0,
            "rounds_folded": 0,
            "bytes_received": 0,
            "bytes_sent": 0,
        }
        self._listener: Optional[socket.socket] = None
        self._stopped = False
        #: open connections: serving thread -> its socket (each thread drops
        #: its own entry when its connection ends)
        self._connections: Dict[threading.Thread, socket.socket] = {}

    # ---------------------------------------------------------------- logging
    def _log(self, message: str) -> None:
        if self.log_path is None:
            return
        # One append per line: connection threads log concurrently.
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{time.strftime('%H:%M:%S')} [{self.name} "
                         f"pid={os.getpid()}] {message}\n")

    # ----------------------------------------------------------- request core
    def _fold(self, op: int, body) -> Tuple[int, object]:
        """Check and fold one job; ``body["frames"]`` holds its received frames."""
        if announced_frames(op, body) is None:
            raise ServiceProtocolError(
                "malformed fold header: it needs a non-negative int count and a "
                "references list")
        count, keys, frames = body["count"], body["references"], body["frames"]
        for frame in frames:
            _check_codec(frame)
        framed = frames[:count]
        references = {tuple(key): frame for key, frame in zip(keys, frames[count:])}
        wall_start = time.time()
        perf_start = time.perf_counter()
        if op == OP_FOLD_NODE:
            pseudo_id = int(body["pseudo_id"])
            result: object = prefold_node_frames(
                pseudo_id, framed, references, scratch=self._scratch)
            record_name, attrs = "prefold_node", {
                "node": int(body["node"]), "tier": tier_of_pseudo_id(pseudo_id)}
        else:
            result = fold_shard_frames(framed, references, scratch=self._scratch)
            record_name, attrs = "fold_shard", {"shard": int(body["shard"])}
        self.stats["rounds_folded"] += 1
        record = None
        if body.get("timed"):
            record = span_record(
                record_name, "fold", wall_start, time.perf_counter() - perf_start,
                num_updates=count, worker_pid=os.getpid(),
                transport="service", server=self.name, **attrs)
        self._log(f"{OP_NAMES[op]}: folded {count} frame(s)")
        return OP_OK, {"result": result, "record": record}

    def handle_request(self, op: int, body) -> Tuple[int, object]:
        """Execute one request; returns the ``(op, body)`` of the response.

        A fold request's frames have been read by the connection loop and
        ride ``body["frames"]``.  Called under the server's lock: fold work
        is CPU-bound, and interleaving two folds would only slow both down.
        Concurrency across *servers* (one per shard/subtree) is the service
        plane's parallelism.
        """
        self.stats["requests_total"] += 1
        if op == OP_HELLO:
            version = (int(body.get("version", 0))
                       if isinstance(body, dict) else 0)
            if version != PROTOCOL_VERSION:
                raise ServiceProtocolError(
                    f"client speaks service protocol version {version}, "
                    f"this server speaks {PROTOCOL_VERSION}")
            return OP_OK, {"version": PROTOCOL_VERSION, "pid": os.getpid(),
                           "name": self.name}
        if op == OP_PING:
            return OP_OK, {"pid": os.getpid(), "name": self.name,
                           "rounds_folded": self.stats["rounds_folded"]}
        if op in (OP_FOLD_NODE, OP_FOLD_SHARD):
            return self._fold(op, body)
        if op == OP_STATS:
            return OP_OK, dict(self.stats)
        if op == OP_SHUTDOWN:
            self._log("shutdown requested")
            return OP_OK, {}
        raise ServiceProtocolError(f"server cannot handle op {op}")

    # ------------------------------------------------------------ connections
    def _read_request(self, stream: FrameStream):
        """The next request's ``(op, body)``, its frames read; ``None`` on a clean close.

        A header that does not decode cannot say how many frames follow it,
        so it raises :class:`ServiceProtocolError` and the connection closes.
        """
        header = stream.recv_frame_view()
        if header is None:
            return None
        received = len(header)
        op, body = decode_message(header)
        frames: List[bytes] = []
        for _ in range(announced_frames(op, body) or 0):
            frame = stream.recv_frame()
            if frame is None:
                raise TruncatedFrameError("stream ended inside a fold request")
            received += len(frame)
            frames.append(frame)
        if op in (OP_FOLD_NODE, OP_FOLD_SHARD) and isinstance(body, dict):
            body["frames"] = frames
        with self._lock:
            self.stats["bytes_received"] += received
            self.stats["frames_received"] += len(frames)
        return op, body

    def handle_connection(self, sock: socket.socket) -> None:
        """Serve one client connection until it closes: read, fold, answer."""
        stream = FrameStream(sock)
        with self._lock:
            self.stats["connections_total"] += 1
        self._log("connection opened")
        try:
            while True:
                request = self._read_request(stream)
                if request is None:
                    break  # clean close between requests
                op = request[0]
                # Every announced frame has been read, so whatever the answer,
                # the connection is at a request boundary.  A job's frames and
                # its response are megabytes each: both are dropped the moment
                # the next exists, and none survives into the wait for the
                # next request.
                try:
                    with self._lock:
                        result = self.handle_request(*request)
                    request = None
                    response = encode_message(*result)
                except Exception as error:  # surfaced client-side, not fatal here
                    self._log(f"request failed: {error!r}")
                    response = encode_message(OP_ERR, {
                        "error": str(error), "type": type(error).__name__})
                request = result = None
                sent = stream.send_frame(response)
                response = None
                with self._lock:
                    self.stats["bytes_sent"] += sent
                if op == OP_SHUTDOWN:
                    self.stop()  # after the ack: the requester has its answer
        except (OSError, PayloadCorruptedError, ServiceProtocolError) as error:
            # A client that died mid-request (TruncatedFrameError), a
            # connection shut down under the loop, an oversized frame or an
            # undecodable header: nothing was applied, and the client resends
            # the whole request.
            self._log(f"connection dropped: {error!r}")
        finally:
            stream.close()
            self._connections.pop(threading.current_thread(), None)
            self._log("connection closed")

    def serve_connection(self, sock: socket.socket) -> None:
        """Serve ``sock`` on a new daemon thread (see :meth:`handle_connection`)."""
        thread = threading.Thread(target=self.handle_connection, args=(sock,),
                                  name=f"repro-service-{self.name}", daemon=True)
        self._connections[thread] = sock
        thread.start()

    def _join_connections(self) -> None:
        """Wait up to :data:`_DRAIN_S` for the open connections' threads to end."""
        deadline = time.monotonic() + _DRAIN_S
        for thread in self._connections.copy():
            thread.join(max(0.0, deadline - time.monotonic()))

    def close_connections(self) -> None:
        """Shut every open connection down and join its thread.

        The shutdown wakes a thread blocked reading the next request; one in
        the middle of a request finishes it and fails to send the answer.
        """
        for sock in self._connections.copy().values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its thread closed it already
        self._join_connections()

    # -------------------------------------------------------------- TCP serve
    def listen(self) -> None:
        """Bind the TCP listening socket (resolving an ephemeral port request)."""
        self._listener = socket.create_server((self.host, self.port))
        self.port = self._listener.getsockname()[1]
        self._log(f"listening on {self.host}:{self.port}")

    def stop(self) -> None:
        """Stop accepting: close the listener, which wakes :meth:`run_forever`."""
        self._stopped = True
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
            except OSError:
                pass
            self._listener.close()

    def run_forever(self) -> None:
        """Blocking entry point: serve TCP until :meth:`stop` (``OP_SHUTDOWN``),
        then give open connections :data:`_DRAIN_S` to close themselves."""
        if self._listener is None:
            self.listen()
        while not self._stopped:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                if self._stopped:
                    break
                raise
            # Nagle would hold a response's sub-MSS tail segment until the
            # client acknowledges the segments before it.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.serve_connection(sock)
        self._join_connections()
        self._log("server stopped")


# ------------------------------------------------------------ child processes
_PARENT_POLL_S = 1.0


def _detach_stdio() -> None:
    """Point the server child's stdio at /dev/null.

    A spawned server inherits whatever stdin/stdout/stderr the run was
    launched with.  If that is a pipe (CI step, ``cmd | tail``) and the run
    is hard-killed, the orphaned server would keep the pipe's write end open
    and the reader would never see EOF — the CI step hangs until its timeout
    instead of failing fast.  The server never talks on stdio anyway (all
    diagnostics go to ``log_path``).
    """
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        try:
            os.dup2(devnull, fd)
        except OSError:
            pass
    os.close(devnull)


def serve_main(conn, host: str, name: str, log_path: Optional[str],
               parent_pid: Optional[int] = None) -> None:
    """Child-process entry: serve TCP, reporting the bound port over ``conn``."""
    _detach_stdio()
    server = AggregatorServer(host=host, name=name, log_path=log_path)
    server.listen()
    conn.send((server.host, server.port))
    conn.close()

    def watch_parent() -> None:
        # Orphan self-termination: daemon children are only reaped by the
        # parent's atexit machinery, which an os._exit / SIGKILL / OOM kill
        # skips entirely.  A server that outlives the run it folds for is
        # pure leak, so poll the ppid and stop serving once it changes
        # (reparented to init/subreaper = parent is gone).
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_S)
        server._log(f"parent pid {parent_pid} is gone; shutting down")
        server.stop()

    if parent_pid is not None:
        threading.Thread(target=watch_parent, name="repro-service-watchdog",
                         daemon=True).start()
    server.run_forever()


class ServerProcess:
    """Handle on one spawned TCP aggregator server (see :func:`spawn_server`)."""

    def __init__(self, process, host: str, port: int, name: str,
                 log_path: Optional[str]) -> None:
        self.process = process
        self.host = host
        self.port = port
        self.name = name
        self.log_path = log_path

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Hard-kill the server process (SIGKILL; no drain, no cleanup)."""
        self.process.kill()
        self.process.join()

    def join(self, timeout: Optional[float] = None) -> None:
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()


def spawn_server(host: str = "127.0.0.1", *, name: str = "aggregator",
                 log_dir: Optional[str] = None,
                 start_timeout_s: float = 30.0) -> ServerProcess:
    """Start one TCP aggregator server in a child process and await its port."""
    import multiprocessing

    log_path = None
    if log_dir is not None:
        os.makedirs(log_dir, exist_ok=True)
        log_path = os.path.join(log_dir, f"{name}.log")
    parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(
        target=serve_main, args=(child_conn, host, name, log_path, os.getpid()),
        name=f"repro-service-{name}", daemon=True)
    process.start()
    child_conn.close()
    if not parent_conn.poll(start_timeout_s):
        process.terminate()
        process.join()
        raise ConnectionError(
            f"aggregator server {name!r} did not report a port within "
            f"{start_timeout_s}s")
    bound_host, bound_port = parent_conn.recv()
    parent_conn.close()
    return ServerProcess(process, bound_host, bound_port, name, log_path)


# --------------------------------------------------------------- socketpair
class InProcessServer:
    """The ``socketpair`` transport: one server in this process, no TCP.

    Each :meth:`connect` creates a ``socket.socketpair()``, hands the server
    end to a new connection thread (the same
    :meth:`AggregatorServer.handle_connection` as TCP), and returns the
    client end — so in-host tests cover the full protocol path with zero
    network configuration.
    """

    def __init__(self, *, name: str = "aggregator",
                 log_path: Optional[str] = None) -> None:
        self.server = AggregatorServer(name=name, log_path=log_path)

    def connect(self) -> socket.socket:
        """A new connected client socket served by this server."""
        client_side, server_side = socket.socketpair()
        self.server.serve_connection(server_side)
        return client_side

    def close(self) -> None:
        """Shut down the server end of every open connection and join its
        thread (idempotent; a later :meth:`connect` is served again)."""
        self.server.close_connections()
