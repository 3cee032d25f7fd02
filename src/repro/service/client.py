"""Blocking client for one aggregator server, with reconnect/retry/timeout.

A :class:`ServiceClient` owns one connection to one
:class:`~repro.service.server.AggregatorServer` (dialed lazily through a
``connect()`` factory, so TCP, ``socketpair`` and respawn-on-death transports
all look the same) and turns protocol round trips into method calls.

A fold job is one request: a small header, then the job's frames — the
updates' own wire frames and the lossless reference frames — each its own stream
frame, written in a batch of gathered writes
(:meth:`~repro.comm.stream.FrameStream.send_frames`), then one response.  The
server keeps nothing between requests, so failure handling is just a resend:
when the connection dies anywhere inside a request (``ConnectionError``, a
socket timeout, a mid-frame :class:`~repro.comm.TruncatedFrameError`), the
client reconnects with backoff and sends the same request again.  The client
buffers nothing of its own — the pool hands it the job's frames.  Any other
failure (an ``OP_ERR``, a typed protocol error) also drops the connection
before it propagates, so the next request starts on a fresh connection at a
request boundary.  Each (re)connect opens with an ``OP_HELLO`` version
handshake, so mismatched peers fail fast with a typed
:class:`~repro.service.protocol.ServiceProtocolError` (never retried).

Retries assume the ``connect`` factory can produce a working connection
again — for spawned servers the pool's factory respawns a dead process
first, which is how a hard-killed server mid-request heals (the CI
``service-smoke`` lane exercises exactly this).  When attempts are
exhausted, :class:`ServiceUnavailableError` surfaces to the run loop.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..comm.stream import FrameStream
from .protocol import (
    OP_ERR,
    OP_FOLD_NODE,
    OP_FOLD_SHARD,
    OP_HELLO,
    OP_OK,
    OP_SHUTDOWN,
    PROTOCOL_VERSION,
    ServiceError,
    ServiceProtocolError,
    UnknownCodecError,
    decode_message,
    encode_message,
)


class ServiceUnavailableError(ConnectionError):
    """Every connect/retry attempt against an aggregator server failed."""


class ServiceClient:
    """One retrying connection to one aggregator server (see module docstring).

    Not thread-safe: the pool serializes access per client with one lock per
    server connection.
    """

    def __init__(self, connect: Callable[[], "FrameStream"], *,
                 name: str = "server0",
                 retry_attempts: int = 3, retry_delay_s: float = 0.05,
                 timeout_s: float = 30.0) -> None:
        if retry_attempts < 1:
            raise ValueError("retry_attempts must be positive")
        self._connect = connect
        self.name = name
        self.retry_attempts = int(retry_attempts)
        self.retry_delay_s = float(retry_delay_s)
        self.timeout_s = float(timeout_s)
        self._stream: Optional[FrameStream] = None
        #: lifetime transport counters, drained into ``repro_service_*``
        #: metrics by the pool
        self.stats: Dict[str, int] = {
            "connections": 0, "reconnects": 0, "requests": 0,
            "bytes_sent": 0, "bytes_received": 0, "retried_rounds": 0,
        }

    # ------------------------------------------------------------- connection
    def _ensure_stream(self) -> FrameStream:
        if self._stream is None or self._stream.closed:
            stream = self._connect()
            stream.settimeout(self.timeout_s)
            self._stream = stream
            self.stats["connections"] += 1
            # Version handshake before anything else rides this connection: a
            # server speaking another protocol version rejects it with a
            # typed ServiceProtocolError (pre-versioning servers reject the
            # unknown op the same way), which is NOT retried — mismatched
            # peers fail fast instead of resending a request they can never
            # complete.
            self._round_trip(OP_HELLO, {"version": PROTOCOL_VERSION})
        return self._stream

    def _drop_stream(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def close(self) -> None:
        """Close the connection (idempotent; redialed lazily on next use)."""
        self._drop_stream()

    # --------------------------------------------------------------- requests
    def _send_request(self, stream: FrameStream, op: int, body,
                      frames: Sequence = ()) -> None:
        """Write one request — its header, then the frames it announces."""
        sent_before = stream.bytes_sent
        # The header is small: as bytes, it leaves no view of the encoder's
        # buffer in the traceback of a failed write, which the cycle
        # collector could otherwise tear down in the wrong order.
        header = bytes(encode_message(op, body))
        try:
            stream.send_frames([header, *frames])
        finally:
            self.stats["bytes_sent"] += stream.bytes_sent - sent_before

    def _recv_response(self, stream: FrameStream) -> object:
        """Read + check the response to the request just sent."""
        received_before = stream.bytes_received
        try:
            # Zero-copy receive: the view aliases the stream's reusable
            # buffer, and decode_message below fully materialises op + body
            # (pickle copies what it keeps) before the buffer is released.
            response = stream.recv_frame_view()
        finally:
            self.stats["bytes_received"] += stream.bytes_received - received_before
        if response is None:
            raise ConnectionError(
                f"server {self.name!r} closed the connection mid-request")
        self.stats["requests"] += 1
        try:
            response_op, response_body = decode_message(response)
        finally:
            # a fold's response is megabytes; the next one may be a ping's
            del response
            stream.release_recv_buffer()
        if response_op == OP_ERR:
            kind = (response_body.get("type")
                    if isinstance(response_body, dict) else None)
            detail = (f"{kind}: {response_body.get('error')}"
                      if isinstance(response_body, dict) else str(response_body))
            message = f"server {self.name!r} request failed: {detail}"
            # Re-raise the server's typed protocol failures as themselves so
            # callers can tell "this pairing can never work" (version/codec
            # mismatch — fail fast, never retried) from a generic fold error.
            if kind == "UnknownCodecError":
                raise UnknownCodecError(message)
            if kind == "ServiceProtocolError":
                raise ServiceProtocolError(message)
            raise ServiceError(message)
        if response_op != OP_OK:
            raise ServiceError(
                f"server {self.name!r} sent unexpected response op "
                f"{response_op}")
        return response_body

    def _round_trip(self, op: int, body, frames: Sequence = ()) -> object:
        """One request/response on the live stream (no retry at this level)."""
        stream = self._ensure_stream()
        self._send_request(stream, op, body, frames)
        return self._recv_response(stream)

    def call(self, op: int, body=None, frames: Sequence = ()):
        """One request, resent whole on connection failure, with backoff, up
        to ``retry_attempts`` times."""
        last_error: Optional[BaseException] = None
        for attempt in range(self.retry_attempts):
            if attempt:
                self.stats["reconnects"] += 1
                time.sleep(self.retry_delay_s * attempt)
            try:
                return self._round_trip(op, body, frames)
            except OSError as error:
                # Socket timeouts and ConnectionError, TruncatedFrameError
                # included: the request is resent on a new connection.
                self._drop_stream()
                last_error = error
            except BaseException:
                # Anything else may have left the connection between a
                # request and its response: the next request redials.
                self._drop_stream()
                raise
        raise ServiceUnavailableError(
            f"server {self.name!r} unreachable after {self.retry_attempts} "
            f"attempt(s): {last_error!r}") from last_error

    # ------------------------------------------------------------ service API

    def shutdown(self) -> None:
        """Graceful drain: ack'd stop; the server exits after this returns."""
        try:
            self.call(OP_SHUTDOWN)
        except (ServiceUnavailableError, ServiceError):
            pass  # already dead (or dying) is a successful shutdown
        self._drop_stream()

    def _fold(self, op: int, header: Dict, framed: Sequence[bytes],
              references: Optional[Dict]) -> Tuple[object, Optional[dict]]:
        """Send one fold job as one request; returns the result and span record.

        ``references`` maps ``(layer, expert)`` keys to the lossless reference
        frames of the job's delta-coded frames; they follow the update frames
        in key order.
        """
        keys = list(references or {})
        header = dict(header, count=len(framed), references=keys)
        frames = list(framed) + [references[key] for key in keys]
        reconnects_before = self.stats["reconnects"]
        body = self.call(op, header, frames)
        if self.stats["reconnects"] != reconnects_before:
            self.stats["retried_rounds"] += 1
        return body["result"], body.get("record")

    def prefold_node(self, node: int, pseudo_id: int, frames: Sequence[bytes],
                     timed: bool = False,
                     references: Optional[Dict] = None,
                     ) -> Tuple[List[bytes], Optional[dict]]:
        """Fold one tree node's framed updates into partial frames.

        ``references`` maps ``(layer, expert)`` keys to lossless reference
        frames for any reference-requiring codec among ``frames``.
        """
        return self._fold(OP_FOLD_NODE,
                          {"node": int(node), "pseudo_id": int(pseudo_id), "timed": timed},
                          frames, references)

    def fold_shard(self, shard: int, frames: Sequence[bytes], timed: bool = False,
                   references: Optional[Dict] = None,
                   ) -> Tuple[List[Tuple[Tuple[int, int], bytes, int]],
                              Optional[dict]]:
        """Fold one shard's framed updates into per-key aggregate frames.

        ``references`` semantics match :meth:`prefold_node`.
        """
        return self._fold(OP_FOLD_SHARD, {"shard": int(shard), "timed": timed},
                          frames, references)
