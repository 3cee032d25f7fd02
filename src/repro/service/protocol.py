"""Request/response message format of the aggregation service.

One service message is one :mod:`repro.comm.stream` frame whose payload is::

    b"RWS1" | op (u8) | pickled body

``RWS1`` deliberately parallels the serialization layer's ``RWP1``: the
*contents* that matter — the expert updates and folded states inside request
bodies — travel as ordinary CRC-checked ``RWP1`` wire frames (the frame an
update arrived as, else lossless fp64); the service layer
only wraps them in an op byte and a pickled envelope for the RPC bookkeeping
(round tokens, shard/node ids, strategy).

Requests (client → server):

* ``OP_HELLO`` — protocol-version negotiation, sent once per connection
  before anything else.  The server acks a matching
  :data:`PROTOCOL_VERSION` and rejects a mismatch with a typed
  :class:`ServiceProtocolError` — and a *pre-versioning* server rejects the
  unknown op the same way — so an incompatible client/server pair fails
  fast on connect instead of mid-round.  Servers still serve HELLO-less
  connections (old clients keep working against new servers).
* ``OP_PING`` — liveness + server identity.
* ``OP_ADD`` — append one chunk of ``(frame, staleness)`` pairs to the round
  accumulator named by ``token``.  A token the server has not seen starts a
  fresh accumulator, so a reconnecting client replays its round under a new
  token and any half-filled accumulator from the dead connection is simply
  abandoned (and evicted at the next flush).  Each frame's declared codec is
  validated on arrival: a tag missing from the codec registry raises a typed
  :class:`UnknownCodecError` (surfaced client-side as the same class), never
  a downstream decode/pickle failure.  Clients may pipeline a bounded window
  of ADDs before reading acks — responses are returned in request order on
  each connection, so the sender drains exactly as many acks as it sent.
* ``OP_FLUSH_NODE`` / ``OP_FLUSH_SHARD`` — fold the token's accumulated
  frames with the request's strategy and return the node partials / per-key
  shard aggregates, clearing the accumulator.  These call
  :func:`repro.service.fold.prefold_node_frames` /
  :func:`~repro.service.fold.fold_shard_frames`, which run the serial
  server's streaming fold — which is what makes the service backend
  bit-identical to serial folds.
* ``OP_RESET`` — drop every pending accumulator (checkpoint-resume hygiene).
* ``OP_STATS`` — the server's lifetime counters.
* ``OP_SHUTDOWN`` — graceful drain: the server acks, stops accepting, and
  exits once open connections finish.

Responses are ``OP_OK`` with a result body, or ``OP_ERR`` carrying the
server-side error string (re-raised client-side as :class:`ServiceError`).

Strategies cross the wire pre-pickled (via
:func:`repro.federated.strategies.picklable_strategy`), so the envelope pickle
itself stays cheap and the server needs no strategy registry of its own.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, Tuple

#: service envelope magic (the inner payloads are RWP1 frames)
SERVICE_MAGIC = b"RWS1"

#: spoken protocol version, negotiated via ``OP_HELLO``.  v2 added HELLO
#: itself, per-frame codec validation on ADD, pipelined ADD windows and
#: per-job reference shipping on flush; v3 dropped the ``streaming`` flag of
#: the ``OP_FLUSH_SHARD`` body.  The envelope format is unchanged.
PROTOCOL_VERSION = 3

OP_PING = 1
OP_ADD = 2
OP_FLUSH_NODE = 3
OP_FLUSH_SHARD = 4
OP_RESET = 5
OP_STATS = 6
OP_SHUTDOWN = 7
OP_HELLO = 8
OP_OK = 64
OP_ERR = 65

OP_NAMES = {
    OP_PING: "ping",
    OP_ADD: "add",
    OP_FLUSH_NODE: "flush_node",
    OP_FLUSH_SHARD: "flush_shard",
    OP_RESET: "reset",
    OP_STATS: "stats",
    OP_SHUTDOWN: "shutdown",
    OP_HELLO: "hello",
    OP_OK: "ok",
    OP_ERR: "err",
}


class ServiceProtocolError(ValueError):
    """A service message is malformed, or the peers speak different versions.

    Deliberately *not* a ``ConnectionError``: the client's reconnect/replay
    machinery must not retry a request the other end can never understand —
    version and format mismatches fail fast instead.
    """


class UnknownCodecError(ServiceProtocolError):
    """An ADD payload declares a codec id missing from the codec registry."""


class ServiceError(RuntimeError):
    """The server reported an error executing a request (``OP_ERR``)."""


def encode_message(op: int, body: Any = None) -> memoryview:
    """One service message: magic, op byte, pickled body.

    The body is pickled straight into the message's buffer and the buffer is
    returned as it is (a ``memoryview``): a multi-megabyte fold request or
    response exists once, not once per concatenation.
    """
    if not 0 <= op <= 255:
        raise ValueError(f"op must fit one byte, got {op}")
    buffer = io.BytesIO()
    buffer.write(SERVICE_MAGIC)
    buffer.write(bytes((op,)))
    pickle.dump(body, buffer, protocol=pickle.HIGHEST_PROTOCOL)
    return buffer.getbuffer()


def decode_message(frame) -> Tuple[int, Any]:
    """Invert :func:`encode_message`; raises :class:`ServiceProtocolError`.

    ``frame`` is any bytes-like buffer and is only read: the body unpickles
    from a view of it, and everything the result keeps is its own copy.
    """
    frame = memoryview(frame)
    header = len(SERVICE_MAGIC) + 1
    if len(frame) < header or frame[:len(SERVICE_MAGIC)] != SERVICE_MAGIC:
        raise ServiceProtocolError(
            "not a service message (bad magic or truncated header)")
    op = frame[len(SERVICE_MAGIC)]
    if op not in OP_NAMES:
        raise ServiceProtocolError(f"unknown service op {op}")
    try:
        body = pickle.loads(frame[header:])
    except Exception as error:
        raise ServiceProtocolError(f"undecodable message body: {error}") from error
    return op, body
