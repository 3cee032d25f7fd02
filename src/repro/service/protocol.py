"""Request/response message format of the aggregation service.

Every request and response starts with one :mod:`repro.comm.stream` frame
whose payload is::

    b"RWS1" | op (u8) | pickled body

``RWS1`` deliberately parallels the serialization layer's ``RWP1``: the
*contents* that matter — the expert updates and folded states a fold job
carries — travel as ordinary CRC-checked ``RWP1`` wire frames (the frame an
update arrived as, else lossless fp64); the service layer only adds an op
byte and a small pickled header (shard/node ids, strategy, frame count).

Requests (client → server), each answered by exactly one response:

* ``OP_HELLO`` — protocol-version negotiation, sent once per connection
  before anything else.  The server acks a matching
  :data:`PROTOCOL_VERSION` and rejects a mismatch with a typed
  :class:`ServiceProtocolError` — and a *pre-versioning* server rejects the
  unknown op the same way — so an incompatible client/server pair fails
  fast on connect instead of mid-round.  Servers also serve HELLO-less
  connections.
* ``OP_PING`` — liveness + server identity.
* ``OP_FOLD_NODE`` / ``OP_FOLD_SHARD`` — one whole fold job.  The header
  body is ``{strategy, node | shard (+ pseudo_id), timed, count,
  references}``: ``count`` update frames follow it, then one
  fp64 reference frame per ``references`` key (:func:`announced_frames`),
  each its own stream frame.  The server reads all of them, checks every
  frame's declared codec (a tag missing from the codec registry is a typed
  :class:`UnknownCodecError`, surfaced client-side as the same class), runs
  :func:`repro.service.fold.prefold_node_frames` /
  :func:`~repro.service.fold.fold_shard_frames` — the local fold, which is
  what makes the service backend bit-identical to it — and answers the
  node partials / per-key shard aggregates.  Nothing outlives the request,
  so a client whose connection died anywhere inside one resends it whole.
* ``OP_STATS`` — the server's lifetime counters.
* ``OP_SHUTDOWN`` — graceful drain: the server acks, stops accepting, and
  exits once open connections finish.

Responses are ``OP_OK`` with a result body, or ``OP_ERR`` carrying the
server-side error string (re-raised client-side as :class:`ServiceError`).

Strategies cross the wire pre-pickled (via
:func:`repro.federated.strategies.picklable_strategy`), so the header pickle
itself stays cheap and the server needs no strategy registry of its own.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, Optional, Tuple

#: service envelope magic (the inner payloads are RWP1 frames)
SERVICE_MAGIC = b"RWS1"

#: spoken protocol version, negotiated via ``OP_HELLO``.  v2 added HELLO
#: itself; v3 dropped the ``streaming`` flag of the shard fold; v4 made a
#: fold job one request (its frames follow the header as stream frames) and
#: dropped the ADD chunks, round tokens and RESET; v5 left the fold header
#: its frame count and reference keys as its only per-job lists.  The
#: envelope format is unchanged.
PROTOCOL_VERSION = 5

OP_PING = 1
OP_FOLD_NODE = 3
OP_FOLD_SHARD = 4
OP_STATS = 6
OP_SHUTDOWN = 7
OP_HELLO = 8
OP_OK = 64
OP_ERR = 65

OP_NAMES = {
    OP_PING: "ping",
    OP_FOLD_NODE: "fold_node",
    OP_FOLD_SHARD: "fold_shard",
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
    """A fold job's frame declares a codec id missing from the codec registry."""


class ServiceError(RuntimeError):
    """The server reported an error executing a request (``OP_ERR``)."""


def encode_message(op: int, body: Any = None) -> memoryview:
    """One service message: magic, op byte, pickled body.

    The body is pickled straight into the message's buffer and the buffer is
    returned as it is (a ``memoryview``): a multi-megabyte fold response
    exists once, not once per concatenation.
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


def announced_frames(op: int, body: Any) -> Optional[int]:
    """How many ``RWP1`` frames follow a request's header on the stream.

    A fold header announces its ``count`` update frames plus one reference
    frame per ``references`` key; any other request announces none.  ``None``
    marks a malformed fold header — ``count`` not a non-negative int, or
    ``references`` not a list — which announces no frames and is answered
    with an error.
    """
    if op not in (OP_FOLD_NODE, OP_FOLD_SHARD):
        return 0
    if not isinstance(body, dict):
        return None
    count, keys = body.get("count"), body.get("references")
    if type(count) is not int or count < 0 or not isinstance(keys, list):
        return None
    return count + len(keys)
