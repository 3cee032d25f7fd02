"""Persistent socket-backed aggregation service (``aggregation_executor="service"``).

This package keeps long-lived aggregator servers — one per shard/subtree —
speaking the CRC-framed :mod:`repro.comm` wire protocol over a real transport
(``socketpair`` for in-host tests, TCP for multi-process topologies).  A fold
job is one request and one response, and a server holds nothing between
requests but its scratch pool and counters.  The pieces:

* :mod:`~repro.service.protocol` — the ``RWS1`` op/pickle header a
  request's ordinary ``RWP1`` wire frames follow.
* :mod:`~repro.service.server` — :class:`AggregatorServer`, one blocking
  read / fold / answer loop per connection thread, folds serialized by one
  lock, plus the two deployment wrappers: :func:`spawn_server` /
  :class:`ServerProcess` (TCP child process) and :class:`InProcessServer`
  (``socketpair`` connections in this process).
* :mod:`~repro.service.client` — :class:`ServiceClient`, the blocking
  per-server connection with reconnect/retry/timeout; a request cut short
  is resent whole.
* :mod:`~repro.service.fold` — the fold dispatcher (``prefold_nodes`` /
  ``fold_shards``: the one place that decides whether a job folds locally or
  on a server) and the fold jobs both ends share: :func:`frame_update` (an
  update as the frame it carries, else a lossless frame at its own dtype) and
  the two server-side folds over such frames.
* :mod:`~repro.service.pool` — :class:`ServiceAggregationPool`, the fold
  executor behind ``RunConfig(aggregation_executor="service")``.

The service fold plane is bit-identical to the serial one (the same
``fold_frames`` call over the same bytes; test-enforced) and
survives a server hard-killed mid-request by respawning it and resending
the request — see the CI ``service-smoke`` lane and
``scripts/service_smoke.py``.  Connections open with an ``OP_HELLO`` version
handshake (:data:`PROTOCOL_VERSION`).
"""

from .client import ServiceClient, ServiceUnavailableError
from .pool import ServiceAggregationPool
from .protocol import (
    OP_NAMES,
    PROTOCOL_VERSION,
    SERVICE_MAGIC,
    ServiceError,
    ServiceProtocolError,
    UnknownCodecError,
    decode_message,
    encode_message,
)
from .server import AggregatorServer, InProcessServer, ServerProcess, spawn_server

__all__ = [
    "SERVICE_MAGIC",
    "PROTOCOL_VERSION",
    "OP_NAMES",
    "encode_message",
    "decode_message",
    "ServiceProtocolError",
    "UnknownCodecError",
    "ServiceError",
    "AggregatorServer",
    "InProcessServer",
    "ServerProcess",
    "spawn_server",
    "ServiceClient",
    "ServiceUnavailableError",
    "ServiceAggregationPool",
]
