"""Persistent socket-backed aggregation service (``aggregation_executor="service"``).

This package keeps long-lived aggregator servers — one per shard/subtree —
each holding its round accumulator *between* requests and speaking the CRC-framed
:mod:`repro.comm` wire protocol over a real transport: ``socketpair`` for
in-host tests, TCP for multi-process topologies.  The pieces:

* :mod:`~repro.service.protocol` — the ``RWS1`` op/pickle envelope around
  ordinary ``RWP1`` wire frames.
* :mod:`~repro.service.server` — the asyncio accept loop
  (:class:`AggregatorServer`), plus the two deployment wrappers:
  :func:`spawn_server`/:class:`ServerProcess` (TCP child process) and
  :class:`InProcessServer` (background-thread ``socketpair``).
* :mod:`~repro.service.client` — :class:`ServiceClient`, the blocking
  per-server connection with reconnect/retry/timeout and token-scoped
  round replay.
* :mod:`~repro.service.fold` — the fold dispatcher (``prefold_nodes`` /
  ``fold_shards``: the one place that decides whether a job folds locally or
  on a server) and the fold jobs both ends share: :func:`frame_update` (an
  update as the frame it carries, else a lossless fp64 frame) and the two
  server-side folds over such frames.
* :mod:`~repro.service.pool` — :class:`ServiceAggregationPool`, the fold
  executor behind ``RunConfig(aggregation_executor="service")``.

The service fold plane is bit-identical to the serial one (the same
``fold_frames`` call over the same bytes; test-enforced) and
survives a hard-killed server mid-round by respawning and replaying the
round — see the CI ``service-smoke`` lane and ``scripts/service_smoke.py``.
Connections open with an ``OP_HELLO`` version handshake
(:data:`PROTOCOL_VERSION`) and ADDs are pipelined in a bounded window
acknowledged before each flush.
"""

from .client import (
    DEFAULT_CHUNK_FRAMES,
    DEFAULT_WINDOW,
    ServiceClient,
    ServiceUnavailableError,
)
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
    "DEFAULT_CHUNK_FRAMES",
    "DEFAULT_WINDOW",
    "ServiceAggregationPool",
]
