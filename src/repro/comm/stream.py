"""Byte-stream framing for the wire protocol over real sockets.

The serialization layer's ``RWP1`` frames are self-contained byte strings —
CRC-checked, but *not* self-delimiting on a byte stream: a TCP (or
``socketpair``) connection delivers an arbitrary re-chunking of whatever the
peer wrote, so a reader needs to know where one frame ends and the next
begins.  :class:`FrameStream` adds exactly that — a little-endian ``u32``
length prefix per frame — and owns the partial-read/partial-write loop both
sides of a connection need:

* **writes** ``sendall`` the prefix and then the payload — two writes of the
  caller's own buffers, never a concatenated copy of a multi-megabyte frame —
  so a frame is either fully queued or the stream raises;
* **reads** accumulate ``recv`` chunks until the prefix and then the payload
  are complete, whatever boundaries the transport chose.  A clean peer close
  *between* frames reads as end-of-stream (``recv_frame() -> None``); a close
  *inside* a frame — a killed server, a dropped link — raises
  :class:`TruncatedFrameError`, which is a :class:`PayloadCorruptedError`
  (the half-frame is corrupt by construction, and callers drop it exactly as
  they drop a CRC failure) as well as a :class:`ConnectionError` (so
  reconnect/retry logic catches it alongside ``ECONNRESET``).

``close()`` is idempotent and safe to race with a concurrent reader: the
socket is shut down and closed once, and every later call is a no-op.

The asyncio twins :func:`read_frame`/:func:`write_frame` speak the same
prefix format over ``StreamReader``/``StreamWriter`` pairs — they are what
the :mod:`repro.service` accept loop uses, and interoperate byte-for-byte
with a blocking :class:`FrameStream` on the other end of the connection.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Optional

from .codecs import PayloadCorruptedError

#: frame length prefix: little-endian unsigned 32-bit, like every other
#: integer in the wire format
LENGTH_PREFIX = struct.Struct("<I")

#: a receive buffer up to this size is kept for reuse across frames
RETAINED_RECV_BYTES = 1 << 16

#: refuse frames larger than this (a corrupt or misaligned prefix otherwise
#: reads as a multi-gigabyte allocation before anything fails)
MAX_FRAME_BYTES = 1 << 30


class TruncatedFrameError(PayloadCorruptedError, ConnectionError):
    """The stream ended (or the peer died) in the middle of a frame.

    Doubly classified on purpose: the partial frame is corrupt payload
    (callers must drop it, never fold it — :class:`PayloadCorruptedError`)
    *and* the connection is gone (retry/reconnect paths treat it like any
    other :class:`ConnectionError`).
    """


def _check_length(length: int, max_frame_bytes: int) -> None:
    if length > max_frame_bytes:
        raise PayloadCorruptedError(
            f"stream frame declares {length} bytes, over the "
            f"{max_frame_bytes}-byte limit (corrupt or misaligned length "
            "prefix?)")


class FrameStream:
    """Length-prefixed frame transport over a connected stream socket.

    Wraps one blocking, connected ``socket.socket`` (TCP or one end of a
    ``socket.socketpair()``).  Not thread-safe: callers serialize access per
    stream, except for :meth:`close`, which may be called from any thread at
    any time.
    """

    def __init__(self, sock: socket.socket, *,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._sock: Optional[socket.socket] = sock
        self._max_frame_bytes = int(max_frame_bytes)
        #: reusable receive buffer: ``recv_into`` fills it in place, growing
        #: it to the largest frame seen, so steady-state receives neither
        #: allocate nor concatenate chunk copies
        self._recv_buffer = bytearray(LENGTH_PREFIX.size)
        #: cumulative traffic counters (prefix bytes included), feeding the
        #: ``repro_service_bytes_*`` metrics
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0

    # ------------------------------------------------------------------ state
    @property
    def closed(self) -> bool:
        return self._sock is None

    def settimeout(self, timeout: Optional[float]) -> None:
        """Per-operation socket timeout (``socket.timeout`` is an ``OSError``)."""
        if self._sock is not None:
            self._sock.settimeout(timeout)

    def close(self) -> None:
        """Close the underlying socket (idempotent, thread-safe)."""
        sock, self._sock = self._sock, None
        if sock is None:
            return
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # peer already gone — close() below still releases the fd
        sock.close()

    def _require_open(self) -> socket.socket:
        if self._sock is None:
            raise ConnectionError("frame stream is closed")
        return self._sock

    # ------------------------------------------------------------------- send
    def send_frame(self, payload) -> int:
        """Queue one complete frame (any bytes-like buffer); returns the bytes
        written (prefix incl.)."""
        sock = self._require_open()
        _check_length(len(payload), self._max_frame_bytes)
        sock.sendall(LENGTH_PREFIX.pack(len(payload)))
        sock.sendall(payload)
        sent = LENGTH_PREFIX.size + len(payload)
        self.bytes_sent += sent
        self.frames_sent += 1
        return sent

    # ------------------------------------------------------------------- recv
    def _recv_exactly(self, num_bytes: int, *, at_boundary: bool) -> Optional[memoryview]:
        """Read exactly ``num_bytes`` into the reusable buffer, across
        however many chunks arrive; returns a view of the filled region.

        ``at_boundary=True`` (reading a length prefix) turns a clean EOF
        before the first byte into ``None``; EOF anywhere else is a peer
        dying mid-frame and raises :class:`TruncatedFrameError`.  The view
        is valid only until the next receive on this stream.
        """
        sock = self._require_open()
        if len(self._recv_buffer) < num_bytes:
            self._recv_buffer = bytearray(num_bytes)
        view = memoryview(self._recv_buffer)[:num_bytes]
        received = 0
        while received < num_bytes:
            chunk = sock.recv_into(view[received:])
            if chunk == 0:
                if at_boundary and received == 0:
                    return None
                raise TruncatedFrameError(
                    f"stream ended mid-frame: wanted {num_bytes} bytes, got "
                    f"{received} before the peer closed")
            received += chunk
        self.bytes_received += received
        return view

    def recv_frame_view(self) -> Optional[memoryview]:
        """The next complete frame as a *view* of the stream's receive buffer.

        Zero-copy twin of :meth:`recv_frame`: the returned ``memoryview``
        (empty for an empty frame, ``None`` on clean end-of-stream) feeds the
        wire decoder directly — ``decode_update``/``decode_message`` accept
        any buffer — without ever materialising a ``bytes`` frame.  It is
        only valid until the next receive on this stream (or
        :meth:`release_recv_buffer`); callers that keep frames (round
        accumulators) must copy with ``bytes(view)``.
        """
        prefix = self._recv_exactly(LENGTH_PREFIX.size, at_boundary=True)
        if prefix is None:
            return None
        (length,) = LENGTH_PREFIX.unpack_from(prefix)
        _check_length(length, self._max_frame_bytes)
        # The prefix's four buffer bytes may be overwritten by the payload
        # read below — ``length`` is already extracted, nothing else aliases.
        frame = self._recv_exactly(length, at_boundary=False)
        self.frames_received += 1
        return frame

    def release_recv_buffer(self) -> None:
        """Give back a receive buffer that one large frame grew.

        The buffer grows to the largest frame received and is reused, which is
        what small request/acknowledge traffic wants; a caller that has just
        consumed a multi-megabyte frame calls this so the stream does not sit
        on that much memory until the next one.  Views of the old buffer are
        dead after the call, as after a receive.
        """
        if len(self._recv_buffer) > RETAINED_RECV_BYTES:
            self._recv_buffer = bytearray(LENGTH_PREFIX.size)

    def recv_frame(self) -> Optional[bytes]:
        """The next complete frame, or ``None`` on clean end-of-stream."""
        view = self.recv_frame_view()
        return None if view is None else bytes(view)


# ------------------------------------------------------------- asyncio twins
async def read_frame(reader: asyncio.StreamReader, *,
                     max_frame_bytes: int = MAX_FRAME_BYTES) -> Optional[bytes]:
    """Asyncio twin of :meth:`FrameStream.recv_frame` (same EOF semantics)."""
    try:
        prefix = await reader.readexactly(LENGTH_PREFIX.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between frames
        raise TruncatedFrameError(
            "stream ended inside a frame's length prefix") from error
    except ConnectionError as error:
        raise TruncatedFrameError(
            f"connection lost reading a frame prefix: {error}") from error
    (length,) = LENGTH_PREFIX.unpack(prefix)
    _check_length(length, max_frame_bytes)
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError) as error:
        raise TruncatedFrameError(
            f"stream ended mid-frame: wanted {length} payload bytes") from error


async def write_frame(writer: asyncio.StreamWriter, payload, *,
                      max_frame_bytes: int = MAX_FRAME_BYTES) -> int:
    """Asyncio twin of :meth:`FrameStream.send_frame`; drains before returning.

    ``payload`` is any bytes-like buffer; prefix and payload are written
    separately, so the frame is never copied into a concatenation.
    """
    _check_length(len(payload), max_frame_bytes)
    writer.write(LENGTH_PREFIX.pack(len(payload)))
    writer.write(payload)
    await writer.drain()
    return LENGTH_PREFIX.size + len(payload)
