"""Reference implementations of the per-tensor uplink, kept verbatim.

What ``transport="wire"`` ran before the uplink was rebuilt around one
participant's whole upload: :func:`pack_int_codes`, the top-k codecs'
per-tensor ``_select`` / ``encode_array`` (:func:`oracle_encode_array`), the
per-update framing (:func:`oracle_encode_update`) and the
encode-send-decode-per-expert body of ``FederatedFineTuner.transmit_updates``
(:func:`oracle_transmit_updates`; :func:`oracle_uplink` patches it in with
client-side framing off).  They exist only here:
``test_uplink_batch.py`` holds ``Codec.encode_arrays``,
``repro.comm.encode_updates`` and the verify-only uplink to them byte for
byte, and ``benchmarks/perf_harness.py`` times the batched framing against
the mapped per-update one.
"""

from __future__ import annotations

import contextlib
import math
import struct
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.comm import TopKDeltaCodec, TopKQuantCodec
from repro.comm.codecs import (
    _SCALE_DTYPE,
    _VALUE_DTYPE,
    Codec,
    _check_reference,
    _index_dtype_for,
)
from repro.comm.serialization import KIND_UPDATE, MAGIC
from repro.federated import FederatedFineTuner
from repro.quantization import PACKABLE_BITS, quantize_array

_CRC = struct.Struct("<I")


# ------------------------------------------------------------------- codecs
def pack_int_codes(codes: np.ndarray, bits: int) -> bytes:
    if bits not in PACKABLE_BITS:
        raise ValueError(f"cannot byte-pack {bits}-bit codes; packable: {PACKABLE_BITS}")
    offset = 1 << (bits - 1)
    flat = codes.astype(np.int64).reshape(-1) + offset
    if flat.size and (flat.min() < 0 or flat.max() >= (1 << bits)):
        raise ValueError(f"codes outside the {bits}-bit range")
    values = flat.astype(np.uint8)
    per_byte = 8 // bits
    if per_byte == 1:
        return values.tobytes()
    pad = (-values.size) % per_byte
    if pad:
        values = np.concatenate([values, np.zeros(pad, dtype=np.uint8)])
    packed = np.zeros(values.size // per_byte, dtype=np.uint8)
    for slot in range(per_byte):
        packed |= values[slot::per_byte] << (slot * bits)
    return packed.tobytes()


def _select(self, array: np.ndarray,
            reference: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    delta = (np.asarray(array, dtype=np.float64)
             - np.asarray(reference, dtype=np.float64))
    flat = delta.reshape(-1)
    if flat.size == 0:
        return np.empty(0, dtype=np.int64), flat, 0
    k = max(1, int(math.ceil(self.density * flat.size)))
    if k >= flat.size:
        indices = np.arange(flat.size, dtype=np.int64)
    else:
        indices = np.sort(np.argpartition(np.abs(flat), -k)[-k:])
    values = flat[indices]
    nonzero = values != 0.0
    return indices[nonzero], values[nonzero], flat.size


def _topk_delta_encode_array(self, array: np.ndarray,
                             reference: Optional[np.ndarray] = None) -> List[bytes]:
    array = np.asarray(array)
    reference = _check_reference(array.shape, reference)
    indices, values, size = _select(self, array, reference)
    return [
        np.ascontiguousarray(indices, dtype=_index_dtype_for(size)).tobytes(),
        np.ascontiguousarray(values, dtype=_VALUE_DTYPE).tobytes(),
    ]


def _topk_quant_encode_array(self, array: np.ndarray,
                             reference: Optional[np.ndarray] = None) -> List[bytes]:
    array = np.asarray(array)
    reference = _check_reference(array.shape, reference)
    indices, values, size = _select(self, array, reference)
    if values.size == 0:
        return [b"", b"", b""]
    quantized = quantize_array(values, self.bits)
    return [
        np.ascontiguousarray(indices, dtype=_index_dtype_for(size)).tobytes(),
        pack_int_codes(quantized.codes, self.bits),
        np.ascontiguousarray(quantized.scales, dtype=_SCALE_DTYPE).tobytes(),
    ]


def oracle_encode_array(codec: Codec, array: np.ndarray,
                        reference: Optional[np.ndarray] = None) -> List[bytes]:
    """``codec.encode_array`` as it was: the old per-tensor code for the top-k
    family, the (unchanged) codec's own for every other."""
    if isinstance(codec, TopKQuantCodec):
        return _topk_quant_encode_array(codec, array, reference)
    if isinstance(codec, TopKDeltaCodec):
        return _topk_delta_encode_array(codec, array, reference)
    return codec.encode_array(array, reference=reference)


# ------------------------------------------------------------------ framing
def _encode_tensors(parts: List[bytes], codec: Codec, state: Dict[str, np.ndarray],
                    reference: Optional[Dict[str, np.ndarray]]) -> None:
    parts.append(struct.pack("<H", len(state)))
    for name, value in state.items():
        array = np.asarray(value)
        name_bytes = name.encode("utf-8")
        dtype_bytes = array.dtype.str.encode("ascii")
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<B", len(dtype_bytes)))
        parts.append(dtype_bytes)
        parts.append(struct.pack("<B", array.ndim))
        parts.append(struct.pack(f"<{array.ndim}I", *array.shape))
        ref = None
        if codec.needs_reference:
            if reference is None or name not in reference:
                raise ValueError(
                    f"codec {codec.name!r} needs a reference for tensor {name!r}")
            ref = reference[name]
        sections = oracle_encode_array(codec, array, reference=ref)
        parts.append(struct.pack("<B", len(sections)))
        for section in sections:
            parts.append(struct.pack("<I", len(section)))
            parts.append(section)


def _frame(parts: List[bytes]) -> bytes:
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_CRC.pack(crc))
    return b"".join(parts)


def oracle_encode_update(update, codec: Codec,
                         reference: Optional[Dict[str, np.ndarray]] = None) -> bytes:
    codec_bytes = codec.name.encode("ascii")
    parts: List[bytes] = [
        MAGIC,
        struct.pack("<BB", KIND_UPDATE, len(codec_bytes)),
        codec_bytes,
        struct.pack("<iiid", int(update.participant_id), int(update.layer),
                    int(update.expert), float(update.weight)),
    ]
    _encode_tensors(parts, codec, update.state, reference)
    return _frame(parts)


# ------------------------------------------------------------------- uplink
def oracle_transmit_updates(self, participant, updates):
    """``FederatedFineTuner.transmit_updates`` as it was (monkeypatch it in):
    one fresh reference, one encode, one send and one eager decode per expert.
    The only edit is that the encoder is :func:`oracle_encode_update`."""
    from repro.comm import (
        ChannelStats,
        PayloadCorruptedError,
        decode_update,
        get_codec,
    )

    stats = ChannelStats()
    if self.config.transport != "wire":
        return list(updates), stats
    codec = get_codec(self.wire_codec_name())
    channel = self.channel_for(participant)
    delivered = []
    raw_bytes = 0.0
    with self.telemetry.tracer.span(
            "uplink", category="transfer",
            participant=participant.participant_id,
            codec=self.wire_codec_name()) as span:
        for update in updates:
            raw_bytes += 8.0 * sum(np.asarray(v).size
                                   for v in update.state.values())
            reference = None
            if codec.needs_reference:
                reference = self.server.expert_state(update.layer, update.expert)
            payload = oracle_encode_update(update, codec, reference=reference)
            record = channel.send(payload, direction="up")
            stats.record(record)
            if record.delivered:
                try:
                    arrived = decode_update(record.payload, reference=reference)
                except PayloadCorruptedError:
                    stats.decode_failures += 1
                    continue
                arrived.wire_frame = bytes(record.payload)
                arrived.wire_codec = codec.name
                arrived.wire_reference = reference
                delivered.append(arrived)
        span.set(sim_duration=stats.seconds, bytes=stats.total_bytes,
                 payloads=stats.payloads, lost=stats.lost,
                 corrupted=stats.corrupted)
        if raw_bytes:
            span.set(wire_density=round(stats.bytes_up / raw_bytes, 4))
    return delivered, stats


@contextlib.contextmanager
def oracle_uplink(monkeypatch):
    """Every tuner built and run inside uses the whole pre-batching uplink:
    nothing is framed when a client finishes (``frame_upload`` is the
    identity) and :func:`oracle_transmit_updates` does it all at delivery."""
    with monkeypatch.context() as patched:
        patched.setattr(FederatedFineTuner, "frame_upload", lambda self, result: result)
        patched.setattr(FederatedFineTuner, "transmit_updates", oracle_transmit_updates)
        yield
