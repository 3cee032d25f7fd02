"""Wire-level communication stack: codecs, framing, channels, streaming.

This layer sits *below* the federated substrate: it knows how to turn tensors
into framed byte payloads (:mod:`~repro.comm.serialization`) under a pluggable
:class:`Codec` (:mod:`~repro.comm.codecs`), how to move those payloads over a
metered, faultable link (:mod:`~repro.comm.channel`), how to delimit them on
a real byte stream — TCP or ``socketpair`` — with partial-read/-write-safe
length-prefixed framing (:mod:`~repro.comm.stream`), and how to fold decoded
updates into a constant-memory running average
(:mod:`~repro.comm.aggregator`).  The federated stack selects a codec and
transport via :class:`~repro.federated.RunConfig` (``codec=``,
``transport="wire"``).
"""

from .aggregator import StreamingAggregator, finalize_weighted_sum
from .channel import Channel, ChannelStats, TransferRecord
from .scratch import ScratchPool
from .codecs import (
    CastCodec,
    Codec,
    GroupQuantCodec,
    SparseDeltaCodec,
    TopKDeltaCodec,
    TopKQuantCodec,
    available_codecs,
    get_codec,
    register_codec,
)
from .serialization import (
    KIND_STATE_DICT,
    KIND_UPDATE,
    MAGIC,
    PayloadCorruptedError,
    decode_state_dict,
    decode_update,
    encode_state_dict,
    encode_update,
    encode_updates,
    frame_codec_name,
    verify_frame,
)
from .stream import (
    MAX_FRAME_BYTES,
    FrameStream,
    TruncatedFrameError,
    read_frame,
    write_frame,
)

__all__ = [
    "Codec",
    "CastCodec",
    "GroupQuantCodec",
    "SparseDeltaCodec",
    "TopKDeltaCodec",
    "TopKQuantCodec",
    "register_codec",
    "get_codec",
    "available_codecs",
    "MAGIC",
    "KIND_UPDATE",
    "KIND_STATE_DICT",
    "PayloadCorruptedError",
    "encode_update",
    "encode_updates",
    "decode_update",
    "verify_frame",
    "encode_state_dict",
    "decode_state_dict",
    "frame_codec_name",
    "FrameStream",
    "TruncatedFrameError",
    "MAX_FRAME_BYTES",
    "read_frame",
    "write_frame",
    "StreamingAggregator",
    "finalize_weighted_sum",
    "ScratchPool",
    "Channel",
    "ChannelStats",
    "TransferRecord",
]
