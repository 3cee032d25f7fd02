"""Framed wire serialization for expert updates and full state dicts.

Frame layout (all integers little-endian)::

    "RWP1" | kind u8 | codec_len u8 | codec utf-8
    kind=UPDATE:     participant i32 | layer i32 | expert i32 | weight f8
    kind=STATE_DICT: (nothing extra)
    ntensors u16
    per tensor: name_len u16 | name utf-8 | dtype_len u8 | dtype str
                ndim u8 | dim u32 * ndim
                nsections u8 | (section_len u32 | section bytes) * nsections
    crc32 over everything above, u32

The trailing CRC covers the whole frame — header fields included — so any
single flipped bit surfaces as :class:`PayloadCorruptedError` instead of a
silently mis-addressed or mis-valued update.  The participant id is signed
on purpose: edge aggregators (:mod:`repro.federated.topology`) frame their
pre-folded partial aggregates with negative pseudo-ids (``-(edge + 1)``) so
both hops of a hierarchy speak the same wire format.  Tensor *values* travel in
whatever sections the frame's :class:`~repro.comm.codecs.Codec` produced;
shape and source dtype always travel in the clear so the receiver can
reconstruct without out-of-band metadata.

Encode is batched over one sender's whole upload: :func:`encode_updates`
takes a participant's (or a tree node's) list of updates and frames them in
one pass — tensors grouped by ``(name, dtype, shape)`` across the updates, one
header (:func:`_tensor_header`, the only writer of that layout) and one
:meth:`Codec.encode_arrays <repro.comm.codecs.Codec.encode_arrays>` call per
group, one ``join`` and one CRC pass per frame.  There is still exactly one
frame per expert update and every frame is byte-identical to what
:func:`encode_update` — its one-update case — produces; the per-update,
per-tensor encoder this replaced is kept verbatim in
``tests/uplink_oracles.py`` and ``tests/test_uplink_batch.py`` holds every
codec, dtype and shape to it.  :func:`verify_frame` is the receiving half of
that uplink: checksum only, nothing decoded (see
:class:`~repro.federated.aggregation.ExpertUpdate`).

Decode is zero-copy up to the tensor values: :func:`verify_frame` CRCs a
``memoryview`` of the input (``bytes``, ``bytearray`` or ``memoryview`` — a
:meth:`~repro.comm.stream.FrameStream.recv_frame_view` buffer decodes without
ever materialising a ``bytes`` frame), :func:`_walk_tensors` walks it with
flat offset arithmetic and pre-compiled ``struct`` objects, hands codecs
*views* of their payload sections, and ``np.frombuffer`` reads values straight
out of the frame.
There is one decode: :func:`parse_update` is its verify-and-walk half, and
:func:`decode_update_group` hands the same-named tensors of many parsed frames
to one :meth:`Codec.decode_arrays <repro.comm.codecs.Codec.decode_arrays>`
call each — the receiving twin of :func:`encode_updates`.
:func:`decode_update` and :func:`decode_state_dict` are its one-frame case
(the per-frame decode the group replaced in the fold is the oracle in
``tests/fold_oracles.py``).
Passing a :class:`~repro.comm.scratch.ScratchPool` as ``scratch=`` makes the
tensor reconstruction allocation-free too: each output array is checked out
of the pool and filled in place via the codecs' ``out=`` fast path — see
:meth:`repro.comm.codecs.Codec.decode_array` — and when a cast codec's wire
dtype already *is* the target dtype the array is a read-only view straight
into the frame, with no copy at all.  Scratch-decoded states are volatile:
valid only until the pool's next ``recycle()`` (and, for the frame-backed
views, only while the frame buffer itself is not reused).
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .codecs import Codec, PayloadCorruptedError, get_codec
from .scratch import ScratchPool

MAGIC = b"RWP1"
KIND_UPDATE = 1
KIND_STATE_DICT = 2

#: bytes of frame overhead that do not scale with tensor size
FIXED_HEADER_BYTES = len(MAGIC) + 1 + 1 + 4  # magic, kind, codec_len, crc

_CRC = struct.Struct("<I")

#: what walking or decoding a frame that checksums but was not written by this
#: module's encoders can raise; the decode entry points turn them into
#: :class:`PayloadCorruptedError`
_MALFORMED = (struct.error, KeyError, IndexError, UnicodeDecodeError, TypeError)

#: pre-compiled readers for every format the frame walk touches; the shape
#: formats (``<{ndim}I``) join lazily, so no decode ever calls
#: ``struct.calcsize`` — measurably the old reader's single largest cost
_STRUCTS: Dict[str, struct.Struct] = {
    fmt: struct.Struct(fmt) for fmt in ("<B", "<H", "<I", "<iiid", "<BB")}
_U8 = _STRUCTS["<B"]
_U16 = _STRUCTS["<H"]
_U32 = _STRUCTS["<I"]
_UPDATE_HEADER = _STRUCTS["<iiid"]

#: per-``ndim`` shape readers (``<{ndim}I``), compiled once each
_SHAPE_STRUCTS: Dict[int, struct.Struct] = {}

#: parsed-``np.dtype`` cache: only strings ``np.dtype`` accepted are cached,
#: so fuzzed garbage cannot grow it
_DTYPES: Dict[str, np.dtype] = {}


def _struct_for(fmt: str) -> struct.Struct:
    compiled = _STRUCTS.get(fmt)
    if compiled is None:
        compiled = _STRUCTS[fmt] = struct.Struct(fmt)
    return compiled


def _shape_struct(ndim: int) -> struct.Struct:
    compiled = _SHAPE_STRUCTS.get(ndim)
    if compiled is None:
        compiled = _SHAPE_STRUCTS[ndim] = struct.Struct(f"<{ndim}I")
    return compiled


def _dtype_for(token: str) -> np.dtype:
    dtype = _DTYPES.get(token)
    if dtype is None:
        dtype = np.dtype(token)  # raises TypeError on garbage -> corrupted
        _DTYPES[token] = dtype
    return dtype


ReferenceLookup = Callable[[int, int], Dict[str, np.ndarray]]

#: lazily bound ExpertUpdate class (the federated layer imports this module,
#: so the reverse import must happen at first decode, and only once)
_EXPERT_UPDATE = None


def _expert_update_class():
    global _EXPERT_UPDATE
    if _EXPERT_UPDATE is None:
        from ..federated.aggregation import ExpertUpdate

        _EXPERT_UPDATE = ExpertUpdate
    return _EXPERT_UPDATE


def _tensor_header(name: str, dtype: str, shape: Tuple[int, ...]) -> bytes:
    """``name_len|name|dtype_len|dtype|ndim|dims`` — the one writer of that layout."""
    name_bytes = name.encode("utf-8")
    dtype_bytes = dtype.encode("ascii")
    return b"".join((
        _U16.pack(len(name_bytes)), name_bytes,
        _U8.pack(len(dtype_bytes)), dtype_bytes,
        _U8.pack(len(shape)), _shape_struct(len(shape)).pack(*shape)))


def _append_tensor(parts: List[bytes], header: bytes, sections: List[bytes]) -> None:
    """One tensor onto ``parts``: header, section count, length-prefixed sections."""
    parts.append(header)
    parts.append(_U8.pack(len(sections)))
    for section in sections:
        parts.append(_U32.pack(len(section)))
        parts.append(section)


def _reference_for(codec: Codec, reference: Optional[Dict[str, np.ndarray]],
                   name: str) -> Optional[np.ndarray]:
    if not codec.needs_reference:
        return None
    if reference is None or name not in reference:
        raise ValueError(
            f"codec {codec.name!r} needs a reference for tensor {name!r}")
    return reference[name]


def _frame_prefix(kind: int, codec: Codec) -> bytes:
    codec_bytes = codec.name.encode("ascii")
    return MAGIC + _STRUCTS["<BB"].pack(kind, len(codec_bytes)) + codec_bytes


def _encode_tensors(parts: List[bytes], codec: Codec, state: Dict[str, np.ndarray],
                    reference: Optional[Dict[str, np.ndarray]]) -> None:
    parts.append(_U16.pack(len(state)))
    for name, value in state.items():
        array = np.asarray(value)
        _append_tensor(
            parts, _tensor_header(name, array.dtype.str, array.shape),
            codec.encode_array(array, reference=_reference_for(codec, reference, name)))


def _frame(parts: List[bytes]) -> bytes:
    # CRC accumulates incrementally over the parts, so the body bytes are
    # concatenated exactly once (the old body-join-then-append emitted every
    # frame twice).
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_CRC.pack(crc))
    return b"".join(parts)


def verify_frame(data) -> memoryview:
    """Check an ``RWP1`` frame's length, CRC and magic without decoding it.

    ``data`` is any bytes-like buffer.  Raises
    :class:`PayloadCorruptedError` on a frame that would not decode; returns
    the body view otherwise — it excludes the trailing CRC but includes the
    magic (offset 0-3), so header fields live at fixed offsets within it.
    This is all the uplink does with a delivered frame: the tensors are
    decoded once, by whoever folds them.
    """
    view = memoryview(data)
    if type(data) is not bytes and (
            view.ndim != 1 or view.itemsize != 1
            or view.format not in ("B", "b", "c")):
        view = view.cast("B")
    if len(view) < FIXED_HEADER_BYTES:
        raise PayloadCorruptedError("frame shorter than the fixed header")
    body = view[:-4]
    (crc,) = _CRC.unpack_from(view, len(view) - 4)
    if zlib.crc32(body) != crc:
        raise PayloadCorruptedError("frame checksum mismatch")
    if body[:4] != MAGIC:
        raise PayloadCorruptedError("bad frame magic")
    return body


#: a frame's tensor table: ``(name, dtype token, shape)`` per tensor, frame order
_TensorTable = Tuple[Tuple[str, str, Tuple[int, ...]], ...]


def _walk_tensors(body: memoryview, offset: int
                  ) -> Tuple[_TensorTable, List[List[memoryview]]]:
    """Parse a frame's tensors into their table and their payload section views.

    The one reader of the per-tensor layout :func:`_tensor_header` writes;
    nothing is decoded.  It runs once per frame on the decode hot path, hence
    flat offset arithmetic over the body view and pre-compiled structs (no
    per-field reader objects or method calls).  ``unpack_from`` past the view
    raises ``struct.error`` and a single-byte read past it raises
    ``IndexError`` — both converted to PayloadCorruptedError by the decode
    entry points — while variable-length slices are explicitly bounds-checked
    because a short ``memoryview`` slice would truncate silently.
    """
    size = len(body)
    shape_structs = _SHAPE_STRUCTS
    (ntensors,) = _U16.unpack_from(body, offset)
    offset += 2
    table = []
    payloads: List[List[memoryview]] = []
    for _ in range(ntensors):
        (name_len,) = _U16.unpack_from(body, offset)
        offset += 2
        end = offset + name_len
        if end > size:
            raise PayloadCorruptedError("frame truncated")
        name = str(body[offset:end], "utf-8")
        dtype_len = body[end]
        offset = end + 1
        end = offset + dtype_len
        if end > size:
            raise PayloadCorruptedError("frame truncated")
        token = str(body[offset:end], "ascii")
        ndim = body[end]
        offset = end + 1
        compiled = shape_structs.get(ndim)
        if compiled is None:
            compiled = _shape_struct(ndim)
        shape = compiled.unpack_from(body, offset)
        offset += compiled.size
        nsections = body[offset]
        offset += 1
        sections = []
        for _ in range(nsections):
            (section_len,) = _U32.unpack_from(body, offset)
            offset += 4
            end = offset + section_len
            if end > size:
                raise PayloadCorruptedError("frame truncated")
            sections.append(body[offset:end])
            offset = end
        table.append((name, token, shape))
        payloads.append(sections)
    return tuple(table), payloads


def _cast_values(sections: List[memoryview], cast_dtype: np.dtype,
                 shape: Tuple[int, ...]) -> np.ndarray:
    """A cast codec's one section as the ``shape`` array of wire-dtype values it is.

    True zero-copy: the wire bytes *are* the values, so a caller that treats
    decoded arrays as volatile anyway (scratch semantics) reads straight out
    of the frame — no take, no copy.  The view is read-only and possibly
    unaligned; NumPy's ufunc loops handle both.  Checked as
    :meth:`CastCodec.decode_array <repro.comm.codecs.CastCodec.decode_array>`
    checks, which this inlines.
    """
    if len(sections) != 1:
        raise PayloadCorruptedError("cast codec expects exactly one section")
    if len(sections[0]) != cast_dtype.itemsize * math.prod(shape):
        raise PayloadCorruptedError(
            "payload size does not match the declared shape")
    return np.frombuffer(sections[0], dtype=cast_dtype).reshape(shape)


def _parse_header(body: memoryview) -> Tuple[int, Codec, int]:
    """Read ``kind`` and the codec past the magic; returns the next offset."""
    kind = body[4]
    codec_len = body[5]
    end = 6 + codec_len
    if end > len(body):
        raise PayloadCorruptedError("frame truncated")
    codec = get_codec(str(body[6:end], "ascii"))
    return kind, codec, end


def frame_codec_name(data) -> str:
    """The codec tag an ``RWP1`` frame declares, read from the header alone.

    Cheap (no CRC pass, no tensor decode) — this is how the service plane
    validates/labels frames without unpacking them.  Raises ``ValueError`` on
    anything that is not an ``RWP1`` frame header; the returned name is *not*
    checked against the codec registry (callers decide how to fail).
    Accepts any bytes-like buffer.
    """
    header = len(MAGIC) + 2  # magic, kind, codec_len
    if len(data) < header or data[:len(MAGIC)] != MAGIC:
        raise ValueError("not an RWP1 frame (bad magic or truncated header)")
    codec_len = data[len(MAGIC) + 1]
    if len(data) < header + codec_len:
        raise ValueError("RWP1 frame truncated inside its codec tag")
    try:
        return str(data[header:header + codec_len], "ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"undecodable RWP1 codec tag: {exc}") from exc


def encode_updates(updates, codec: Codec,
                   references: Optional[Sequence[Optional[Dict[str, np.ndarray]]]] = None
                   ) -> List[bytes]:
    """Serialize many :class:`~repro.federated.aggregation.ExpertUpdate`'s, one frame each.

    ``references[i]`` is update ``i``'s delta reference (``None``: no update
    has one).  Frame ``i`` is byte for byte ``encode_update(updates[i], codec,
    references[i])``; what is shared is the work: tensors are grouped by
    ``(name, dtype, shape)`` across the updates — one participant's experts
    all carry the same three — each group's header is built once and its
    values go through one :meth:`Codec.encode_arrays
    <repro.comm.codecs.Codec.encode_arrays>` call, and every frame is one
    ``join`` and one CRC pass.  Frames are assembled in order, each pulling
    its tensors' sections from the groups' iterables, so a codec that encodes
    lazily (the cast codecs) never holds more than one frame's values.
    """
    pairs = (zip(updates, itertools.repeat(None)) if references is None
             else zip(updates, references, strict=True))
    groups: Dict[Tuple[str, str, Tuple[int, ...]], Tuple[list, list]] = {}
    frames: List[Tuple[bytes, list]] = []
    for update, reference in pairs:
        keys = []
        for name, value in update.state.items():
            array = np.asarray(value)
            key = (name, array.dtype.str, array.shape)
            group = groups.get(key)
            if group is None:
                group = groups[key] = ([], [])
            group[0].append(array)
            group[1].append(_reference_for(codec, reference, name))
            keys.append(key)
        frames.append((
            _UPDATE_HEADER.pack(int(update.participant_id), int(update.layer),
                                int(update.expert), float(update.weight)),
            keys))
    encoded = {key: (_tensor_header(*key), iter(codec.encode_arrays(arrays, array_references)))
               for key, (arrays, array_references) in groups.items()}
    prefix = _frame_prefix(KIND_UPDATE, codec)
    out = []
    for update_header, keys in frames:
        parts = [prefix, update_header, _U16.pack(len(keys))]
        for key in keys:
            header, sections = encoded[key]
            _append_tensor(parts, header, next(sections))
        body = b"".join(parts)
        out.append(body + _CRC.pack(zlib.crc32(body)))
    return out


def encode_update(update, codec: Codec,
                  reference: Optional[Dict[str, np.ndarray]] = None) -> bytes:
    """Serialize one :class:`~repro.federated.aggregation.ExpertUpdate`.

    The one-update case of :func:`encode_updates`.
    """
    return encode_updates((update,), codec, (reference,))[0]


class ParsedUpdate(NamedTuple):
    """One verified frame, parsed and not yet decoded.

    A state-dict frame has no update header: its first four fields are ``None``.
    """

    participant_id: int
    layer: int
    expert: int
    weight: float
    codec: Codec
    #: ``(name, dtype token, shape)`` per tensor, frame order
    table: _TensorTable
    #: per tensor its payload sections: views that alias the frame's buffer
    sections: List[List[memoryview]]


class DecodedGroup(NamedTuple):
    """The frames of one :func:`decode_update_group` call that share codec and tensor table."""

    #: positions (in the call's input) of the group's frames, ascending
    frames: List[int]
    #: ``(name, shape)`` per tensor
    tensors: Tuple[Tuple[str, Tuple[int, ...]], ...]
    #: per tensor the ``shape`` arrays of the group's frames: one
    #: ``(len(frames), *shape)`` array, or a list (cast codecs: fresh arrays
    #: without ``scratch``, views into the frames at the wire dtype); either
    #: way ``values[t][r]`` belongs to ``frames[r]``
    values: List[Sequence[np.ndarray]]


def _parse(data, kind: int) -> ParsedUpdate:
    """Verify one frame of ``kind`` (any bytes-like buffer) and parse it."""
    body = verify_frame(data)
    what = "update" if kind == KIND_UPDATE else "state-dict"
    try:
        found, codec, offset = _parse_header(body)
        if found != kind:
            raise PayloadCorruptedError(f"expected a {what} frame, got kind {found}")
        header = (None,) * 4
        if kind == KIND_UPDATE:
            header = _UPDATE_HEADER.unpack_from(body, offset)
            offset += _UPDATE_HEADER.size
        return ParsedUpdate(*header, codec, *_walk_tensors(body, offset))
    except _MALFORMED as exc:
        # The CRC makes this unreachable for in-flight corruption; it guards
        # against truncated or foreign-writer frames that still checksum.
        raise PayloadCorruptedError(f"malformed {what} frame: {exc}") from exc


def parse_update(data) -> ParsedUpdate:
    """Verify one update frame (``data``: any bytes-like buffer) and parse it.

    Everything a decode checks before it touches tensor values is checked
    here: length, CRC and magic (:func:`verify_frame`), the frame kind, a
    registered codec, and every length of the tensor table.
    """
    return _parse(data, KIND_UPDATE)


def _decode_one(parsed: ParsedUpdate, reference_lookup: Optional[ReferenceLookup],
                scratch: Optional[ScratchPool]) -> Dict[str, np.ndarray]:
    """One parsed frame's state: the one-frame case of :func:`decode_update_group`."""
    ((_, tensors, values),) = decode_update_group((parsed,), reference_lookup, scratch)
    return {name: rows[0] for (name, _), rows in zip(tensors, values)}


def decode_update(data,
                  reference: Optional[Dict[str, np.ndarray]] = None,
                  reference_lookup: Optional[ReferenceLookup] = None,
                  scratch: Optional[ScratchPool] = None):
    """Inverse of :func:`encode_update` (``data``: any bytes-like buffer).

    Delta codecs resolve their reference either from ``reference`` directly
    or via ``reference_lookup(layer, expert)`` (e.g. the parameter server's
    :meth:`~repro.federated.server.ParameterServer.expert_state`).  With a
    ``scratch`` pool the decoded state's arrays are volatile — pool-owned
    (valid only until ``scratch.recycle()``) or read-only views into the
    frame itself — so callers must fold (or copy) them first.
    """
    parsed = parse_update(data)
    if reference is not None:
        reference_lookup = lambda layer, expert: reference  # noqa: E731
    state = _decode_one(parsed, reference_lookup, scratch)
    return _expert_update_class()(
        participant_id=parsed.participant_id, layer=parsed.layer,
        expert=parsed.expert, state=state, weight=parsed.weight)


def decode_update_group(updates: Sequence[ParsedUpdate],
                        reference_lookup: Optional[ReferenceLookup] = None,
                        scratch: Optional[ScratchPool] = None) -> List[DecodedGroup]:
    """Decode many parsed update frames, same-named tensors as one array each.

    The receiving twin of :func:`encode_updates`: frames that share codec and
    tensor table (names, dtypes, shapes — one sender's experts all do) form a
    :class:`DecodedGroup`, and each of its tensors goes through one
    :meth:`Codec.decode_arrays <repro.comm.codecs.Codec.decode_arrays>` call.
    :func:`decode_update` and :func:`decode_state_dict` are its one-frame
    case.  Delta codecs resolve their
    references via ``reference_lookup(layer, expert)``.  With a ``scratch``
    pool the arrays are pool-owned and volatile (valid until
    ``scratch.recycle()``); without one they are fresh.
    """
    layouts: Dict[tuple, Tuple[List[int], List[list]]] = {}
    for position, update in enumerate(updates):
        layout = (update.codec, update.table)
        group = layouts.get(layout)
        if group is None:
            group = layouts[layout] = ([], [[] for _ in update.table])
        group[0].append(position)
        for column, sections in zip(group[1], update.sections):
            column.append(sections)
    groups = []
    try:
        for (codec, table), (positions, columns) in layouts.items():
            references = None
            if codec.needs_reference:
                references = [
                    reference_lookup and reference_lookup(updates[position].layer,
                                                          updates[position].expert)
                    for position in positions]
            values = []
            cast = codec.cast_wire_dtype
            for (name, token, shape), column in zip(table, columns):
                dtype = _dtype_for(token)
                if cast is None:
                    values.append(codec.decode_arrays(
                        column, shape, dtype,
                        references=None if references is None else [
                            _reference_for(codec, reference, name)
                            for reference in references],
                        out=None if scratch is None else scratch.take_rows(
                            len(column), shape, dtype)))
                elif scratch is None:       # fresh copies, as CastCodec.decode_array
                    values.append([_cast_values(sections, cast, shape).astype(dtype)
                                   for sections in column])
                elif dtype == cast:         # the values where they lie
                    values.append([_cast_values(sections, cast, shape)
                                   for sections in column])
                else:
                    out = scratch.take_rows(len(column), shape, dtype)
                    for row, sections in enumerate(column):
                        np.copyto(out[row, ...], _cast_values(sections, cast, shape),
                                  casting="unsafe")
                    values.append(out)
            groups.append(DecodedGroup(
                positions, tuple([(name, shape) for name, _, shape in table]), values))
    except _MALFORMED as exc:
        raise PayloadCorruptedError(f"malformed update frame: {exc}") from exc
    return groups


def encode_state_dict(state: Dict[str, np.ndarray], codec: Codec,
                      reference: Optional[Dict[str, np.ndarray]] = None) -> bytes:
    """Serialize a full model (or expert) state dict."""
    parts: List[bytes] = [_frame_prefix(KIND_STATE_DICT, codec)]
    _encode_tensors(parts, codec, state, reference)
    return _frame(parts)


def decode_state_dict(data,
                      reference: Optional[Dict[str, np.ndarray]] = None,
                      scratch: Optional[ScratchPool] = None
                      ) -> Dict[str, np.ndarray]:
    """Inverse of :func:`encode_state_dict` (``data``: any bytes-like buffer).

    ``scratch`` decodes into pool-owned arrays, as :func:`decode_update` does.
    """
    return _decode_one(_parse(data, KIND_STATE_DICT),
                       lambda layer, expert: reference, scratch)
