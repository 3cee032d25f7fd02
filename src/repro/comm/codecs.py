"""Pluggable wire codecs: how tensors become bytes on the wire.

A :class:`Codec` turns numpy arrays into byte *sections* (and back).  Sections
are codec-specific — a cast codec ships one section of raw little-endian
values, a quantizing codec ships packed integer codes plus per-row scales, the
top-k codec ships indices plus quantized delta values — and the framing layer
(:mod:`repro.comm.serialization`) wraps them with shapes, dtypes and a
checksum so the receiver can reconstruct each tensor without any out-of-band
knowledge beyond, for delta codecs, the shared reference state.

A codec has one interface, the batched one.  :meth:`~Codec.encode_arrays`
encodes many tensors at once (the framing layer hands over the same-named
tensors of one participant's experts, or a state dict's tensors) and returns
one section list per tensor, byte-identical to encoding each tensor alone;
:meth:`~Codec.decode_arrays` reconstructs the same-shaped tensors of many
frames as the rows of one ``(E, *shape)`` array (what the group fold,
:meth:`StreamingAggregator.fold_frames
<repro.comm.aggregator.StreamingAggregator.fold_frames>`, multiplies and adds
in one go).  The top-k codec stacks same-shaped tensors as an ``(E, size)``
delta matrix and runs selection, quantization and bit-packing once over all
rows, and decodes by copying the references, unpacking and scattering once
for all rows.  The per-tensor encoders and decoders are the oracles in
``tests/uplink_oracles.py`` and ``tests/fold_oracles.py``
(``tests/test_uplink_batch.py``, ``tests/test_fold_batch.py``).

Codecs are stateless and registered by tag; look one up with
:func:`get_codec` (``"topk:<density>:int<bits>"`` builds the top-k codec
inline).
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..quantization import (
    PACKABLE_BITS,
    pack_int_code_rows,
    pack_int_codes,
    quantize_array,
    unpack_int_code_rows,
    unpack_int_codes,
)

#: section dtypes are fixed little-endian so frames are portable
_SCALE_DTYPE = "<f4"
_INDEX_DTYPE = "<u4"
_NARROW_INDEX_DTYPE = "<u2"
_VALUE_DTYPE = "<f8"

#: largest flattened tensor whose sparse indices fit the narrow u2 width
_NARROW_INDEX_MAX = np.iinfo(np.uint16).max


def _index_dtype_for(size: int) -> np.dtype:
    """Narrowest index dtype that addresses a ``size``-element flat tensor."""
    return np.dtype(_NARROW_INDEX_DTYPE if size <= _NARROW_INDEX_MAX
                    else _INDEX_DTYPE)


def _deliver(values: np.ndarray, shape: Tuple[int, ...], dtype: np.dtype,
             out: Optional[np.ndarray]) -> np.ndarray:
    """Reshape-and-cast ``values`` into ``out``, or a fresh array if ``None``.

    The scratch path (``np.copyto`` with ``casting="unsafe"``) runs the same
    cast kernels as ``astype``, so both paths are bit-identical; ``out`` must
    already have the declared shape/dtype (decode scratch is keyed on them).
    """
    if out is None:
        return values.reshape(shape).astype(dtype)
    if out.shape != tuple(shape) or out.dtype != dtype:
        raise ValueError(
            f"decode scratch of shape {out.shape}/{out.dtype} cannot hold a "
            f"{shape}/{np.dtype(dtype)} tensor")
    np.copyto(out, values.reshape(shape), casting="unsafe")
    return out


def _delta_workspaces(references: Sequence, shape: Tuple[int, ...],
                      out: Optional[np.ndarray]) -> Tuple[np.ndarray, bool]:
    """A ``(rows, size)`` float64 matrix whose row ``r`` is ``references[r]``, flat.

    Delta codecs scatter into it.  ``(work, True)`` when ``work`` is ``out``
    itself seen as ``(rows, size)`` (a contiguous float64 ``(rows, *shape)``
    array), else a fresh float64 matrix for :func:`_deliver`.
    """
    rows = len(references)
    full_shape = (rows, *shape)
    direct = (out is not None and out.dtype == np.float64
              and out.shape == full_shape and out.flags.c_contiguous)
    work = out if direct else np.empty(full_shape, dtype=np.float64)
    for row, reference in enumerate(references):
        if getattr(reference, "shape", None) != shape:      # else: nothing to check
            reference = _check_reference(shape, reference)
        work[row] = reference
    return work.reshape(rows, -1), direct


def _sparse_index_dtype(section_len: int, count: int, size: int) -> np.dtype:
    """The index width a ``count``-entry section of ``section_len`` bytes uses.

    The preferred width is the one :func:`_index_dtype_for` picks for
    ``size`` — but frames written before the narrow width existed carry u4
    indices on small tensors, so whichever width is consistent with the
    section length is accepted.
    """
    for dtype in (_index_dtype_for(size), np.dtype(_INDEX_DTYPE),
                  np.dtype(_NARROW_INDEX_DTYPE)):
        if section_len == count * dtype.itemsize:
            return dtype
    raise PayloadCorruptedError("sparse index section length matches no index width")


def _decode_sparse_indices(section: bytes, count: int, size: int) -> np.ndarray:
    """Read ``count`` sparse indices, accepting both u2 and u4 widths."""
    if count == 0:
        if section:
            raise PayloadCorruptedError("sparse index section should be empty")
        return np.empty(0, dtype=np.int64)
    indices = np.frombuffer(section, dtype=_sparse_index_dtype(len(section), count, size))
    if int(indices.max()) >= size:
        raise PayloadCorruptedError("sparse index outside the declared tensor")
    return indices.astype(np.int64)


def _stacked_sections(sections: Sequence[Sequence], members: Sequence[int],
                      position: int, dtype) -> np.ndarray:
    """Section ``position`` of every member row as one ``(len(members), n)`` array.

    The member rows' sections have one length; many rows are joined into one
    buffer (one copy of the packed bytes), one row is read where it lies.
    """
    if len(members) == 1:
        data = sections[members[0]][position]
    else:
        data = b"".join([sections[row][position] for row in members])
    return np.frombuffer(data, dtype=dtype).reshape(len(members), -1)


class PayloadCorruptedError(ValueError):
    """A wire payload failed its checksum or is structurally inconsistent.

    Raised by the framing layer on CRC mismatch and by codecs when a frame's
    declared geometry disagrees with its section contents.  Caller mistakes —
    a missing or wrong-shaped delta reference — stay plain :class:`ValueError`
    so they surface as bugs instead of being dropped as line noise.
    """


class Codec(abc.ABC):
    """One wire encoding, applied to many tensors at a time."""

    #: registry tag (also written into every frame)
    name: str = "base"
    #: True when decode reproduces the input bit-for-bit (given a wide-enough
    #: source dtype); False for lossy (bounded-error) codecs
    exact: bool = False
    #: True when encode/decode need the shared reference tensor (delta codecs)
    needs_reference: bool = False

    #: set by codecs whose decode is exactly "``np.frombuffer`` the single
    #: section at this dtype, reshape, cast" — the frame decoder inlines that
    #: walk (the fold hot path) where it can read the values in place.
    #: ``None`` (the default) means decode through :meth:`decode_arrays`.
    cast_wire_dtype: Optional[np.dtype] = None

    @abc.abstractmethod
    def encode_arrays(self, arrays: Sequence[np.ndarray],
                      references: Optional[Sequence[Optional[np.ndarray]]] = None
                      ) -> Iterable[List[bytes]]:
        """This codec's byte sections of every array, in order: one list each.

        ``references[i]`` is array ``i``'s delta reference (``None``: no array
        has one).  The framing layer
        (:func:`repro.comm.serialization.encode_updates` and
        :func:`~repro.comm.serialization.encode_state_dict`) consumes the
        result in order, so a codec may encode lazily; either way the
        sections of an array do not depend on the other arrays.
        """

    @abc.abstractmethod
    def decode_arrays(self, sections: Sequence[Sequence[bytes]],
                      shape: Tuple[int, ...], dtype: np.dtype,
                      references: Optional[Sequence[Optional[np.ndarray]]] = None,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """Reconstruct one ``shape``/``dtype`` tensor per section list, as rows.

        Returns a ``(len(sections), *shape)`` array of ``dtype`` whose row
        ``r`` is the tensor ``sections[r]`` encodes (against
        ``references[r]``).  Sections may be any bytes-like buffers
        (``memoryview`` sections of a zero-copy frame included).  ``out``,
        when given, is a caller-owned array of exactly that shape and dtype,
        filled and returned, bit-identical to the allocating path (the
        scratch fast path — see :mod:`repro.comm.scratch`).
        """


def _check_reference(array_shape: Tuple[int, ...],
                     reference: Optional[np.ndarray]) -> np.ndarray:
    if reference is None:
        raise ValueError("this codec requires the shared reference tensor")
    reference = np.asarray(reference)
    if tuple(reference.shape) != tuple(array_shape):
        raise ValueError(
            f"reference shape {reference.shape} does not match tensor shape {array_shape}")
    return reference


def _one_reference_each(arrays: Sequence, references: Optional[Sequence]) -> Sequence:
    """``references`` checked against ``arrays`` (``None``: no array has one)."""
    if references is None:
        return [None] * len(arrays)
    if len(references) != len(arrays):
        raise ValueError("one reference per array is required")
    return references


class CastCodec(Codec):
    """Cast to a fixed floating dtype and ship the raw values.

    ``fp64`` is lossless for every float source; ``fp32`` is exact for
    sources already representable at that width (every float32 model) and a
    bounded-error cast otherwise.
    """

    def __init__(self, name: str, wire_dtype: str) -> None:
        self.name = name
        self.wire_dtype = np.dtype(wire_dtype)
        self.exact = self.wire_dtype.itemsize >= 8
        # decode is a pure frombuffer-reshape-cast: the frame decoder may
        # inline it (bit-identical to decode_arrays by construction)
        self.cast_wire_dtype = self.wire_dtype

    def encode_arrays(self, arrays: Sequence[np.ndarray],
                      references: Optional[Sequence[Optional[np.ndarray]]] = None
                      ) -> Iterator[List[bytes]]:
        """Lazily: a tensor's values exist at the wire dtype one tensor at a time."""
        return ([np.ascontiguousarray(np.asarray(array), dtype=self.wire_dtype).tobytes()]
                for array in arrays)

    def decode_arrays(self, sections: Sequence[Sequence[bytes]],
                      shape: Tuple[int, ...], dtype: np.dtype,
                      references: Optional[Sequence[Optional[np.ndarray]]] = None,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            out = np.empty((len(sections), *shape), dtype=dtype)
        for row, tensor_sections in enumerate(sections):
            if len(tensor_sections) != 1:
                raise PayloadCorruptedError("cast codec expects exactly one section")
            if len(tensor_sections[0]) != self.wire_dtype.itemsize * math.prod(shape):
                raise PayloadCorruptedError("payload size does not match the declared shape")
            values = np.frombuffer(tensor_sections[0], dtype=self.wire_dtype)
            _deliver(values, shape, dtype, out[row, ...])   # a view, for 0-d shapes too
        return out


class GroupQuantCodec(Codec):
    """Symmetric row-quantized integers plus float32 scales.

    Reuses :func:`repro.quantization.quantize_array` (one scale per output
    row) and packs the integer codes at ``bits`` per value; decode multiplies
    back and restores the source dtype.  The reconstruction error is bounded
    by half a quantization step per element.
    """

    def __init__(self, bits: int) -> None:
        if bits not in (2, 4, 8):
            raise ValueError("group-quantized wire codecs support 2, 4 or 8 bits")
        self.bits = bits
        self.name = f"int{bits}"

    def encode_arrays(self, arrays: Sequence[np.ndarray],
                      references: Optional[Sequence[Optional[np.ndarray]]] = None
                      ) -> Iterator[List[bytes]]:
        for array in arrays:
            array = np.asarray(array)
            if array.size == 0:
                yield [b"", b""]
                continue
            quantized = quantize_array(array, self.bits)
            yield [pack_int_codes(quantized.codes, self.bits),
                   np.ascontiguousarray(quantized.scales, dtype=_SCALE_DTYPE).tobytes()]

    def decode_arrays(self, sections: Sequence[Sequence[bytes]],
                      shape: Tuple[int, ...], dtype: np.dtype,
                      references: Optional[Sequence[Optional[np.ndarray]]] = None,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            out = np.empty((len(sections), *shape), dtype=dtype)
        size = math.prod(shape)
        rows = shape[0] if len(shape) > 1 else 1
        for row, tensor_sections in enumerate(sections):
            if len(tensor_sections) != 2:
                raise PayloadCorruptedError("quantized codec expects code + scale sections")
            if size == 0:
                continue
            packed, scale_bytes = tensor_sections
            try:
                codes = unpack_int_codes(packed, self.bits, size)
            except ValueError as exc:
                raise PayloadCorruptedError(str(exc)) from exc
            scales = np.frombuffer(scale_bytes, dtype=_SCALE_DTYPE).astype(np.float64)
            if scales.size != rows:
                raise PayloadCorruptedError(
                    "scale count does not match the declared row count")
            _deliver(codes.reshape(rows, -1) * scales[:, None], shape, dtype, out[row, ...])
        return out


class TopKQuantCodec(Codec):
    """Sparsified delta-vs-reference encoding, the kept deltas as packed ints.

    ``topk:<density>:int<bits>`` ships only the ``density`` fraction of
    entries where the tensor moved farthest from the shared reference (the
    global expert state the client downloaded), their values bit-packed with
    the same :func:`repro.quantization.pack_int_code_rows` machinery the
    ``int<bits>`` codecs use (one float32 scale for the whole selected-value
    vector); the receiver adds those deltas back onto its own copy of the
    reference.  Per selected entry the wire cost is ``index + bits/8`` bytes —
    2.5 bytes at int4 on u2-indexed tensors.  Reconstruction error is half a
    quantization step on the kept deltas plus the dropped-delta mass.
    """

    needs_reference = True
    #: sections of a tensor with nothing to ship (empty, or equal to its reference)
    _EMPTY_SECTIONS: Tuple[bytes, ...] = (b"", b"", b"")

    def __init__(self, density: float, bits: int) -> None:
        if not 0.0 < density <= 1.0:
            raise ValueError("topk density must be in (0, 1]")
        if bits not in PACKABLE_BITS:
            raise ValueError(
                f"topk-quantized codecs support {PACKABLE_BITS} bit codes")
        self.density = density
        self.bits = bits
        self.name = f"topk:{density:g}:int{bits}"

    def _select_rows(self, deltas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row top-k of a ``(rows, size)`` delta matrix, ``size > 0``.

        Returns ``(indices, values)``, both ``(rows, k)``, indices in their
        wire dtype and ascending within every row — row ``r`` is what
        selecting on ``deltas[r]`` alone gives (``argpartition`` runs the same
        introselect on each contiguous row, so ties across the k-th magnitude
        break identically).
        """
        rows, size = deltas.shape
        index_dtype = _index_dtype_for(size)
        k = max(1, int(math.ceil(self.density * size)))
        if k >= size:
            return np.tile(np.arange(size, dtype=index_dtype), (rows, 1)), deltas
        indices = np.abs(deltas).argpartition(-k, axis=1)[:, -k:].astype(index_dtype)
        indices.sort(axis=1)
        row_starts = np.arange(0, rows * size, size)[:, None]
        return indices, deltas.reshape(-1).take(indices + row_starts)

    def _value_sections(self, values: np.ndarray) -> List[List[bytes]]:
        """Packed codes + one float32 scale of each row of a ``(rows, k)`` matrix, ``k > 0``."""
        quantized = quantize_array(values, self.bits)
        packed = pack_int_code_rows(quantized.codes, self.bits)
        scales = np.ascontiguousarray(quantized.scales, dtype=_SCALE_DTYPE)
        return [[packed[row].tobytes(), scales[row:row + 1].tobytes()]
                for row in range(len(packed))]

    def _encode_rows(self, deltas: np.ndarray) -> List[List[bytes]]:
        """Sections of every row of a ``(rows, size)`` float64 delta matrix.

        Exact zeros are dropped from a row's selection — they carry no
        information (adding zero is a no-op), so an all-zero delta encodes to
        empty sections instead of shipping ``k`` zeros.  Rows that keep their
        whole selection — the common case — go through :meth:`_value_sections`
        as one matrix; a row that dropped zeros has its own length and goes
        through it alone.
        """
        rows, size = deltas.shape
        if size == 0:
            return [list(self._EMPTY_SECTIONS) for _ in range(rows)]
        wire_indices, values = self._select_rows(deltas)
        keep = values != 0.0
        whole = keep.all(axis=1)
        if whole.all():
            whole_rows, ragged_rows = range(rows), ()
        else:
            whole_rows = whole.nonzero()[0].tolist()
            ragged_rows = (~whole).nonzero()[0].tolist()
            values, ragged_values = values[whole_rows], values
        out: List[Optional[List[bytes]]] = [None] * rows
        if whole_rows:
            for row, sections in zip(whole_rows, self._value_sections(values)):
                out[row] = [wire_indices[row].tobytes(), *sections]
        for row in ragged_rows:
            kept = keep[row]
            if not kept.any():
                out[row] = list(self._EMPTY_SECTIONS)
                continue
            (sections,) = self._value_sections(ragged_values[row][kept][None, :])
            out[row] = [wire_indices[row][kept].tobytes(), *sections]
        return out

    def encode_arrays(self, arrays: Sequence[np.ndarray],
                      references: Optional[Sequence[Optional[np.ndarray]]] = None
                      ) -> List[List[bytes]]:
        """Row-batched encode: one selection kernel per distinct tensor shape.

        Same-shaped tensors (one participant's experts share their shapes) are
        stacked as an ``(E, size)`` float64 delta matrix and selected,
        quantized and packed together; only the final ``tobytes()`` is per
        row.  Byte-identical to encoding each tensor on its own — the
        per-tensor code is the oracle in ``tests/uplink_oracles.py``.
        """
        arrays = [np.asarray(array) for array in arrays]
        references = _one_reference_each(arrays, references)
        by_shape: Dict[Tuple[int, ...], List[int]] = {}
        for position, array in enumerate(arrays):
            by_shape.setdefault(array.shape, []).append(position)
        out: List[Optional[List[bytes]]] = [None] * len(arrays)
        for shape, positions in by_shape.items():
            deltas = np.empty((len(positions), *shape), dtype=np.float64)
            for row, position in enumerate(positions):
                np.subtract(arrays[position],
                            _check_reference(shape, references[position]),
                            out=deltas[row, ...], dtype=np.float64)
            sections = self._encode_rows(deltas.reshape(len(positions), -1))
            for position, row_sections in zip(positions, sections):
                out[position] = row_sections
        return out

    def _row_entries(self, lengths: Tuple[int, ...],
                     size: int) -> Optional[Tuple[int, np.dtype]]:
        """``(k, index dtype)`` of a tensor whose sections have ``lengths``, checked.

        ``None``: the tensor shipped nothing.  What a tensor's sections hold
        is a function of their lengths alone, so rows are sorted by them.
        """
        if len(lengths) != 3:
            raise PayloadCorruptedError(
                "topk-quantized codec expects index + code + scale sections")
        index_len, code_len, scale_len = lengths
        if not index_len and not code_len and not scale_len:
            return None
        if scale_len != np.dtype(_SCALE_DTYPE).itemsize:
            raise PayloadCorruptedError(
                "topk-quantized codec expects exactly one scale")
        # the index width determines k: try the width the encoder would pick
        # for this tensor first, then the other, cross-checked against the
        # packed-code section length
        preferred = _index_dtype_for(size).itemsize
        for width in (preferred, 6 - preferred):  # the other of {2, 4}
            k, remainder = divmod(index_len, width)
            if k and remainder == 0 and code_len == -(-k * self.bits // 8):
                return k, np.dtype(f"<u{width}")
        raise PayloadCorruptedError(
            "topk-quantized index and code sections disagree in length")

    def decode_arrays(self, sections: Sequence[Sequence[bytes]],
                      shape: Tuple[int, ...], dtype: np.dtype,
                      references: Optional[Sequence[Optional[np.ndarray]]] = None,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """Row-batched decode: one scatter-add per distinct entry count.

        The references land in one ``(rows, size)`` float64 work matrix (``out``
        itself when it is float64); rows whose sections have the same lengths
        — in practice all of one sender's — are checked once and have their
        index and code sections stacked, unpacked together and added in one
        fancy-indexed pass; rows that shipped nothing keep their reference.
        Row ``r`` is bit for bit what decoding that tensor alone gives — the
        per-tensor code is the oracle in ``tests/fold_oracles.py``.
        """
        work, direct = _delta_workspaces(
            _one_reference_each(sections, references), shape, out)
        size = work.shape[1]
        buckets: Dict[Tuple[int, ...], List[int]] = {}
        for row, tensor_sections in enumerate(sections):
            buckets.setdefault(tuple(map(len, tensor_sections)), []).append(row)
        flat = work.reshape(-1)
        for lengths, members in buckets.items():
            entries = self._row_entries(lengths, size)
            if entries is None:
                continue
            k, index_dtype = entries
            indices = _stacked_sections(sections, members, 0, index_dtype)
            if int(indices.max()) >= size:
                raise PayloadCorruptedError("sparse index outside the declared tensor")
            try:
                codes = unpack_int_code_rows(
                    _stacked_sections(sections, members, 1, np.uint8), self.bits, k)
            except ValueError as exc:
                raise PayloadCorruptedError(str(exc)) from exc
            scales = _stacked_sections(sections, members, 2, _SCALE_DTYPE)
            row_starts = np.array(members, dtype=np.int64)[:, None] * size
            flat[indices + row_starts] += codes * scales.astype(np.float64)
        if direct:
            return out
        return _deliver(work, (len(sections), *shape), dtype, out)


class SparseDeltaCodec(Codec):
    """Exact sparse delta vs a reference: changed entries shipped verbatim.

    Unlike :class:`TopKQuantCodec` (lossy: top-k *differences* added back)
    this ships the indices of every entry where the tensor differs from the
    reference together with the raw new ``<f8`` values, and decode *assigns*
    rather than adds — so the round trip is bit-exact for float64 and float32
    sources regardless of how sparse the change set is.  Used by delta model
    checkpoints, where the previous snapshot is the reference and only the
    experts touched since then moved.
    """

    name = "sparse-delta"
    exact = True
    needs_reference = True

    def encode_arrays(self, arrays: Sequence[np.ndarray],
                      references: Optional[Sequence[Optional[np.ndarray]]] = None
                      ) -> Iterator[List[bytes]]:
        for array, reference in zip(arrays, _one_reference_each(arrays, references)):
            array = np.asarray(array)
            reference = _check_reference(array.shape, reference)
            flat = np.asarray(array, dtype=np.float64).reshape(-1)
            ref_flat = np.asarray(reference, dtype=np.float64).reshape(-1)
            indices = np.flatnonzero(flat != ref_flat)
            yield [
                np.ascontiguousarray(indices, dtype=_index_dtype_for(flat.size)).tobytes(),
                np.ascontiguousarray(flat[indices], dtype=_VALUE_DTYPE).tobytes(),
            ]

    def decode_arrays(self, sections: Sequence[Sequence[bytes]],
                      shape: Tuple[int, ...], dtype: np.dtype,
                      references: Optional[Sequence[Optional[np.ndarray]]] = None,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        work, direct = _delta_workspaces(
            _one_reference_each(sections, references), shape, out)
        value_width = np.dtype(_VALUE_DTYPE).itemsize
        for row, tensor_sections in enumerate(sections):
            if len(tensor_sections) != 2:
                raise PayloadCorruptedError(
                    "sparse-delta codec expects index + value sections")
            index_section, value_section = tensor_sections
            if len(value_section) % value_width:
                raise PayloadCorruptedError("sparse-delta value section is not whole values")
            values = np.frombuffer(value_section, dtype=_VALUE_DTYPE)
            work[row, _decode_sparse_indices(index_section, values.size, work.shape[1])] = values
        if direct:
            return out
        return _deliver(work, (len(sections), *shape), dtype, out)


# --------------------------------------------------------------------- registry
_REGISTRY: Dict[str, Codec] = {}

#: the one tag family :func:`get_codec` builds on demand
_TOPK_TAG = "topk:<density>:int<bits>"


def register_codec(codec: Codec) -> Codec:
    """Register ``codec`` under its name (later registrations win)."""
    _REGISTRY[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    """Look up a codec by tag.

    ``"topk:<density>:int<bits>"`` builds the top-k codec inline.  Any other
    tag must be registered; an unknown one raises ``KeyError`` naming the tags
    that exist.
    """
    codec = _REGISTRY.get(name)
    if codec is not None:
        return codec
    parts = name.split(":")
    if len(parts) == 3 and parts[0] == "topk" and parts[2].startswith("int"):
        try:
            density, bits = float(parts[1]), int(parts[2][3:])
        except ValueError:
            raise KeyError(f"malformed topk codec tag {name!r}; expected {_TOPK_TAG}") from None
        return register_codec(TopKQuantCodec(density=density, bits=bits))
    raise KeyError(f"unknown codec {name!r}; available: "
                   f"{sorted(_REGISTRY) + [_TOPK_TAG]}")


register_codec(CastCodec("fp64", "<f8"))
register_codec(CastCodec("fp32", "<f4"))
register_codec(GroupQuantCodec(bits=8))
register_codec(GroupQuantCodec(bits=4))
register_codec(GroupQuantCodec(bits=2))
register_codec(SparseDeltaCodec())
