"""Pluggable wire codecs: how one tensor becomes bytes on the wire.

A :class:`Codec` turns a numpy array into one or more byte *sections* (and
back).  Sections are codec-specific — a cast codec ships one section of raw
little-endian values, a quantizing codec ships packed integer codes plus
per-row scales, the top-k codec ships indices plus delta values — and the
framing layer (:mod:`repro.comm.serialization`) wraps them with shapes,
dtypes and a checksum so the receiver can reconstruct the tensor without any
out-of-band knowledge beyond, for delta codecs, the shared reference state.

A codec encodes one tensor (:meth:`~Codec.encode_array`) or many at once
(:meth:`~Codec.encode_arrays`, what the framing layer calls with the
same-named tensors of one participant's experts).  The default maps the
single-tensor method; the top-k family stacks same-shaped tensors as an
``(E, size)`` delta matrix and runs selection, quantization and bit-packing
once over all rows, with ``encode_array`` as its one-row case.  Either way the
sections are byte-identical to encoding each tensor alone — the per-tensor
top-k code this replaced is the oracle in ``tests/uplink_oracles.py``
(``tests/test_uplink_batch.py``).  Decode mirrors it:
:meth:`~Codec.decode_arrays` reconstructs the same-shaped tensors of many
frames as the rows of one ``(E, *shape)`` array (what the group fold,
:meth:`StreamingAggregator.fold_frames
<repro.comm.aggregator.StreamingAggregator.fold_frames>`, multiplies and adds
in one go); the default fills the rows through :meth:`~Codec.decode_array`, the
top-k family copies the references, unpacks and scatters once for all rows,
and its ``decode_array`` is the one-row case.  The per-tensor decoders this
replaced are the oracle in ``tests/fold_oracles.py``
(``tests/test_fold_batch.py``).

Codecs are stateless and registered by name; look one up with
:func:`get_codec` (``"topk:<density>"`` parameterises the top-k codec inline).
Every codec also reports an analytic :meth:`~Codec.wire_bytes_per_param` so
the historical :class:`~repro.federated.communication.ExchangePlan` estimates
can be cross-checked against measured payload sizes.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


def _delta_workspace(reference: np.ndarray, shape: Tuple[int, ...],
                     out: Optional[np.ndarray]) -> Tuple[np.ndarray, bool]:
    """A flat float64 copy of ``reference`` for delta codecs to scatter into.

    When ``out`` is a float64 array of the right shape the copy lands directly
    in it (``(out-as-flat, True)``) and the decode is allocation-free;
    otherwise a fresh workspace is returned (``(flat, False)``) and the caller
    delivers it through :func:`_deliver`.
    """
    flat_ref = np.asarray(reference, dtype=np.float64).reshape(-1)
    if (out is not None and out.dtype == np.float64
            and tuple(out.shape) == tuple(shape)):
        work = out.reshape(-1)
        np.copyto(work, flat_ref)
        return work, True
    return flat_ref.copy(), False


def _delta_workspaces(references: Sequence, shape: Tuple[int, ...],
                      out: Optional[np.ndarray]) -> Tuple[np.ndarray, bool]:
    """The row-batched :func:`_delta_workspace`: row ``r`` is ``references[r]``, flat.

    ``(work, True)`` when ``work`` is ``out`` itself seen as ``(rows, size)``
    (a contiguous float64 ``(rows, *shape)`` array), else a fresh float64
    matrix for :func:`_deliver`.
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
    """One wire encoding for a single tensor."""

    #: registry tag (also written into every frame)
    name: str = "base"
    #: True when decode reproduces the input bit-for-bit (given a wide-enough
    #: source dtype); False for lossy (bounded-error) codecs
    exact: bool = False
    #: True when encode/decode need the shared reference tensor (delta codecs)
    needs_reference: bool = False

    #: set by codecs whose decode is exactly "``np.frombuffer`` the single
    #: section at this dtype, reshape, cast" — the frame decoder inlines that
    #: walk (the fp64 fold hot path) without a per-tensor ``decode_array``
    #: dispatch.  ``None`` (the default) means decode through
    #: :meth:`decode_array`.
    cast_wire_dtype: Optional[np.dtype] = None

    @abc.abstractmethod
    def encode_array(self, array: np.ndarray,
                     reference: Optional[np.ndarray] = None) -> List[bytes]:
        """Encode ``array`` into this codec's byte sections."""

    def encode_arrays(self, arrays: Sequence[np.ndarray],
                      references: Optional[Sequence[Optional[np.ndarray]]] = None
                      ) -> Iterable[List[bytes]]:
        """:meth:`encode_array` of every array, in order: one section list each.

        The batch entry point of the framing layer
        (:func:`repro.comm.serialization.encode_updates` hands over the
        same-named tensors of many updates at once and consumes the result in
        order).  The default maps :meth:`encode_array` lazily, so a cast
        codec's sections exist one tensor at a time; codecs whose per-tensor
        cost is mostly call overhead override it with a kernel over all
        arrays and return a list — the sections must stay byte-identical to
        the mapping.
        """
        return (self.encode_array(array, reference=reference)
                for array, reference in zip(arrays, _one_reference_each(arrays, references)))

    @abc.abstractmethod
    def decode_array(self, sections: Sequence[bytes], shape: Tuple[int, ...],
                     dtype: np.dtype,
                     reference: Optional[np.ndarray] = None,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
        """Reconstruct a tensor of ``shape``/``dtype`` from byte sections.

        Sections may be any bytes-like buffers (``memoryview`` sections of a
        zero-copy frame included).  ``out``, when given, must be a
        caller-owned array of exactly the declared shape/dtype; the codec
        decodes into it and returns it, bit-identical to the allocating path
        (the scratch fast path — see :mod:`repro.comm.scratch`).
        """

    def decode_arrays(self, sections: Sequence[Sequence[bytes]],
                      shape: Tuple[int, ...], dtype: np.dtype,
                      references: Optional[Sequence[Optional[np.ndarray]]] = None,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """:meth:`decode_array` of every section list, as rows of one array.

        The batch exit point of the framing layer
        (:func:`repro.comm.serialization.decode_update_group` hands over the
        same-named, same-shaped tensors of many frames at once).  Returns a
        ``(len(sections), *shape)`` array of ``dtype`` whose row ``r`` is bit
        for bit ``decode_array(sections[r], shape, dtype, references[r])``;
        ``out``, when given, is a caller-owned array of exactly that shape and
        dtype, filled and returned.  The default decodes row by row into it;
        codecs whose per-tensor cost is mostly call overhead override it with
        a kernel over all rows.
        """
        references = _one_reference_each(sections, references)
        if out is None:
            out = np.empty((len(sections), *shape), dtype=dtype)
        for row, (tensor_sections, reference) in enumerate(zip(sections, references)):
            self.decode_array(tensor_sections, shape, dtype, reference=reference,
                              out=out[row, ...])   # a view, for 0-d shapes too
        return out

    @abc.abstractmethod
    def wire_bytes_per_param(self, group_size: Optional[float] = None) -> float:
        """Analytic payload bytes per parameter (excluding frame headers).

        ``group_size`` is the number of parameters sharing one scale (for
        group/row-quantized codecs); codecs without scales ignore it.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


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

    ``fp64`` is lossless for every float source; ``fp32``/``fp16`` are exact
    for sources already representable at that width and bounded-error casts
    otherwise.
    """

    def __init__(self, name: str, wire_dtype: str) -> None:
        self.name = name
        self.wire_dtype = np.dtype(wire_dtype)
        self.exact = self.wire_dtype.itemsize >= 8
        # decode is a pure frombuffer-reshape-cast: the frame decoder may
        # inline it (bit-identical to decode_array by construction)
        self.cast_wire_dtype = self.wire_dtype

    def encode_array(self, array: np.ndarray,
                     reference: Optional[np.ndarray] = None) -> List[bytes]:
        values = np.ascontiguousarray(np.asarray(array), dtype=self.wire_dtype)
        return [values.tobytes()]

    def decode_array(self, sections: Sequence[bytes], shape: Tuple[int, ...],
                     dtype: np.dtype,
                     reference: Optional[np.ndarray] = None,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
        if len(sections) != 1:
            raise PayloadCorruptedError("cast codec expects exactly one section")
        values = np.frombuffer(sections[0], dtype=self.wire_dtype)
        if values.size != math.prod(shape):
            raise PayloadCorruptedError("payload size does not match the declared shape")
        return _deliver(values, shape, dtype, out)

    def wire_bytes_per_param(self, group_size: Optional[float] = None) -> float:
        return float(self.wire_dtype.itemsize)


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

    def encode_array(self, array: np.ndarray,
                     reference: Optional[np.ndarray] = None) -> List[bytes]:
        array = np.asarray(array)
        if array.size == 0:
            return [b"", b""]
        quantized = quantize_array(array, self.bits)
        codes = pack_int_codes(quantized.codes, self.bits)
        scales = np.ascontiguousarray(quantized.scales, dtype=_SCALE_DTYPE).tobytes()
        return [codes, scales]

    def decode_array(self, sections: Sequence[bytes], shape: Tuple[int, ...],
                     dtype: np.dtype,
                     reference: Optional[np.ndarray] = None,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
        if len(sections) != 2:
            raise PayloadCorruptedError("quantized codec expects code + scale sections")
        packed, scale_bytes = sections
        size = math.prod(shape)
        if size == 0:
            return _deliver(np.zeros(size), shape, dtype, out)
        try:
            codes = unpack_int_codes(packed, self.bits, size)
        except ValueError as exc:
            raise PayloadCorruptedError(str(exc)) from exc
        scales = np.frombuffer(scale_bytes, dtype=_SCALE_DTYPE).astype(np.float64)
        rows = shape[0] if len(shape) > 1 else 1
        if scales.size != rows:
            raise PayloadCorruptedError("scale count does not match the declared row count")
        values = codes.reshape(rows, -1) * scales[:, None]
        return _deliver(values, shape, dtype, out)

    def wire_bytes_per_param(self, group_size: Optional[float] = None) -> float:
        per_code = self.bits / 8.0
        if group_size is None:
            return per_code
        if group_size <= 0:
            raise ValueError("group_size must be positive")
        return per_code + np.dtype(_SCALE_DTYPE).itemsize / float(group_size)


class TopKDeltaCodec(Codec):
    """Sparsified delta-vs-reference encoding.

    Ships only the ``density`` fraction of entries where the tensor moved
    farthest from the shared reference (the global expert state the client
    downloaded); the receiver adds those deltas back onto its own copy of the
    reference.  Reconstruction error is bounded by the norm of the dropped
    deltas — zero at ``density=1`` up to float addition round-off.
    """

    needs_reference = True
    #: sections of a tensor with nothing to ship (empty, or equal to its reference)
    _EMPTY_SECTIONS: Tuple[bytes, ...] = (b"", b"")

    def __init__(self, density: float = 0.1) -> None:
        if not 0.0 < density <= 1.0:
            raise ValueError("topk density must be in (0, 1]")
        self.density = density
        self.name = "topk" if density == 0.1 else f"topk:{density:g}"

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
        """The value section(s) of each row of a ``(rows, k)`` matrix, ``k > 0``."""
        values = np.ascontiguousarray(values, dtype=_VALUE_DTYPE)
        return [[row.tobytes()] for row in values]

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
        row.  Byte-identical to encoding each tensor on its own, which is the
        one-row case (:meth:`encode_array`) — the per-tensor code this
        replaced is the oracle in ``tests/uplink_oracles.py``.
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

    def encode_array(self, array: np.ndarray,
                     reference: Optional[np.ndarray] = None) -> List[bytes]:
        return self.encode_arrays([array], [reference])[0]

    def _row_entries(self, lengths: Tuple[int, ...],
                     size: int) -> Optional[Tuple[int, np.dtype]]:
        """``(k, index dtype)`` of a tensor whose sections have ``lengths``, checked.

        ``None``: the tensor shipped nothing.  What a tensor's sections hold
        is a function of their lengths alone, so rows are sorted by them.
        """
        if len(lengths) != 2:
            raise PayloadCorruptedError("top-k codec expects index + value sections")
        index_len, value_len = lengths
        k, remainder = divmod(value_len, np.dtype(_VALUE_DTYPE).itemsize)
        if remainder:
            raise PayloadCorruptedError("top-k value section is not whole values")
        if k == 0:
            if index_len:
                raise PayloadCorruptedError("sparse index section should be empty")
            return None
        return k, _sparse_index_dtype(index_len, k, size)

    def _row_values(self, sections: Sequence[Sequence[bytes]], members: Sequence[int],
                    k: int) -> np.ndarray:
        """The ``(len(members), k)`` deltas the member rows ship."""
        return _stacked_sections(sections, members, 1, _VALUE_DTYPE)

    def decode_arrays(self, sections: Sequence[Sequence[bytes]],
                      shape: Tuple[int, ...], dtype: np.dtype,
                      references: Optional[Sequence[Optional[np.ndarray]]] = None,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """Row-batched decode: one scatter-add per distinct entry count.

        The references land in one ``(rows, size)`` float64 work matrix (``out``
        itself when it is float64); rows whose sections have the same lengths
        — in practice all of one sender's — are checked once and have their
        index and value sections stacked, unpacked together and added in one
        fancy-indexed pass; rows that shipped nothing keep their reference.
        Row ``r`` is bit for bit what :meth:`decode_array`, the one-row case,
        gives — the per-tensor code this replaced is the oracle in
        ``tests/fold_oracles.py``.
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
            row_starts = np.array(members, dtype=np.int64)[:, None] * size
            flat[indices + row_starts] += self._row_values(sections, members, k)
        if direct:
            return out
        return _deliver(work, (len(sections), *shape), dtype, out)

    def decode_array(self, sections: Sequence[bytes], shape: Tuple[int, ...],
                     dtype: np.dtype,
                     reference: Optional[np.ndarray] = None,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.decode_arrays([sections], shape, dtype, [reference],
                                  out=None if out is None else out[None])[0]

    def wire_bytes_per_param(self, group_size: Optional[float] = None) -> float:
        # conservative wide-index estimate: small tensors ship u2 indices and
        # come in under this, which keeps the analytic plan an upper bound
        per_entry = np.dtype(_INDEX_DTYPE).itemsize + np.dtype(_VALUE_DTYPE).itemsize
        return self.density * per_entry


class TopKQuantCodec(TopKDeltaCodec):
    """Composed top-k + quantize: top-k deltas shipped as packed ints.

    ``topk:<density>:int<bits>`` keeps the top-k selection of
    :class:`TopKDeltaCodec` but bit-packs the surviving values with the same
    :func:`repro.quantization.pack_int_codes` machinery the ``int<bits>``
    codecs use (one float32 scale for the whole selected-value vector) instead
    of shipping raw ``<f8``.  Per selected entry the wire cost drops from
    12 bytes to ``index + bits/8`` — e.g. 2.5 bytes at int4 on u2-indexed
    tensors.  Reconstruction error adds half a quantization step on the kept
    deltas to the dropped-delta mass.
    """

    needs_reference = True
    _EMPTY_SECTIONS = (b"", b"", b"")

    def __init__(self, density: float, bits: int) -> None:
        super().__init__(density=density)
        if bits not in PACKABLE_BITS:
            raise ValueError(
                f"topk-quantized codecs support {PACKABLE_BITS} bit codes")
        self.bits = bits
        self.name = f"topk:{density:g}:int{bits}"

    def _value_sections(self, values: np.ndarray) -> List[List[bytes]]:
        """Packed codes + one float32 scale per row (each row its own scale)."""
        quantized = quantize_array(values, self.bits)
        packed = pack_int_code_rows(quantized.codes, self.bits)
        scales = np.ascontiguousarray(quantized.scales, dtype=_SCALE_DTYPE)
        return [[packed[row].tobytes(), scales[row:row + 1].tobytes()]
                for row in range(len(packed))]

    def _row_entries(self, lengths: Tuple[int, ...],
                     size: int) -> Optional[Tuple[int, np.dtype]]:
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

    def _row_values(self, sections: Sequence[Sequence[bytes]], members: Sequence[int],
                    k: int) -> np.ndarray:
        try:
            codes = unpack_int_code_rows(
                _stacked_sections(sections, members, 1, np.uint8), self.bits, k)
        except ValueError as exc:
            raise PayloadCorruptedError(str(exc)) from exc
        scales = _stacked_sections(sections, members, 2, _SCALE_DTYPE)
        return codes * scales.astype(np.float64)

    def wire_bytes_per_param(self, group_size: Optional[float] = None) -> float:
        """Analytic bytes/param: u2 indices + packed codes (+ the scale).

        Indexes are priced at the narrow u2 width every preset tensor
        (<= 65535 elements) actually uses; ``group_size`` — params sharing one
        scale, i.e. the flattened tensor size for this one-scale-per-tensor
        codec — adds the float32 scale when given.
        """
        per_entry = np.dtype(_NARROW_INDEX_DTYPE).itemsize + self.bits / 8.0
        per_param = self.density * per_entry
        if group_size is not None:
            if group_size <= 0:
                raise ValueError("group_size must be positive")
            per_param += np.dtype(_SCALE_DTYPE).itemsize / float(group_size)
        return per_param


class SparseDeltaCodec(Codec):
    """Exact sparse delta vs a reference: changed entries shipped verbatim.

    Unlike :class:`TopKDeltaCodec` (lossy: top-k *differences* added back)
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

    def encode_array(self, array: np.ndarray,
                     reference: Optional[np.ndarray] = None) -> List[bytes]:
        array = np.asarray(array)
        reference = _check_reference(array.shape, reference)
        flat = np.asarray(array, dtype=np.float64).reshape(-1)
        ref_flat = np.asarray(reference, dtype=np.float64).reshape(-1)
        indices = np.flatnonzero(flat != ref_flat)
        return [
            np.ascontiguousarray(indices, dtype=_index_dtype_for(flat.size)).tobytes(),
            np.ascontiguousarray(flat[indices], dtype=_VALUE_DTYPE).tobytes(),
        ]

    def decode_array(self, sections: Sequence[bytes], shape: Tuple[int, ...],
                     dtype: np.dtype,
                     reference: Optional[np.ndarray] = None,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
        reference = _check_reference(shape, reference)
        if len(sections) != 2:
            raise PayloadCorruptedError(
                "sparse-delta codec expects index + value sections")
        value_width = np.dtype(_VALUE_DTYPE).itemsize
        if len(sections[1]) % value_width:
            raise PayloadCorruptedError("sparse-delta value section is not whole values")
        values = np.frombuffer(sections[1], dtype=_VALUE_DTYPE)
        work, direct = _delta_workspace(reference, shape, out)
        indices = _decode_sparse_indices(sections[0], values.size, work.size)
        work[indices] = values
        if direct:
            return out
        return _deliver(work, shape, dtype, out)

    def wire_bytes_per_param(self, group_size: Optional[float] = None) -> float:
        # worst case (every entry changed): index + raw value per param
        return float(np.dtype(_NARROW_INDEX_DTYPE).itemsize
                     + np.dtype(_VALUE_DTYPE).itemsize)


# --------------------------------------------------------------------- registry
_REGISTRY: Dict[str, Codec] = {}


def register_codec(codec: Codec) -> Codec:
    """Register ``codec`` under its name (later registrations win)."""
    _REGISTRY[codec.name] = codec
    return codec


def available_codecs() -> List[str]:
    return sorted(_REGISTRY)


def get_codec(name: str) -> Codec:
    """Look up a codec by tag.

    ``"topk:<density>"`` builds a parameterised top-k codec inline and
    ``"topk:<density>:int<bits>"`` the composed top-k + quantize codec.
    """
    codec = _REGISTRY.get(name)
    if codec is not None:
        return codec
    if name.startswith("topk:"):
        parts = name.split(":")
        try:
            density = float(parts[1])
            bits = (int(parts[2][3:])
                    if len(parts) == 3 and parts[2].startswith("int") else None)
        except ValueError:
            raise KeyError(f"malformed topk codec tag {name!r}") from None
        if len(parts) == 2:
            return register_codec(TopKDeltaCodec(density=density))
        if len(parts) == 3 and bits is not None:
            return register_codec(TopKQuantCodec(density=density, bits=bits))
        raise KeyError(f"malformed topk codec tag {name!r}")
    raise KeyError(f"unknown codec {name!r}; available: {available_codecs()}")


register_codec(CastCodec("fp64", "<f8"))
register_codec(CastCodec("fp32", "<f4"))
register_codec(CastCodec("fp16", "<f2"))
register_codec(GroupQuantCodec(bits=8))
register_codec(GroupQuantCodec(bits=4))
register_codec(GroupQuantCodec(bits=2))
register_codec(TopKDeltaCodec(density=0.1))
register_codec(SparseDeltaCodec())
