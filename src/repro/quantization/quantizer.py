"""Low-bit weight quantization used for profiling and the FMQ baseline.

Symmetric per-row (per-output-channel) integer quantization: each row of a
weight matrix is scaled into the representable integer range for the chosen
bit-width and rounded.  Dequantisation multiplies back by the per-row scale.

The key property the paper relies on (§4.1) is that a quantized model's
*routing decisions* closely track the full-precision model while its
*fine-tuning* behaviour degrades with accumulated precision error — both of
which emerge naturally from actually rounding the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np


SUPPORTED_BITS = (2, 3, 4, 8)


@dataclass
class QuantizedArray:
    """A quantized weight matrix: integer codes plus per-row scales."""

    codes: np.ndarray
    scales: np.ndarray
    bits: int
    original_shape: tuple
    #: dtype of the source weights; dequantisation reconstructs in this dtype
    #: so quantizing a float32 model does not silently upcast it to float64
    dtype: str = "float64"

    def dequantize(self) -> np.ndarray:
        """Reconstruct the (lossy) floating-point weights in the source dtype."""
        values = (self.codes * self.scales[:, None]).reshape(self.original_shape)
        return values.astype(self.dtype, copy=False)


def quantize_array(weights: np.ndarray, bits: int) -> QuantizedArray:
    """Symmetric per-row quantization of a 2-D (or flattened) weight array."""
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"unsupported bit width {bits}; supported: {SUPPORTED_BITS}")
    original_shape = weights.shape
    matrix = weights.reshape(original_shape[0], -1) if weights.ndim > 1 else weights.reshape(1, -1)
    qmax = 2 ** (bits - 1) - 1
    row_absmax = np.abs(matrix).max(axis=1)
    scales = np.where(row_absmax > 0, row_absmax / qmax, 1.0)
    codes = np.clip(np.round(matrix / scales[:, None]), -qmax - 1, qmax).astype(np.int32)
    dtype = str(weights.dtype) if weights.dtype.kind == "f" else "float64"
    return QuantizedArray(codes=codes, scales=scales, bits=bits,
                          original_shape=original_shape, dtype=dtype)


#: bit widths whose codes pack densely into whole bytes (wire transport)
PACKABLE_BITS = (2, 4, 8)


def pack_int_code_rows(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack every row of a 2-D code matrix densely at ``bits`` per value.

    Codes are shifted by ``2**(bits-1)`` into unsigned range and packed
    little-end-first within each byte (the first value occupies the lowest
    bits); a row whose length is not a multiple of ``8 // bits`` is padded
    with zero slots, so row ``r`` of the ``(rows, ceil(cols * bits / 8))``
    uint8 result is exactly the packing of ``codes[r]`` on its own.  Only
    byte-aligned widths are supported; 3-bit codes stay an in-memory-only
    format.
    """
    if bits not in PACKABLE_BITS:
        raise ValueError(f"cannot byte-pack {bits}-bit codes; packable: {PACKABLE_BITS}")
    shifted = codes.astype(np.int64) + (1 << (bits - 1))
    if shifted.size and (shifted.min() < 0 or shifted.max() >= (1 << bits)):
        raise ValueError(f"codes outside the {bits}-bit range")
    values = shifted.astype(np.uint8)
    per_byte = 8 // bits
    if per_byte == 1:
        return values
    rows, cols = values.shape
    pad = (-cols) % per_byte
    if pad:
        values = np.concatenate([values, np.zeros((rows, pad), dtype=np.uint8)], axis=1)
    packed = np.zeros((rows, values.shape[1] // per_byte), dtype=np.uint8)
    for slot in range(per_byte):
        packed |= values[:, slot::per_byte] << (slot * bits)
    return packed


def pack_int_codes(codes: np.ndarray, bits: int) -> bytes:
    """Pack signed quantization codes (any shape, flattened) at ``bits`` per value.

    The one-row case of :func:`pack_int_code_rows`, which defines the layout.
    """
    return pack_int_code_rows(codes.reshape(1, -1), bits).tobytes()


def unpack_int_code_rows(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_int_code_rows`: ``count`` signed codes of every row.

    ``packed`` is a ``(rows, row_bytes)`` uint8 matrix, each row packed on its
    own (so rows of a ``count`` that is not a multiple of ``8 // bits`` end in
    padding slots, which are dropped).
    """
    if bits not in PACKABLE_BITS:
        raise ValueError(f"cannot byte-unpack {bits}-bit codes; packable: {PACKABLE_BITS}")
    per_byte = 8 // bits
    rows, row_bytes = packed.shape
    if row_bytes * per_byte < count:
        raise ValueError("packed payload too short for the declared code count")
    values = np.zeros((rows, row_bytes * per_byte), dtype=np.uint8)
    mask = (1 << bits) - 1
    for slot in range(per_byte):
        values[:, slot::per_byte] = (packed >> (slot * bits)) & mask
    offset = 1 << (bits - 1)
    return values[:, :count].astype(np.int32) - offset


def unpack_int_codes(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_int_codes`: recover ``count`` signed codes.

    The one-row case of :func:`unpack_int_code_rows`.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    return unpack_int_code_rows(raw.reshape(1, -1), bits, count)[0]
