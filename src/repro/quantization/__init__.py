"""Weight quantization substrate (profiling models, FMQ baseline)."""

from .qmodel import quantize_model
from .quantizer import (
    PACKABLE_BITS,
    SUPPORTED_BITS,
    QuantizedArray,
    pack_int_code_rows,
    pack_int_codes,
    quantize_array,
    unpack_int_code_rows,
    unpack_int_codes,
)

__all__ = [
    "SUPPORTED_BITS",
    "PACKABLE_BITS",
    "pack_int_codes",
    "pack_int_code_rows",
    "unpack_int_code_rows",
    "unpack_int_codes",
    "QuantizedArray",
    "quantize_array",
    "quantize_model",
]
