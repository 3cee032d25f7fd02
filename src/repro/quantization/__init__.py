"""Weight quantization substrate (profiling models, FMQ baseline)."""

from .qmodel import quantize_model, quantized_model_bytes
from .quantizer import (
    PACKABLE_BITS,
    SUPPORTED_BITS,
    QuantizedArray,
    dequantize_array,
    dequantize_state_dict,
    pack_int_code_rows,
    pack_int_codes,
    quantization_error,
    quantize_array,
    quantize_state_dict,
    quantized_nbytes,
    state_dict_nbytes,
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
    "dequantize_array",
    "quantization_error",
    "quantize_state_dict",
    "dequantize_state_dict",
    "state_dict_nbytes",
    "quantized_nbytes",
    "quantize_model",
    "quantized_model_bytes",
]
