"""Fixed-point quantization for CNN inference on the DPU.

The DPU supports only fixed-point arithmetic efficiently (Section 3.3), so
the paper runs *quantized* versions of its CNNs.  This module implements
symmetric linear quantization (the scheme quantized Darknet builds use):

``q = clamp(round(x / scale), -2**(bits-1), 2**(bits-1) - 1)``

plus the right-shift requantization the YOLOv3 GEMM applies to its int32
accumulator (Algorithm 2's ``absolutemax(ctmp[j] / 32, 32767)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError

_DTYPES = {8: np.int8, 16: np.int16, 32: np.int32}


def qrange(bits: int) -> tuple[int, int]:
    """(min, max) representable values of a signed ``bits``-wide integer."""
    if bits not in _DTYPES:
        raise QuantizationError(f"unsupported quantization width: {bits} bits")
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def qdtype(bits: int) -> np.dtype:
    """Numpy dtype for a signed ``bits``-wide integer."""
    if bits not in _DTYPES:
        raise QuantizationError(f"unsupported quantization width: {bits} bits")
    return np.dtype(_DTYPES[bits])


@dataclass(frozen=True)
class QuantParams:
    """Parameters of one symmetric quantizer."""

    scale: float
    bits: int = 16

    def __post_init__(self) -> None:
        if self.scale <= 0 or not np.isfinite(self.scale):
            raise QuantizationError(f"scale must be positive, got {self.scale}")
        qrange(self.bits)  # validates bits

    @staticmethod
    def from_tensor(values: np.ndarray, bits: int = 16) -> "QuantParams":
        """Calibrate a symmetric quantizer to a tensor's max magnitude."""
        peak = 0.0
        if values.size:  # the magnitude peak, without an ``abs`` copy
            peak = max(float(values.max()), -float(values.min()))
        _, hi = qrange(bits)
        scale = peak / hi
        if scale <= 0.0 or not np.isfinite(scale):
            # all-zero (or denormal-peak) tensors quantize with unit scale
            scale = 1.0 / hi
        return QuantParams(scale=scale, bits=bits)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Float tensor -> fixed-point tensor (round-half-away, saturating)."""
        lo, hi = qrange(self.bits)
        # One float64 working array: |x| / scale, rounded half up, signed
        # as x (scale > 0), then saturated.
        work = np.abs(values, dtype=np.float64)
        work /= self.scale
        work += 0.5
        np.floor(work, out=work)
        np.copysign(work, values, out=work)
        np.clip(work, lo, hi, out=work)
        return work.astype(qdtype(self.bits))

    def dequantize(self, values: np.ndarray) -> np.ndarray:
        """Fixed-point tensor -> float tensor."""
        return np.asarray(values, dtype=np.float32) * np.float32(self.scale)


def quantize_tensor(
    values: np.ndarray, bits: int = 16
) -> tuple[np.ndarray, QuantParams]:
    """Calibrate and quantize in one step."""
    params = QuantParams.from_tensor(values, bits)
    return params.quantize(values), params


def requantize_shift(
    accumulator: np.ndarray, shift_divisor: int = 32, clamp: int = 32767
) -> np.ndarray:
    """Algorithm 2's accumulator rescale: ``absolutemax(x / divisor, clamp)``.

    The int32 GEMM accumulator is divided by a constant and clamped
    symmetrically into the int16 output range.  Division truncates toward
    zero, matching C integer semantics on the DPU.
    """
    if shift_divisor <= 0:
        raise QuantizationError(f"divisor must be positive, got {shift_divisor}")
    if clamp <= 0:
        raise QuantizationError(f"clamp must be positive, got {clamp}")
    acc = np.array(accumulator, dtype=np.int64)  # the one working copy
    sign = np.sign(acc)  # a masked ``np.negative`` is several times slower
    np.abs(acc, out=acc)
    acc //= shift_divisor
    np.minimum(acc, clamp, out=acc)
    acc *= sign
    return acc.astype(np.int32)


def quantization_error(values: np.ndarray, bits: int = 16) -> float:
    """RMS round-trip error of quantizing a tensor (diagnostic helper)."""
    quantized, params = quantize_tensor(values, bits)
    restored = params.dequantize(quantized)
    return float(np.sqrt(np.mean((np.asarray(values) - restored) ** 2)))
