"""The GEMM at the heart of the YOLOv3 convolution mapping (Algorithm 2).

Darknet lowers convolutions to a triple-nested GEMM; the paper unrolls the
outer (filter) loop across DPUs and the inner (column) loop across
tasklets.  Two functionally identical implementations live here:

* :func:`gemm_reference` — the literal Algorithm 2 loop nest, including the
  per-row ``ctmp`` accumulator and the ``absolutemax(ctmp/32, 32767)``
  output rescale.  Used by tests as ground truth and by the single-row
  DPU kernel.
* :func:`gemm_fast` — a vectorized numpy equivalent for full-size layers.

Both operate on integer matrices (quantized weights/activations); the
accumulator is wide (int64 in numpy, standing in for the DPU's int32 with
the thesis's /32 rescale guarding overflow).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.nn.quantize import requantize_shift

#: Algorithm 2's output clamp (int16 positive limit).
OUTPUT_CLAMP = 32767

#: Algorithm 2's accumulator divisor.
OUTPUT_DIVISOR = 32


@dataclass(frozen=True)
class GemmShape:
    """Dimensions of one GEMM: C(MxN) = A(MxK) x B(KxN)."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) < 1:
            raise WorkloadError(f"non-positive GEMM shape: {self}")

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations in the full GEMM."""
        return self.m * self.n * self.k

    @property
    def output_elements(self) -> int:
        return self.m * self.n


def gemm_reference(
    m: int,
    n: int,
    k: int,
    alpha: int,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    *,
    divisor: int = OUTPUT_DIVISOR,
    clamp: int = OUTPUT_CLAMP,
) -> None:
    """Algorithm 2, literally: accumulate into ``ctmp``, rescale into ``c``.

    ``a`` is (m, k), ``b`` is (k, n), ``c`` is (m, n) and is overwritten.
    ``alpha`` scales each weight before the inner loop, matching the
    Darknet GEMM signature.
    """
    _check_shapes(m, n, k, a, b, c)
    ctmp = np.zeros(n, dtype=np.int64)
    for i in range(m):
        ctmp[:] = 0
        for kk in range(k):
            apart = int(alpha) * int(a[i, kk])
            for j in range(n):
                ctmp[j] += apart * int(b[kk, j])
        out = requantize_shift(ctmp, divisor, clamp)
        c[i, :] = out
        ctmp[:] = 0


def gemm_row(
    alpha: int,
    a_row: np.ndarray,
    b: np.ndarray,
    *,
    divisor: int = OUTPUT_DIVISOR,
    clamp: int = OUTPUT_CLAMP,
) -> np.ndarray:
    """One filter row of Algorithm 2 — the unit of work one DPU receives.

    Vectorized over columns (the tasklet dimension) but still one row at a
    time, matching the Fig. 4.6 distribution.
    """
    if a_row.ndim != 1 or b.ndim != 2 or a_row.shape[0] != b.shape[0]:
        raise WorkloadError(
            f"row GEMM shape mismatch: a_row {a_row.shape}, b {b.shape}"
        )
    ctmp = (int(alpha) * a_row.astype(np.int64)) @ b.astype(np.int64)
    return requantize_shift(ctmp, divisor, clamp)


def gemm_fast(
    alpha: int,
    a: np.ndarray,
    b: np.ndarray,
    *,
    divisor: int = OUTPUT_DIVISOR,
    clamp: int = OUTPUT_CLAMP,
) -> np.ndarray:
    """Vectorized Algorithm 2 over all rows; returns C of shape (m, n).

    Integer operands whose every partial sum stays below 2**53 multiply
    in float64 (BLAS): each partial sum is then an exact integer, so any
    summation order gives the int64 result.  Wider operands keep int64.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise WorkloadError(f"GEMM shape mismatch: a {a.shape}, b {b.shape}")
    dtype = np.int64
    if a.dtype.kind in "iu" and b.dtype.kind in "iu":
        scale = abs(int(alpha)) * a.shape[1]
        # The dtypes' ranges decide most calls without scanning the data.
        if scale << 8 * (a.itemsize + b.itemsize) < 2**53 or (
            scale * _magnitude(a) * _magnitude(b) < 2**53
        ):
            dtype = np.float64
    acc = a.astype(dtype) @ b.astype(dtype)
    if alpha != 1:
        acc *= int(alpha)  # exact either way, so (alpha * a) @ b == this
    return requantize_shift(acc, divisor, clamp)


def _magnitude(x: np.ndarray) -> int:
    """The largest absolute value in an integer array (0 when empty)."""
    return max(-int(x.min()), int(x.max())) if x.size else 0


def _check_shapes(
    m: int, n: int, k: int, a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> None:
    if a.shape != (m, k):
        raise WorkloadError(f"A has shape {a.shape}, expected {(m, k)}")
    if b.shape != (k, n):
        raise WorkloadError(f"B has shape {b.shape}, expected {(k, n)}")
    if c.shape != (m, n):
        raise WorkloadError(f"C has shape {c.shape}, expected {(m, n)}")
