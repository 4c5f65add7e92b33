"""im2col lowering of convolution to matrix multiplication.

Darknet (and therefore the paper's YOLOv3) computes each convolutional
layer as ``C = A x B`` where ``A`` is the weight matrix (filters x
filter-volume), ``B`` the im2col-expanded input (filter-volume x output
pixels) and ``C`` the output feature map.  The GEMM is what gets mapped
onto DPUs (Section 4.2.3); this module provides the lowering and its
inverse bookkeeping.

Tensors are CHW (channels, height, width), the Darknet layout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import WorkloadError


@dataclass(frozen=True)
class ConvGeometry:
    """Spatial geometry of one convolution."""

    in_channels: int
    in_height: int
    in_width: int
    kernel: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        if min(self.in_channels, self.in_height, self.in_width, self.kernel) < 1:
            raise WorkloadError(f"non-positive convolution geometry: {self}")
        if self.stride < 1 or self.padding < 0:
            raise WorkloadError(f"bad stride/padding: {self}")
        if self.out_height < 1 or self.out_width < 1:
            raise WorkloadError(f"kernel does not fit input: {self}")

    @property
    def out_height(self) -> int:
        return (self.in_height + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.in_width + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def gemm_k(self) -> int:
        """Filter volume: the GEMM inner dimension K."""
        return self.in_channels * self.kernel * self.kernel

    @property
    def gemm_n(self) -> int:
        """Output pixels: the GEMM column dimension N."""
        return self.out_height * self.out_width

    @functools.cached_property
    def covered(self) -> tuple:
        """Index of the input pixels that im2col keeps (padding aside)."""
        return _covered(self)

    def macs(self, out_channels: int) -> int:
        """Multiply-accumulate count of the convolution."""
        return out_channels * self.gemm_k * self.gemm_n


@functools.lru_cache(maxsize=1024)
def _covered(geometry: ConvGeometry) -> tuple:
    """:attr:`ConvGeometry.covered`, found once per geometry value (every
    model instance, a served pool's included, shares it) by lowering the
    pixels' numbers, 1 up; padding lowers to 0."""
    h, w = geometry.in_height, geometry.in_width
    numbers = np.arange(1, h * w + 1).reshape(1, h, w)
    read = np.setdiff1d(im2col(numbers, replace(geometry, in_channels=1)), 0) - 1
    return (...,) if read.size == h * w else (slice(None), *divmod(read, w))


def im2col(image: np.ndarray, geometry: ConvGeometry) -> np.ndarray:
    """Expand a CHW image into the (K, N) im2col matrix.

    Row ``c * kernel**2 + ky * kernel + kx`` holds, for every output pixel,
    the input value that filter tap ``(c, ky, kx)`` sees.
    """
    c, h, w = image.shape
    g = geometry
    if (c, h, w) != (g.in_channels, g.in_height, g.in_width):
        raise WorkloadError(
            f"image shape {image.shape} does not match geometry "
            f"({g.in_channels}, {g.in_height}, {g.in_width})"
        )
    if p := g.padding:  # the zero border, written once around the image
        padded = np.zeros((c, h + 2 * p, w + 2 * p), image.dtype)
        padded[:, p : p + h, p : p + w] = image
        image = padded
    image = np.ascontiguousarray(image)
    sc, sh, sw = image.strides
    windows = np.ndarray(  # (C, k, k, out_h, out_w), on the image's buffer
        (c, g.kernel, g.kernel, g.out_height, g.out_width), image.dtype,
        image, 0, (sc, sh, sw, sh * g.stride, sw * g.stride),
    )
    columns = np.empty((g.gemm_k, g.gemm_n), image.dtype)
    columns.reshape(windows.shape)[...] = windows
    return columns


def col2im_output(flat_output: np.ndarray, geometry: ConvGeometry) -> np.ndarray:
    """Reshape a GEMM output row-block (M, N) back to (M, out_h, out_w)."""
    m = flat_output.shape[0]
    return flat_output.reshape(m, geometry.out_height, geometry.out_width)
