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

from dataclasses import dataclass

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

    def macs(self, out_channels: int) -> int:
        """Multiply-accumulate count of the convolution."""
        return out_channels * self.gemm_k * self.gemm_n


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
    if g.padding:
        image = np.pad(
            image,
            ((0, 0), (g.padding, g.padding), (g.padding, g.padding)),
            mode="constant",
        )
    # (C, out_h, out_w, k, k) windows, copied once into (C, k, k) rows.
    windows = np.lib.stride_tricks.sliding_window_view(
        image, (g.kernel, g.kernel), axis=(1, 2)
    )[:, :: g.stride, :: g.stride]
    columns = np.array(windows.transpose(0, 3, 4, 1, 2), order="C")
    return columns.reshape(g.gemm_k, g.gemm_n)


def col2im_output(flat_output: np.ndarray, geometry: ConvGeometry) -> np.ndarray:
    """Reshape a GEMM output row-block (M, N) back to (M, out_h, out_w)."""
    m = flat_output.shape[0]
    return flat_output.reshape(m, geometry.out_height, geometry.out_width)
