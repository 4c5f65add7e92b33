"""Functional CNN layers (numpy reference implementations).

These are the building blocks the paper's two networks are made of:
convolution (via im2col + GEMM), max-pooling, batch normalization, the
activations Darknet uses, softmax, and the structural layers of YOLOv3
(upsample, shortcut, route).  All operate on CHW tensors and serve both as
the functional ground truth for the DPU mapping schemes and as the host-side
portion of the split execution (Section 4: the host runs everything that is
not the data-centric GEMM/convolution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.nn.im2col import ConvGeometry, col2im_output, im2col


def conv2d(
    image: np.ndarray,
    weights: np.ndarray,
    geometry: ConvGeometry,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """2-D convolution of a CHW image; weights are (filters, C, k, k)."""
    filters = weights.shape[0]
    if weights.shape[1:] != (geometry.in_channels, geometry.kernel, geometry.kernel):
        raise WorkloadError(
            f"weights {weights.shape} do not match geometry {geometry}"
        )
    a = weights.reshape(filters, geometry.gemm_k).astype(np.float64)
    b = im2col(image.astype(np.float64), geometry)
    out = a @ b
    if bias is not None:
        if bias.shape != (filters,):
            raise WorkloadError(f"bias shape {bias.shape} != ({filters},)")
        out += bias[:, None]
    return col2im_output(out.astype(np.float32), geometry)


def maxpool2d(image: np.ndarray, size: int, stride: int | None = None) -> np.ndarray:
    """Max pooling over a CHW tensor."""
    if size < 1:
        raise WorkloadError(f"pool size must be >= 1, got {size}")
    stride = stride or size
    c, h, w = image.shape
    out_h = (h - size) // stride + 1
    out_w = (w - size) // stride + 1
    if out_h < 1 or out_w < 1:
        raise WorkloadError(f"pool window {size} does not fit input {image.shape}")
    out = np.full((c, out_h, out_w), -np.inf, dtype=np.float64)
    for dy in range(size):
        for dx in range(size):
            patch = image[
                :,
                dy : dy + out_h * stride : stride,
                dx : dx + out_w * stride : stride,
            ]
            out = np.maximum(out, patch)
    return out.astype(image.dtype if image.dtype.kind == "f" else np.float32)


def maxpool2d_int(image: np.ndarray, size: int, stride: int | None = None) -> np.ndarray:
    """Integer max pooling (keeps the integer dtype; used by eBNN on DPU).

    Pools the last two axes of a (..., C, H, W) tensor.
    """
    stride = stride or size
    h, w = image.shape[-2:]
    out_h = (h - size) // stride + 1
    out_w = (w - size) // stride + 1
    out = None
    for dy in range(size):
        for dx in range(size):
            patch = image[
                ...,
                dy : dy + out_h * stride : stride,
                dx : dx + out_w * stride : stride,
            ]
            out = patch.copy() if out is None else np.maximum(out, patch)
    return out


@dataclass(frozen=True)
class BatchNormParams:
    """Per-filter batch-normalization parameters, Algorithm 1 layout.

    Algorithm 1 expresses the BN block as five per-filter weight arrays:
    ``tmp = (((x + W0 - W1) / W2) * W3) + W4`` — W0 a pre-shift, W1 the
    mean, W2 the standard deviation, W3 gamma, W4 beta.
    """

    w0: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    w4: np.ndarray

    def __post_init__(self) -> None:
        shapes = {w.shape for w in (self.w0, self.w1, self.w2, self.w3, self.w4)}
        if len(shapes) != 1 or len(self.w0.shape) != 1:
            raise WorkloadError("BN weight arrays must share one 1-D shape")
        if np.any(self.w2 == 0):
            raise WorkloadError("BN W2 (standard deviation) contains zeros")

    @property
    def n_filters(self) -> int:
        return self.w0.shape[0]

    def apply(self, value: np.ndarray, filter_index: int) -> np.ndarray:
        """The BN block of Algorithm 1 for one filter (float path)."""
        j = filter_index
        tmp = value + self.w0[j]
        tmp = tmp - self.w1[j]
        tmp = tmp / self.w2[j]
        tmp = tmp * self.w3[j]
        return tmp + self.w4[j]

    def apply_all(self, feature_maps: np.ndarray) -> np.ndarray:
        """Vectorized BN over a (..., filters, H, W) tensor."""
        if feature_maps.ndim < 3 or feature_maps.shape[-3] != self.n_filters:
            raise WorkloadError(
                f"maps of shape {feature_maps.shape} for "
                f"{self.n_filters} BN filters"
            )
        shape = (-1, 1, 1)
        tmp = feature_maps + self.w0.reshape(shape) - self.w1.reshape(shape)
        tmp = tmp / self.w2.reshape(shape)
        return tmp * self.w3.reshape(shape) + self.w4.reshape(shape)


def batchnorm_inference(
    x: np.ndarray,
    mean: np.ndarray,
    variance: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Standard inference-time batch normalization over CHW."""
    shape = (-1, 1, 1)
    inv = 1.0 / np.sqrt(variance + eps)
    return (x - mean.reshape(shape)) * (gamma * inv).reshape(shape) + beta.reshape(shape)


def binary_activation(x: np.ndarray) -> np.ndarray:
    """The BinAct block: 1 where x >= 0, else 0 (Algorithm 1 lines 14-17)."""
    return (np.asarray(x) >= 0).astype(np.int8)


def leaky_relu(x: np.ndarray, slope: float = 0.1) -> np.ndarray:
    """Darknet's leaky ReLU."""
    return np.where(x > 0, x, slope * x).astype(np.float32)


def linear_activation(x: np.ndarray) -> np.ndarray:
    """Identity activation (Darknet 'linear')."""
    return np.asarray(x, dtype=np.float32)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (the host-side layer)."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return (e / np.sum(e, axis=-1, keepdims=True)).astype(np.float32)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic activation (used by the YOLO detection head)."""
    return (1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))).astype(np.float32)


def upsample2x(image: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2x upsampling (YOLOv3's upsample layer)."""
    return np.repeat(np.repeat(image, 2, axis=1), 2, axis=2)


def shortcut(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Residual addition (YOLOv3's shortcut layer)."""
    if a.shape != b.shape:
        raise WorkloadError(f"shortcut shape mismatch: {a.shape} vs {b.shape}")
    return a + b


def route(tensors: list[np.ndarray]) -> np.ndarray:
    """Channel concatenation (YOLOv3's route layer)."""
    if not tensors:
        raise WorkloadError("route of zero tensors")
    spatial = {t.shape[1:] for t in tensors}
    if len(spatial) != 1:
        raise WorkloadError(f"route spatial mismatch: {sorted(spatial)}")
    return np.concatenate(tensors, axis=0)


def fully_connected(
    features: np.ndarray, weights: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """Dense layer: ``weights (out, in) @ features (in,)``."""
    features = np.asarray(features).reshape(-1)
    if weights.ndim != 2 or weights.shape[1] != features.shape[0]:
        raise WorkloadError(
            f"FC weights {weights.shape} do not match features {features.shape}"
        )
    # No BLAS: OpenBLAS threads a gemv this size, at an erratic latency.
    out = np.einsum("oi,i->o", weights, features, dtype=np.float64)
    if bias is not None:
        out += bias
    return out.astype(np.float32)
