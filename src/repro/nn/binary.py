"""Binary (1-bit) neural network primitives for eBNN.

eBNN binarizes inputs, weights and temporaries to {-1, +1} (Section 4.1.1),
turning convolution into XNOR + popcount over bit-packed words — the
representation that lets 16 MNIST images fit one 2048-byte DMA staging
transfer (Section 4.1.3: a 28x28 binary image packs into 98 bytes).

Conventions: bit value 1 encodes +1, bit 0 encodes -1.  A dot product of
two n-long {-1,+1} vectors is ``n - 2 * popcount(a XOR b)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError

#: Bytes one binarized 28x28 MNIST image occupies when bit-packed.
MNIST_PACKED_BYTES = 98  # ceil(784 / 8)

#: Packed bytes padded to the 8-byte transfer rule.
MNIST_PACKED_PADDED_BYTES = 104


def binarize(values: np.ndarray, threshold: float = 0.0) -> np.ndarray:
    """Map a real tensor to {-1, +1} int8 (>= threshold -> +1)."""
    return np.where(np.asarray(values) >= threshold, 1, -1).astype(np.int8)


def to_bits(signs: np.ndarray) -> np.ndarray:
    """{-1,+1} tensor -> {0,1} uint8 tensor."""
    signs = np.asarray(signs)
    if not np.all(np.isin(signs, (-1, 1))):
        raise WorkloadError("to_bits expects a {-1,+1} tensor")
    return (signs > 0).astype(np.uint8)


def from_bits(bits: np.ndarray) -> np.ndarray:
    """{0,1} tensor -> {-1,+1} int8 tensor."""
    bits = np.asarray(bits)
    if not np.all(np.isin(bits, (0, 1))):
        raise WorkloadError("from_bits expects a {0,1} tensor")
    return np.where(bits > 0, 1, -1).astype(np.int8)


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a flat {0,1} array into bytes (little-endian bit order)."""
    flat = np.asarray(bits).reshape(-1)
    return np.packbits(flat, bitorder="little").tobytes()


def unpack_bits(data: bytes, count: int) -> np.ndarray:
    """Unpack ``count`` bits from bytes (inverse of :func:`pack_bits`)."""
    arr = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(arr, bitorder="little")
    if bits.size < count:
        raise WorkloadError(f"{bits.size} bits available, {count} requested")
    return bits[:count]


def pack_image(image: np.ndarray, threshold: float = 0.5) -> bytes:
    """Binarize and bit-pack one HxW image (the DMA staging format)."""
    signs = binarize(np.asarray(image, dtype=np.float64), threshold)
    return pack_bits(to_bits(signs))


def pack_images(images, side: int) -> np.ndarray:
    """Binarize and bit-pack a batch of ``side`` x ``side`` images in one
    pass: row ``i`` of the returned ``(n, ceil(side*side / 8))`` uint8
    array holds the bytes :func:`pack_image` makes of image ``i``.

    ``images`` is an ``(n, side, side)`` array or a sequence of
    ``(side, side)`` arrays.  Every pixel is compared with 0.5 straight
    into one bool block, so the batch is never copied to float64; 0.5 is
    exact in every float dtype, so the comparison in the payload's own
    dtype agrees with :func:`pack_image`'s.
    """
    if isinstance(images, np.ndarray):
        shapes = {images.shape[1:]}
    else:
        shapes = {np.shape(image) for image in images}
    if not shapes <= {(side, side)}:
        raise WorkloadError(
            f"images must be {side}x{side}; got shapes "
            f"{sorted(shapes - {(side, side)})}"
        )
    bits = np.empty((len(images), side, side), dtype=bool)
    if isinstance(images, np.ndarray):
        np.greater_equal(images, 0.5, out=bits)
    else:
        for image, row in zip(images, bits):
            np.greater_equal(image, 0.5, out=row)
    return np.packbits(bits.reshape(len(images), -1), axis=1, bitorder="little")


def unpack_image(data: bytes, height: int, width: int) -> np.ndarray:
    """Recover the {-1,+1} image from its packed form."""
    bits = unpack_bits(data, height * width)
    return from_bits(bits).reshape(height, width)


def binary_dot(a_signs: np.ndarray, b_signs: np.ndarray) -> int:
    """Dot product of two {-1,+1} vectors via the XNOR-popcount identity."""
    a = to_bits(a_signs).astype(np.uint8)
    b = to_bits(b_signs).astype(np.uint8)
    if a.shape != b.shape:
        raise WorkloadError(f"binary_dot shape mismatch: {a.shape} vs {b.shape}")
    disagreements = int(np.count_nonzero(a ^ b))
    return a.size - 2 * disagreements


def binary_conv2d(
    image_signs: np.ndarray,
    weight_signs: np.ndarray,
    *,
    padding: int = 1,
    stride: int = 1,
) -> np.ndarray:
    """Binary convolution: {-1,+1} image x {-1,+1} filters -> int map.

    ``image_signs`` is (H, W); ``weight_signs`` is (filters, k, k).  Output
    values are the integer correlation sums, each in [-k*k, k*k] — the
    bounded range Algorithm 1's LUT indexes over.  Padding contributes -1
    (the binary representation has no zero), matching eBNN's convention.
    """
    if image_signs.ndim != 2 or weight_signs.ndim != 3:
        raise WorkloadError(
            f"expected (H,W) image and (F,k,k) weights, got "
            f"{image_signs.shape} and {weight_signs.shape}"
        )
    return binary_conv2d_stack(
        image_signs[None], weight_signs, padding=padding, stride=stride
    )[0].astype(np.int32)


def binary_conv2d_stack(
    images_signs: np.ndarray,
    weight_signs: np.ndarray,
    *,
    padding: int = 1,
    stride: int = 1,
) -> np.ndarray:
    """:func:`binary_conv2d` over a stack of images, vectorised.

    ``images_signs`` is (n, H, W); returns (n, filters, H', W'), image by
    image what :func:`binary_conv2d` returns, in the narrowest signed
    integer dtype that holds [-k*k, k*k] (int8 for eBNN's 3x3 filters),
    so a stack's working set stays small.
    """
    if images_signs.ndim != 3 or weight_signs.ndim != 3:
        raise WorkloadError(
            f"expected (n,H,W) images and (F,k,k) weights, got "
            f"{images_signs.shape} and {weight_signs.shape}"
        )
    kernel = weight_signs.shape[1]
    if weight_signs.shape[2] != kernel:
        raise WorkloadError(f"non-square binary kernel: {weight_signs.shape}")
    padded = np.pad(
        images_signs,
        ((0, 0), (padding, padding), (padding, padding)),
        mode="constant",
        constant_values=-1,
    )
    n, h, w = padded.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    filters = weight_signs.shape[0]
    dtype = np.min_scalar_type(-kernel * kernel)
    out = np.zeros((n, filters, out_h, out_w), dtype=dtype)
    weights = weight_signs.astype(dtype)
    for ky in range(kernel):
        for kx in range(kernel):
            patch = padded[
                :,
                ky : ky + out_h * stride : stride,
                kx : kx + out_w * stride : stride,
            ].astype(dtype)
            out += weights[:, ky, kx][:, None, None] * patch[:, None, :, :]
    return out


def binary_conv2d_multi(
    input_signs: np.ndarray,
    weight_signs: np.ndarray,
    *,
    padding: int = 1,
    stride: int = 1,
) -> np.ndarray:
    """Multi-channel binary convolution: (C,H,W) x (F,C,k,k) -> (F,H',W').

    The building block for stacking conv-pool blocks (deeper eBNNs, the
    Section 6.1 direction): the output of one block — F binary maps —
    feeds the next block's C input channels.  Outputs lie in
    ``[-k*k*C, +k*k*C]``, the range Algorithm 1's LUT must cover for that
    block.
    """
    if input_signs.ndim != 3 or weight_signs.ndim != 4:
        raise WorkloadError(
            f"expected (C,H,W) input and (F,C,k,k) weights, got "
            f"{input_signs.shape} and {weight_signs.shape}"
        )
    channels = input_signs.shape[0]
    if weight_signs.shape[1] != channels:
        raise WorkloadError(
            f"weights expect {weight_signs.shape[1]} channels, input has "
            f"{channels}"
        )
    total = None
    for channel in range(channels):
        partial = binary_conv2d(
            input_signs[channel],
            weight_signs[:, channel],
            padding=padding,
            stride=stride,
        )
        total = partial if total is None else total + partial
    return total


def conv_result_range(kernel: int, in_channels: int = 1) -> tuple[int, int]:
    """Smallest/largest possible binary conv output (Algorithm 1's x and y).

    The range depends only on the filter size (Section 4.1.4): a k x k x C
    binary correlation lies in [-k*k*C, +k*k*C].
    """
    if kernel < 1 or in_channels < 1:
        raise WorkloadError(f"bad kernel/channels: {kernel}, {in_channels}")
    peak = kernel * kernel * in_channels
    return -peak, peak
