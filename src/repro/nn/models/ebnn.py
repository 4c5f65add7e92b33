"""The eBNN model of Section 4.1.

A custom embedded binarized network: one Convolutional-Pooling block
(binary conv -> max-pool -> BatchNorm -> BinaryActivation) followed by a
host-side fully-connected + Softmax classifier.  Inputs, weights and
temporaries are binary; only the BN block carries floating point — which is
exactly what the Algorithm 1 LUT transformation removes from the DPU.

Weights are synthesized deterministically (no trained MNIST weights ship
with the thesis either); every result the paper reports about eBNN is a
*performance* result that depends on shapes and operation counts, which
this model reproduces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.nn.binary import (
    binarize,
    binary_conv2d,
    binary_conv2d_stack,
    conv_result_range,
)
from repro.nn.layers import (
    BatchNormParams,
    binary_activation,
    maxpool2d_int,
    softmax,
)


#: Feature rows XORed against every class at once.  A whole wave's
#: (256, 10, 49) uint64 XOR is a 1 MB temporary that the heap keeps
#: resident once freed; 32 rows of it are 125 KB.
_XOR_ROWS = 32


@dataclass(frozen=True)
class EbnnConfig:
    """Shapes of the eBNN used throughout the evaluation."""

    image_size: int = 28
    filters: int = 16
    kernel: int = 3
    pool: int = 2
    classes: int = 10

    @property
    def conv_out(self) -> int:
        """Convolution output side (same-padding, stride 1)."""
        return self.image_size

    @property
    def pooled_out(self) -> int:
        return self.conv_out // self.pool

    @property
    def feature_count(self) -> int:
        """Flattened binary feature vector length entering the FC layer."""
        return self.filters * self.pooled_out * self.pooled_out

    @property
    def feature_bytes(self) -> int:
        """Bytes of the bit-packed feature vector (pad bits in the last)."""
        return -(-self.feature_count // 8)

    @property
    def conv_range(self) -> tuple[int, int]:
        """Possible conv/pool output values (Algorithm 1's x and y)."""
        return conv_result_range(self.kernel)

    def conv_macs_per_image(self) -> int:
        """Binary MAC count of the conv block for one image."""
        return self.filters * self.conv_out * self.conv_out * self.kernel**2

    def bn_outputs_per_image(self) -> int:
        """Values passing through BN+BinAct per image."""
        return self.filters * self.pooled_out * self.pooled_out


@dataclass
class EbnnModel:
    """Deterministic eBNN instance: binary conv + BN + binary FC."""

    config: EbnnConfig = field(default_factory=EbnnConfig)
    seed: int = 2022

    def __post_init__(self) -> None:
        cfg = self.config
        rng = np.random.default_rng(self.seed)
        self.conv_weights = rng.choice(
            np.array([-1, 1], dtype=np.int8),
            size=(cfg.filters, cfg.kernel, cfg.kernel),
        )
        # Plausible BN statistics: near-zero means, unit-ish deviations.
        self.bn = BatchNormParams(
            w0=rng.uniform(-0.5, 0.5, cfg.filters).astype(np.float32),
            w1=rng.uniform(-2.0, 2.0, cfg.filters).astype(np.float32),
            w2=rng.uniform(0.5, 3.0, cfg.filters).astype(np.float32),
            w3=rng.uniform(0.5, 1.5, cfg.filters).astype(np.float32),
            w4=rng.uniform(-0.5, 0.5, cfg.filters).astype(np.float32),
        )
        self.fc_weights = rng.choice(
            np.array([-1, 1], dtype=np.int8),
            size=(cfg.classes, cfg.feature_count),
        )

    # ------------------------------------------------------------------ #
    # the DPU-side pipeline, reference (floating-point BN) path
    # ------------------------------------------------------------------ #

    def conv_pool(self, image: np.ndarray) -> np.ndarray:
        """Binary conv + integer max-pool; output (filters, p, p) ints."""
        cfg = self.config
        if image.shape != (cfg.image_size, cfg.image_size):
            raise WorkloadError(
                f"image shape {image.shape} != "
                f"({cfg.image_size}, {cfg.image_size})"
            )
        signs = binarize(np.asarray(image, dtype=np.float64), 0.5)
        conv = binary_conv2d(signs, self.conv_weights, padding=cfg.kernel // 2)
        return maxpool2d_int(conv, cfg.pool)

    def conv_pool_stack(self, signs: np.ndarray) -> np.ndarray:
        """:meth:`conv_pool` over a stack of binarized images, vectorised.

        ``signs`` is (n, H, W) in {-1, +1}; returns (n, filters, p, p),
        image by image what :meth:`conv_pool` returns.
        """
        cfg = self.config
        conv = binary_conv2d_stack(
            signs, self.conv_weights, padding=cfg.kernel // 2
        )
        return maxpool2d_int(conv, cfg.pool)

    def bn_binact_float(self, pooled: np.ndarray) -> np.ndarray:
        """The default Fig. 4.2(a) path: float BN then binary activation.

        ``pooled`` is one image's (filters, p, p) maps or a stack of them.
        """
        normalized = self.bn.apply_all(pooled.astype(np.float64))
        return binary_activation(normalized)

    def features(self, image: np.ndarray) -> np.ndarray:
        """Binary feature tensor the DPU ships back to the host."""
        return self.bn_binact_float(self.conv_pool(image))

    # ------------------------------------------------------------------ #
    # the host-side classifier
    # ------------------------------------------------------------------ #

    @property
    def fc_weights(self) -> np.ndarray:
        """The (classes, feature_count) {-1,+1} int8 FC weights."""
        return self._fc_weights

    @fc_weights.setter
    def fc_weights(self, weights: np.ndarray) -> None:
        # Pack once per weight matrix, bit 1 for +1 in the DPU's
        # ``results`` bit order, into 64-bit words; the mask keeps the
        # feature bits and drops the pad bits of the last word.
        self._fc_weights = weights
        self._packed_fc = self._words(
            np.packbits(weights > 0, axis=1, bitorder="little")
        )
        self._pad_mask = self._words(np.packbits(
            np.ones((1, self.config.feature_count), dtype=bool),
            axis=1, bitorder="little",
        ))[0]

    def classify_packed(self, packed: np.ndarray) -> np.ndarray:
        """Labels of an (n, feature_bytes) block of packed features.

        Each row is one image's binary features as the DPU writes them to
        ``results`` (``packbits(..., bitorder="little")``).  Over +-1
        values a dot product is ``feature_count - 2 * popcount(a XOR w)``
        (Section 4.1.1), so the logits are exact integers.  Pad bits past
        ``feature_count`` are masked off and change nothing.  Ties go to
        the first maximum, as in :meth:`classify_features`.
        """
        return np.argmax(self.packed_logits(packed), axis=-1)

    def packed_logits(self, packed: np.ndarray) -> np.ndarray:
        """(n, classes) exact integer FC logits of a packed feature block."""
        words = self._words(packed)
        words &= self._pad_mask  # the weights' pad bits are 0
        popcount = np.empty((len(words), len(self._packed_fc)), dtype=np.int64)
        for start in range(0, len(words), _XOR_ROWS):
            rows = words[start : start + _XOR_ROWS, None, :]
            popcount[start : start + _XOR_ROWS] = np.bitwise_count(
                rows ^ self._packed_fc
            ).sum(axis=-1)
        return self.config.feature_count - 2 * popcount

    def _words(self, packed: np.ndarray) -> np.ndarray:
        """(n, feature_bytes) uint8 rows as (n, words) uint64, zero-padded."""
        n_bytes = self.config.feature_bytes
        if packed.ndim != 2 or packed.shape[1] != n_bytes:
            raise WorkloadError(
                f"packed features {packed.shape} are not (n, {n_bytes})"
            )
        rows = np.zeros((len(packed), -(-n_bytes // 8) * 8), dtype=np.uint8)
        rows[:, :n_bytes] = packed
        return rows.view(np.uint64)

    def logits(self, binary_features: np.ndarray) -> np.ndarray:
        """FC layer over {0,1} features read as {-1,+1}: exact integers,
        through the packed identity of :meth:`classify_packed`."""
        bits = binary_features.reshape(-1) > 0
        if bits.size != self.config.feature_count:
            raise WorkloadError(
                f"{bits.size} features, the FC layer takes "
                f"{self.config.feature_count}"
            )
        return self.packed_logits(np.packbits(bits, bitorder="little")[None])[0]

    def classify_features(self, binary_features: np.ndarray) -> tuple[int, np.ndarray]:
        """Softmax inference on DPU-produced features; returns (label, probs)."""
        logits = self.logits(binary_features)
        return int(np.argmax(logits)), softmax(logits)

    def predict(self, image: np.ndarray) -> int:
        """Full reference inference for one image."""
        label, _ = self.classify_features(self.features(image))
        return label

    def predict_batch(self, images: np.ndarray) -> np.ndarray:
        """Reference inference over a (n, H, W) batch."""
        return np.array([self.predict(image) for image in images], dtype=np.int64)
