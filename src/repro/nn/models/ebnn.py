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
    fully_connected,
    maxpool2d_int,
    softmax,
)


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

    def logits(self, binary_features: np.ndarray) -> np.ndarray:
        """FC layer over {0,1} features re-expanded to {-1,+1}."""
        signs = np.where(binary_features.reshape(-1) > 0, 1.0, -1.0)
        return fully_connected(signs, self.fc_weights.astype(np.float32))

    def classify_features(self, binary_features: np.ndarray) -> tuple[int, np.ndarray]:
        """Softmax inference on DPU-produced features; returns (label, probs)."""
        probs = softmax(self.logits(binary_features))
        return int(np.argmax(probs)), probs

    def predict(self, image: np.ndarray) -> int:
        """Full reference inference for one image."""
        label, _ = self.classify_features(self.features(image))
        return label

    def predict_batch(self, images: np.ndarray) -> np.ndarray:
        """Reference inference over a (n, H, W) batch."""
        return np.array([self.predict(image) for image in images], dtype=np.int64)
