"""YOLOv3 / Darknet-53 (Section 4.2).

The full 106-layer YOLOv3 graph: the Darknet-53 feature extractor (52
convolutional layers organized in residual stages) plus the three-scale
detection head (23 more conv layers, routes, upsamples and YOLO detection
layers).  The paper maps each convolutional layer's GEMM onto DPUs
(Fig. 4.6), so this module exposes, for every conv layer, the exact GEMM
dimensions (M = filters, K = filter volume, N = output pixels) alongside a
functional numpy forward pass with deterministic synthetic weights.

The standard 416x416 input yields 65.9 GFLOPs (32.9 G MACs), matching the
published network; a scaled-down builder supports fast tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.nn.gemm import GemmShape
from repro.nn.im2col import ConvGeometry, col2im_output, im2col
from repro.nn.layers import leaky_relu, linear_activation, route, shortcut, sigmoid, upsample2x

#: YOLOv3's nine anchor boxes (width, height) on the 416 scale.
YOLO_ANCHORS = (
    (10, 13), (16, 30), (33, 23),
    (30, 61), (62, 45), (59, 119),
    (116, 90), (156, 198), (373, 326),
)

#: Anchor indices used by each of the three detection scales.
YOLO_MASKS = ((6, 7, 8), (3, 4, 5), (0, 1, 2))

#: COCO class count the published YOLOv3 detects.
YOLO_CLASSES = 80


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the YOLOv3 graph."""

    kind: str                      # conv | shortcut | route | upsample | yolo
    filters: int = 0               # conv only
    size: int = 0                  # conv kernel size
    stride: int = 1                # conv stride
    batch_normalize: bool = True   # conv only
    activation: str = "leaky"      # conv: leaky | linear
    offsets: tuple[int, ...] = ()  # shortcut/route: relative layer indices
    mask: tuple[int, ...] = ()     # yolo: anchor mask

    @property
    def pad(self) -> int:
        return self.size // 2 if self.kind == "conv" else 0


def _conv(filters: int, size: int, stride: int = 1, activation: str = "leaky",
          batch_normalize: bool = True) -> LayerSpec:
    return LayerSpec(
        "conv", filters=filters, size=size, stride=stride,
        activation=activation, batch_normalize=batch_normalize,
    )


def build_yolov3_layers(width_scale: float = 1.0, classes: int = YOLO_CLASSES) -> list[LayerSpec]:
    """The full YOLOv3 layer list (106 layers for the standard network).

    ``width_scale`` shrinks every channel count (rounded up to >= 1) for
    fast functional tests; the layer *structure* is always the full graph.
    """
    def c(filters: int) -> int:
        return max(1, round(filters * width_scale))

    detect_filters = 3 * (5 + classes)
    layers: list[LayerSpec] = []

    # --- Darknet-53 backbone -------------------------------------------- #
    layers.append(_conv(c(32), 3))
    for stage_filters, blocks in ((64, 1), (128, 2), (256, 8), (512, 8), (1024, 4)):
        layers.append(_conv(c(stage_filters), 3, stride=2))  # downsample
        for _ in range(blocks):
            layers.append(_conv(c(stage_filters // 2), 1))
            layers.append(_conv(c(stage_filters), 3))
            layers.append(LayerSpec("shortcut", offsets=(-3,)))

    # --- detection head, scale 1 (13x13) -------------------------------- #
    for _ in range(3):
        layers.append(_conv(c(512), 1))
        layers.append(_conv(c(1024), 3))
    layers.append(_conv(detect_filters, 1, activation="linear", batch_normalize=False))
    layers.append(LayerSpec("yolo", mask=YOLO_MASKS[0]))

    # --- scale 2 (26x26) ------------------------------------------------ #
    layers.append(LayerSpec("route", offsets=(-4,)))
    layers.append(_conv(c(256), 1))
    layers.append(LayerSpec("upsample"))
    layers.append(LayerSpec("route", offsets=(-1, 61)))
    for _ in range(3):
        layers.append(_conv(c(256), 1))
        layers.append(_conv(c(512), 3))
    layers.append(_conv(detect_filters, 1, activation="linear", batch_normalize=False))
    layers.append(LayerSpec("yolo", mask=YOLO_MASKS[1]))

    # --- scale 3 (52x52) ------------------------------------------------ #
    layers.append(LayerSpec("route", offsets=(-4,)))
    layers.append(_conv(c(128), 1))
    layers.append(LayerSpec("upsample"))
    layers.append(LayerSpec("route", offsets=(-1, 36)))
    for _ in range(3):
        layers.append(_conv(c(128), 1))
        layers.append(_conv(c(256), 3))
    layers.append(_conv(detect_filters, 1, activation="linear", batch_normalize=False))
    layers.append(LayerSpec("yolo", mask=YOLO_MASKS[2]))

    return layers


@dataclass(frozen=True)
class ConvLayerPlan:
    """Resolved geometry of one convolutional layer in the graph."""

    layer_index: int
    spec: LayerSpec
    geometry: ConvGeometry

    @property
    def gemm(self) -> GemmShape:
        return GemmShape(
            m=self.spec.filters, n=self.geometry.gemm_n, k=self.geometry.gemm_k
        )

    @property
    def macs(self) -> int:
        return self.gemm.macs


class Yolov3Model:
    """A runnable YOLOv3 with deterministic synthetic weights."""

    def __init__(
        self,
        input_size: int = 416,
        *,
        width_scale: float = 1.0,
        classes: int = YOLO_CLASSES,
        seed: int = 2022,
    ) -> None:
        if input_size % 32 != 0:
            raise WorkloadError(
                f"input size {input_size} must be a multiple of 32"
            )
        self.input_size = input_size
        self.classes = classes
        self.layers = build_yolov3_layers(width_scale, classes)
        self.plans = self._resolve_geometry()
        self._rng = np.random.default_rng(seed)
        self._weights: dict[int, np.ndarray] = {}
        self._bn: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # static structure
    # ------------------------------------------------------------------ #

    def _resolve_geometry(self) -> list[ConvLayerPlan]:
        """Walk the graph symbolically to fix every conv layer's geometry."""
        plans: list[ConvLayerPlan] = []
        shapes: list[tuple[int, int, int]] = []  # per-layer output CHW
        current = (3, self.input_size, self.input_size)
        for index, spec in enumerate(self.layers):
            if spec.kind == "conv":
                geometry = ConvGeometry(
                    in_channels=current[0],
                    in_height=current[1],
                    in_width=current[2],
                    kernel=spec.size,
                    stride=spec.stride,
                    padding=spec.pad,
                )
                plans.append(ConvLayerPlan(index, spec, geometry))
                current = (spec.filters, geometry.out_height, geometry.out_width)
            elif spec.kind == "shortcut":
                current = shapes[index + spec.offsets[0]]
            elif spec.kind == "route":
                parts = [
                    shapes[off if off >= 0 else index + off]
                    for off in spec.offsets
                ]
                heights = {p[1] for p in parts}
                widths = {p[2] for p in parts}
                if len(heights) != 1 or len(widths) != 1:
                    raise WorkloadError(
                        f"route at layer {index} joins mismatched shapes {parts}"
                    )
                current = (sum(p[0] for p in parts), parts[0][1], parts[0][2])
            elif spec.kind == "upsample":
                current = (current[0], current[1] * 2, current[2] * 2)
            elif spec.kind == "yolo":
                pass  # shape preserved
            else:
                raise WorkloadError(f"unknown layer kind {spec.kind!r}")
            shapes.append(current)
        return plans

    @property
    def conv_layer_count(self) -> int:
        return len(self.plans)

    def gemm_shapes(self) -> list[GemmShape]:
        """GEMM dimensions of every convolutional layer, in order."""
        return [plan.gemm for plan in self.plans]

    def total_macs(self) -> int:
        """Multiply-accumulate count of a full forward pass."""
        return sum(plan.macs for plan in self.plans)

    # ------------------------------------------------------------------ #
    # weights (lazy, deterministic)
    # ------------------------------------------------------------------ #

    def conv_weights(self, plan: ConvLayerPlan) -> np.ndarray:
        """(filters, C, k, k) float32 weights for one conv layer."""
        w = self._weights.get(plan.layer_index)
        if w is None:
            g = plan.geometry
            fan_in = g.gemm_k
            w = self._rng.normal(
                0.0, 1.0 / np.sqrt(fan_in),
                size=(plan.spec.filters, g.in_channels, g.kernel, g.kernel),
            ).astype(np.float32)
            self._weights[plan.layer_index] = w
        return w

    def conv_bn(self, plan: ConvLayerPlan) -> tuple[np.ndarray, np.ndarray]:
        """Folded (scale, bias) per filter for the layer's batch norm."""
        params = self._bn.get(plan.layer_index)
        if params is None:
            f = plan.spec.filters
            scale = self._rng.uniform(0.8, 1.2, f).astype(np.float32)
            bias = self._rng.uniform(-0.1, 0.1, f).astype(np.float32)
            params = (scale, bias)
            self._bn[plan.layer_index] = params
        return params

    # ------------------------------------------------------------------ #
    # functional forward
    # ------------------------------------------------------------------ #

    def forward(
        self,
        image: np.ndarray,
        *,
        conv_fn=None,
    ) -> list[np.ndarray]:
        """Run the graph; returns the three YOLO layer outputs.

        ``conv_fn(plan, a, x) -> (M, N) array`` overrides how each layer's
        GEMM, ``a @ im2col(x, plan.geometry)``, executes on the CHW input
        ``x`` (so a hook can quantize ``x`` before lowering it) — the hook
        the DPU mapping uses to route the matrix multiplications through
        the PIM system while the host runs the rest, mirroring the paper's
        host/DPU split.
        """
        expected = (3, self.input_size, self.input_size)
        if image.shape != expected:
            raise WorkloadError(f"image shape {image.shape} != {expected}")
        outputs: list[np.ndarray] = []
        detections: list[np.ndarray] = []
        current = np.asarray(image, dtype=np.float32)
        plan_by_index = {plan.layer_index: plan for plan in self.plans}
        for index, spec in enumerate(self.layers):
            if spec.kind == "conv":
                plan = plan_by_index[index]
                current = self._run_conv(plan, current, conv_fn)
            elif spec.kind == "shortcut":
                current = shortcut(current, outputs[index + spec.offsets[0]])
            elif spec.kind == "route":
                current = route([
                    outputs[off if off >= 0 else index + off]
                    for off in spec.offsets
                ])
            elif spec.kind == "upsample":
                current = upsample2x(current)
            elif spec.kind == "yolo":
                detections.append(current)
            outputs.append(current)
        return detections

    def _run_conv(self, plan: ConvLayerPlan, image: np.ndarray, conv_fn) -> np.ndarray:
        g = plan.geometry
        weights = self.conv_weights(plan)
        a = weights.reshape(plan.spec.filters, g.gemm_k)
        if conv_fn is None:
            flat = a @ im2col(image, g)
        else:
            flat = np.asarray(conv_fn(plan, a, image), dtype=np.float32)
        out = col2im_output(flat, g)
        if plan.spec.batch_normalize:
            scale, bias = self.conv_bn(plan)
            out = out * scale[:, None, None] + bias[:, None, None]
        if plan.spec.activation == "leaky":
            out = leaky_relu(out)
        else:
            out = linear_activation(out)
        return out

    # ------------------------------------------------------------------ #
    # detection decoding
    # ------------------------------------------------------------------ #

    def decode_detections(
        self,
        yolo_outputs: list[np.ndarray],
        *,
        conf_threshold: float = 0.5,
    ) -> list[dict]:
        """Decode YOLO layer outputs into boxes on the input-pixel scale."""
        boxes: list[dict] = []
        for scale_index, raw in enumerate(yolo_outputs):
            mask = YOLO_MASKS[scale_index]
            grid = raw.shape[1]
            cell = self.input_size / grid
            per_anchor = 5 + self.classes
            pred = raw.reshape(len(mask), per_anchor, grid, grid)
            for a_index, anchor_id in enumerate(mask):
                anchor_w, anchor_h = YOLO_ANCHORS[anchor_id]
                tx = sigmoid(pred[a_index, 0])
                ty = sigmoid(pred[a_index, 1])
                tw = pred[a_index, 2]
                th = pred[a_index, 3]
                objectness = sigmoid(pred[a_index, 4])
                class_probs = sigmoid(pred[a_index, 5:])
                ys, xs = np.where(objectness >= conf_threshold)
                for y, x in zip(ys, xs):
                    class_id = int(np.argmax(class_probs[:, y, x]))
                    boxes.append({
                        "x": float((x + tx[y, x]) * cell),
                        "y": float((y + ty[y, x]) * cell),
                        "w": float(anchor_w * np.exp(np.clip(tw[y, x], -10, 10))),
                        "h": float(anchor_h * np.exp(np.clip(th[y, x], -10, 10))),
                        "confidence": float(objectness[y, x]),
                        "class_id": class_id,
                    })
        return boxes
