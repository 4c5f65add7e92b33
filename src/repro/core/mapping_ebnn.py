"""The eBNN mapping scheme: multiple images per DPU (Section 4.1).

Scheme summary (Sections 4.1.3-4.1.4):

* Images are binarized and bit-packed (a 28x28 image is 98 bytes, padded
  to 104); **16 images** are staged per DPU because one MRAM->WRAM DMA
  transfer is capped at 2048 bytes (16 x 104 = 1664).
* Each tasklet processes whole images, so 16 tasklets saturate the
  16-image batch (the Fig. 4.7(a) shape).
* The conv-pool block runs on the DPU; BN + BinAct either runs in floating
  point on the DPU (the slow Fig. 4.2(a) path) or is replaced by the
  host-built Algorithm 1 LUT (Fig. 4.2(b)); the binary temporaries return
  to the host, which runs the FC + Softmax classifier.
* The batch's image buffer is divided by images-per-DPU to choose the DPU
  count; all chosen DPUs run in parallel, so a full batch finishes in the
  time of one DPU (Section 4.1.3).

The cost recipe (:func:`charge_ebnn_costs`) is the single source of truth
for eBNN DPU cycles: the functional kernel and the closed-form sweeps both
charge through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.lut import LookupTable, create_lut
from repro.dpu.attributes import UpmemAttributes
from repro.dpu.costs import (
    DMA_MAX_TRANSFER_BYTES,
    Operation,
    OptLevel,
    Precision,
)
from repro.dpu.kernel import (
    GLOBAL_KERNELS,
    KernelContext,
    KernelResult,
    charged_result,
    symbol_bytes,
)
from repro.dpu.device import DpuImage
from repro.dpu.profiler import SubroutineProfile
from repro.errors import MappingError
from repro.host.alignment import align_up
from repro.host.runtime import DpuSet, DpuSystem, LaunchReport
from repro.nn.binary import pack_images
from repro.nn.models.ebnn import EbnnConfig, EbnnModel

#: The per-DPU image batch the paper uses (Section 4.1.3).
IMAGES_PER_DPU = 16

#: Tasklets the paper settles on for eBNN (one per staged image).
EBNN_TASKLETS = 16

#: Extra plain instructions accompanying each conv MAC beyond the address
#: multiply: two WRAM loads, the XNOR/accumulate pair, and loop overhead.
_CONV_EXTRA_INSTR_PER_MAC = 7

#: Plain instructions per max-pool output (4 loads, 3 compares, addressing).
_POOL_INSTR_PER_OUTPUT = 9

#: Plain instructions per LUT lookup beyond its address arithmetic.
_LUT_EXTRA_INSTR = 4


@dataclass(frozen=True)
class EbnnDpuLayout:
    """MRAM symbol layout shared by host and kernel."""

    config: EbnnConfig
    images_per_dpu: int = IMAGES_PER_DPU

    @property
    def image_bytes(self) -> int:
        """Padded packed bytes of one binarized image."""
        packed = -(-self.config.image_size**2 // 8)
        return align_up(packed)

    @property
    def images_bytes(self) -> int:
        return self.images_per_dpu * self.image_bytes

    @property
    def result_bytes_per_image(self) -> int:
        """Padded packed bytes of one image's binary feature tensor."""
        return align_up(self.config.feature_bytes)

    @property
    def results_bytes(self) -> int:
        return self.images_per_dpu * self.result_bytes_per_image

    @property
    def lut_bytes(self) -> int:
        lo, hi = self.config.conv_range
        return align_up((hi - lo + 1) * self.config.filters)

    @property
    def weight_bytes(self) -> int:
        """Packed binary conv weights (one bit per tap)."""
        bits = self.config.filters * self.config.kernel**2
        return align_up(-(-bits // 8))

    def build_image(self, name: str = "ebnn") -> DpuImage:
        """The kernel image of this layout, whose image batch must fit
        one DMA staging transfer (Section 4.1.3)."""
        if self.images_per_dpu < 1:
            raise MappingError(
                f"images_per_dpu must be >= 1, got {self.images_per_dpu}"
            )
        if self.images_bytes > DMA_MAX_TRANSFER_BYTES:
            raise MappingError(
                f"{self.images_per_dpu} images need {self.images_bytes} "
                f"bytes of staging; the DMA transfer cap is "
                f"{DMA_MAX_TRANSFER_BYTES} (Section 4.1.3)"
            )
        return DpuImage.from_symbol_layout(
            name,
            kernel_name="ebnn_conv_pool",
            layout=[
                ("images", self.images_bytes),
                ("results", self.results_bytes),
                ("lut", self.lut_bytes),
                ("weights", self.weight_bytes),
                ("meta", 8),  # actual image count (the padded-size protocol)
            ],
        )


def charge_ebnn_costs(
    ctx: KernelContext,
    config: EbnnConfig,
    layout: EbnnDpuLayout,
    n_images: int,
    *,
    use_lut: bool,
) -> None:
    """Charge the DPU cost of conv-pool(+BN/BinAct) for ``n_images``.

    -O0 array indexing performs a 32-bit multiply per element access (the
    ``__mulsi3`` Fig. 4.3(b) shows surviving even the LUT transformation);
    the float path charges the full BN+BinAct subroutine chain per pooled
    value, the mix Fig. 4.3(a) profiles.
    """
    conv_macs = n_images * config.conv_macs_per_image()
    pooled = n_images * config.bn_outputs_per_image()

    # Staging DMA: images arrive in one transfer per 2048-byte window.
    ctx.charge_streamed_dma(n_images * layout.image_bytes)
    ctx.charge_streamed_dma(layout.weight_bytes)

    # Convolution + pooling (both paths).  At -O0 every array access pays a
    # __mulsi3 index multiply (the subroutine Fig. 4.3(b) shows surviving);
    # -O3 strength-reduces indexing into induction variables.
    unoptimized = ctx.opt_level is OptLevel.O0
    if unoptimized:
        ctx.charge_call("__mulsi3", conv_macs)
    ctx.charge_instructions(_CONV_EXTRA_INSTR_PER_MAC * conv_macs)
    ctx.charge_instructions(_POOL_INSTR_PER_OUTPUT * pooled)

    if use_lut:
        # One LUT staging transfer, then a lookup per pooled value.
        ctx.charge_streamed_dma(layout.lut_bytes)
        if unoptimized:
            ctx.charge_call("__mulsi3", pooled)   # flat-index multiply
            ctx.charge_call("__muldi3", pooled)   # 64-bit address formation
        ctx.charge_instructions(_LUT_EXTRA_INSTR * pooled)
    else:
        # Fig. 4.2(a): the float BN + BinAct chain per pooled value.
        ctx.charge_call("__floatsisf", pooled)            # int -> float
        ctx.charge_op(Operation.ADD, Precision.FLOAT_32, 2 * pooled)  # +W0, +W4
        ctx.charge_op(Operation.SUB, Precision.FLOAT_32, pooled)      # -W1
        ctx.charge_op(Operation.DIV, Precision.FLOAT_32, pooled)      # /W2
        ctx.charge_op(Operation.MUL, Precision.FLOAT_32, pooled)      # *W3
        ctx.charge_call("__gesf2", pooled)                # BinAct >= 0
        ctx.charge_call("__ltsf2", pooled)                # saturation guard
        ctx.charge_call("__fixsfsi", pooled)              # float -> int bit
        if unoptimized:
            ctx.charge_call("__mulsi3", pooled)           # indexing
            ctx.charge_call("__muldi3", pooled)           # 64-bit addressing

    # Result write-back.
    ctx.charge_streamed_dma(n_images * layout.result_bytes_per_image)
    ctx.set_work_units(n_images)


@GLOBAL_KERNELS.register("ebnn_conv_pool")
def ebnn_conv_pool_kernel(
    dpus,
    *,
    n_tasklets: int,
    opt_level: OptLevel,
    model: EbnnModel,
    layout: EbnnDpuLayout,
    use_lut: bool,
) -> list[KernelResult]:
    """The DPU program of the eBNN scheme on every DPU of a launch.

    Each DPU reads its packed images and image count from its MRAM,
    computes the binary features of all its images at once (via the LUT
    read back from its MRAM, or the float BN path), and writes packed
    feature bits to its ``results`` symbol.  The cost depends only on the
    image count, so it is charged once per distinct count.
    """
    config = model.config
    side = config.image_size
    lo, hi = config.conv_range
    counts = []
    for dpu in dpus:
        meta = symbol_bytes(dpu, "meta", 4)
        n_images = int(np.frombuffer(meta, np.uint32)[0])
        if not 1 <= n_images <= layout.images_per_dpu:
            raise MappingError(
                f"DPU metadata declares {n_images} images; layout holds "
                f"up to {layout.images_per_dpu}"
            )
        counts.append(n_images)
    for dpu, n_images in zip(dpus, counts):
        packed = np.frombuffer(
            symbol_bytes(dpu, "images", n_images * layout.image_bytes),
            np.uint8,
        ).reshape(n_images, layout.image_bytes)
        bits = np.unpackbits(
            packed, axis=1, count=side * side, bitorder="little"
        )
        signs = np.where(bits > 0, 1, -1).astype(np.int8)
        pooled = model.conv_pool_stack(signs.reshape(n_images, side, side))
        if use_lut:
            lut = LookupTable.from_bytes(
                symbol_bytes(dpu, "lut", layout.lut_bytes), lo, hi,
                config.filters,
            )
            features = lut.lookup_all(pooled)
        else:
            features = model.bn_binact_float(pooled)
        feature_bytes = np.packbits(
            features.reshape(n_images, -1).astype(np.uint8),
            axis=1, bitorder="little",
        )
        block = np.zeros(
            (n_images, layout.result_bytes_per_image), dtype=np.uint8
        )
        block[:, : feature_bytes.shape[1]] = feature_bytes
        dpu.mram.write_array(dpu.symbol("results").mram_addr, block)

    charged: dict[int, KernelResult] = {}
    for n_images in counts:
        if n_images not in charged:
            charged[n_images] = charged_result(
                lambda ctx: charge_ebnn_costs(
                    ctx, config, layout, n_images, use_lut=use_lut
                ),
                n_tasklets=n_tasklets, opt_level=opt_level,
            )
    return [charged[n_images] for n_images in counts]


#: Host-side FC+softmax time per image (a Xeon-class constant; the host
#: overlaps this with nothing in the thesis's serial read-out).
HOST_SECONDS_PER_IMAGE = 2.0e-6


def stage_lut(dpu_set: DpuSet, model: EbnnModel, layout: EbnnDpuLayout) -> None:
    """Build the Algorithm 1 LUT and broadcast it to a loaded set."""
    lut = create_lut(model.bn, *model.config.conv_range)
    raw = lut.to_bytes().ljust(layout.lut_bytes, b"\0")
    dpu_set.broadcast("lut", np.frombuffer(raw, dtype=np.uint8))


def stage_wave(
    dpus, attributes: UpmemAttributes, image: DpuImage,
    layout: EbnnDpuLayout, images,
) -> tuple[DpuSet, list[int]]:
    """Load ``image`` onto the DPUs one wave of ``images`` needs and
    scatter their packed images and per-DPU counts.

    The wave's first ``images_per_dpu`` images go to the first DPU, and so
    on; only DPUs that get at least one image join the returned set.
    ``images`` is an ``(n, H, W)`` array or a list of ``(H, W)`` arrays.
    The whole wave is binarized and packed in one pass, and an image of
    the wrong shape raises :class:`~repro.errors.WorkloadError` before
    any DPU is touched.  Returns that set and each of its DPUs' image
    count.
    """
    per_dpu = layout.images_per_dpu
    n_active = min(len(dpus), -(-len(images) // per_dpu))
    n_staged = min(len(images), n_active * per_dpu)
    packed = pack_images(images[:n_staged], layout.config.image_size)
    view = DpuSet(list(dpus[:n_active]), attributes)
    view.load(image)
    # One zeroed block, one padded image per row: DPU d's push is rows
    # d*per_dpu .. (d+1)*per_dpu - 1, read as one images_bytes row.
    staged = np.zeros((n_active * per_dpu, layout.image_bytes), dtype=np.uint8)
    staged[:n_staged, : packed.shape[1]] = packed
    view.scatter("images", staged.reshape(n_active, layout.images_bytes))
    counts = [min(per_dpu, n_staged - d * per_dpu) for d in range(n_active)]
    view.scatter("meta", np.array([[c, 0] for c in counts], dtype=np.uint32))
    return view, counts


def read_wave(
    view: DpuSet, counts: list[int], report: LaunchReport,
    model: EbnnModel, layout: EbnnDpuLayout,
) -> tuple[np.ndarray, float]:
    """Gather a launched wave's binary features and classify them on the
    host (Section 4.1.3's read-out).

    One gather reads every DPU's ``results``; the images of the DPUs
    that completed are classified together, in one
    :meth:`EbnnModel.classify_packed`, and an image on a DPU that failed
    gets label ``-1``.  The clock advances by the host seconds, which
    are returned with the labels.
    """
    done = (
        [o.index for o in report.outcomes if o.ok]
        if report.outcomes else range(len(view))
    )
    size, per_dpu = layout.result_bytes_per_image, layout.images_per_dpu
    rows = view.gather("results", max(counts) * size)
    labels = np.full(sum(counts), -1, dtype=np.int64)
    n_classified = sum(counts[d] for d in done)
    host_seconds = HOST_SECONDS_PER_IMAGE * n_classified
    with telemetry.span(
        "ebnn.host_classify", n_images=n_classified, host_seconds=host_seconds,
    ):
        if n_classified:
            block = np.frombuffer(
                b"".join(rows[d] for d in done), dtype=np.uint8
            ).reshape(len(done), max(counts), size)
            slots = np.arange(max(counts))
            filled = slots < np.array([counts[d] for d in done])[:, None]
            images = (np.array(done)[:, None] * per_dpu + slots)[filled]
            labels[images] = model.classify_packed(
                block[filled][:, : model.config.feature_bytes]
            )
        view.clock.advance(host_seconds)
    return labels, host_seconds


@dataclass
class EbnnRunResult:
    """Outcome of one batched eBNN inference on the PIM system.

    ``predictions`` holds ``-1`` for an image whose DPU failed under a
    tolerant fault policy: that image has no prediction.
    """

    predictions: np.ndarray
    dpu_report: LaunchReport
    n_dpus: int
    n_images: int
    profile: SubroutineProfile
    host_seconds: float

    @property
    def dpu_seconds(self) -> float:
        return self.dpu_report.seconds

    @property
    def total_seconds(self) -> float:
        return self.dpu_seconds + self.host_seconds

    @property
    def seconds_per_image(self) -> float:
        return self.total_seconds / self.n_images


class EbnnPimRunner:
    """Host orchestration of the multi-image-per-DPU eBNN scheme."""

    def __init__(
        self,
        system: DpuSystem,
        model: EbnnModel,
        *,
        use_lut: bool = True,
        images_per_dpu: int = IMAGES_PER_DPU,
        n_tasklets: int = EBNN_TASKLETS,
        opt_level: OptLevel = OptLevel.O3,
    ) -> None:
        self.system = system
        self.model = model
        self.use_lut = use_lut
        self.n_tasklets = n_tasklets
        self.opt_level = opt_level
        self.layout = EbnnDpuLayout(model.config, images_per_dpu)
        self.image = self.layout.build_image()

    def run(self, images: np.ndarray) -> EbnnRunResult:
        """Classify a (n, H, W) batch through the PIM system.

        Batches larger than the system's capacity execute in waves: every
        available DPU processes its image block, results are gathered,
        and the next wave launches — total time is the sum of the waves.
        The image and the LUT are staged once per run.
        """
        n_images = images.shape[0]
        if n_images < 1:
            raise MappingError("empty image batch")
        per_dpu = self.layout.images_per_dpu
        n_dpus = self.system.dpus_needed_for(n_images, per_dpu)
        wave_capacity = n_dpus * per_dpu

        with telemetry.span(
            "ebnn.run",
            category="pipeline",
            n_images=n_images,
            n_dpus=n_dpus,
            use_lut=self.use_lut,
        ):
            dpu_set = self.system.allocate(n_dpus)
            try:
                dpu_set.load(self.image)
                if self.use_lut:
                    stage_lut(dpu_set, self.model, self.layout)
                waves = [
                    self._run_wave(dpu_set, images[start : start + wave_capacity])
                    for start in range(0, n_images, wave_capacity)
                ]
            finally:
                self.system.free(dpu_set)
        if len(waves) == 1:
            return waves[0]
        return self._merge_waves(waves)

    def _merge_waves(self, waves: list["EbnnRunResult"]) -> "EbnnRunResult":
        """Combine sequential wave results into one batch result."""
        combined_profile = SubroutineProfile()
        for wave in waves:
            combined_profile = combined_profile.merged_with(wave.profile)
        total_cycles = sum(w.dpu_report.cycles for w in waves)
        slowest = max(waves, key=lambda w: w.dpu_report.cycles)
        report = LaunchReport(
            cycles=total_cycles,
            seconds=self.system.attributes.cycles_to_seconds(total_cycles),
            per_dpu_cycles=slowest.dpu_report.per_dpu_cycles,
            n_dpus=slowest.dpu_report.n_dpus,
            n_tasklets=slowest.dpu_report.n_tasklets,
            fault_policy=slowest.dpu_report.fault_policy,
            outcomes=[o for w in waves for o in w.dpu_report.outcomes],
        )
        return EbnnRunResult(
            predictions=np.concatenate([w.predictions for w in waves]),
            dpu_report=report,
            n_dpus=slowest.n_dpus,
            n_images=sum(w.n_images for w in waves),
            profile=combined_profile,
            host_seconds=sum(w.host_seconds for w in waves),
        )

    def _run_wave(self, dpu_set: DpuSet, images: np.ndarray) -> EbnnRunResult:
        with telemetry.span("ebnn.wave", category="pipeline",
                            n_images=images.shape[0]):
            view, counts = stage_wave(
                dpu_set.dpus, self.system.attributes, self.image, self.layout,
                images,
            )
            report = view.launch(
                n_tasklets=self.n_tasklets,
                opt_level=self.opt_level,
                model=self.model,
                layout=self.layout,
                use_lut=self.use_lut,
            )
            predictions, host_seconds = read_wave(
                view, counts, report, self.model, self.layout
            )
        profile = SubroutineProfile()
        for dpu in view:
            # A DPU isolated by the fault policy has no result.
            if dpu.last_result is not None:
                profile = profile.merged_with(dpu.last_result.profile)
        return EbnnRunResult(
            predictions=predictions,
            dpu_report=report,
            n_dpus=len(view),
            n_images=images.shape[0],
            profile=profile,
            host_seconds=host_seconds,
        )


def ebnn_dpu_cycles(
    config: EbnnConfig,
    *,
    n_images: int = IMAGES_PER_DPU,
    n_tasklets: int = EBNN_TASKLETS,
    opt_level: OptLevel = OptLevel.O3,
    use_lut: bool = True,
    images_per_dpu: int = IMAGES_PER_DPU,
) -> float:
    """Closed-form DPU cycles for one eBNN batch (no functional compute).

    Shares :func:`charge_ebnn_costs` with the kernel, so sweeps (Figs. 4.4
    and 4.7) and functional runs can never drift apart.
    """
    layout = EbnnDpuLayout(config, images_per_dpu)
    return charged_result(
        lambda ctx: charge_ebnn_costs(
            ctx, config, layout, n_images, use_lut=use_lut
        ),
        n_tasklets=n_tasklets, opt_level=opt_level,
    ).cycles


def ebnn_image_latency_seconds(
    config: EbnnConfig,
    attributes: UpmemAttributes,
    **kwargs,
) -> float:
    """Per-image DPU latency in seconds for a full 16-image batch."""
    n_images = kwargs.pop("n_images", IMAGES_PER_DPU)
    cycles = ebnn_dpu_cycles(config, n_images=n_images, **kwargs)
    return attributes.cycles_to_seconds(cycles) / n_images
