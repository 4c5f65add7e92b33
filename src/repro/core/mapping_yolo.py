"""The YOLOv3 mapping scheme: one GEMM row per DPU (Section 4.2).

Scheme summary (Section 4.2.3, Fig. 4.6):

* Each convolutional layer is an Algorithm 2 GEMM, ``C(MxN) = A(MxK) x
  B(KxN)``.  The outer (filter) loop is unrolled across DPUs: DPU ``i``
  receives row ``i`` of the weights ``A``, the **entire** input matrix
  ``B``, and produces row ``i`` of ``C`` — so a layer occupies ``M`` DPUs.
* Inside a DPU, the inner (column) loop is split across tasklets: tasklet
  ``t`` owns columns ``t, t + T, t + 2T, ...`` (dependences in the middle
  loop force the parallelization to the innermost loop).
* The ``ctmp`` accumulator is ``4N`` bytes.  For real YOLOv3 layers this
  exceeds WRAM once stacks are reserved (the 160 KB buffer Section 4.3.4
  laments), so accumulator traffic goes to MRAM through the DMA — the
  reason the paper's YOLOv3 numbers are MRAM-bound.
* When a group has idle DPUs, :func:`column_split` tiles such a layer's
  columns: ``s`` slices of ``w = ceil(N / s)`` columns, the fewest whose
  ``ctmp`` fits WRAM, over ``M * s`` DPUs, each holding one row of A and
  one slice of B.  C is the slices side by side, bit for bit Algorithm
  2's.  The closed-form estimators below keep Algorithm 2's one row per
  DPU, as the paper ran it.

Like the eBNN mapping, one cost recipe (:func:`charge_gemm_row_costs`)
backs both the functional kernel and the closed-form layer/network
estimators used by the Fig. 4.7 sweeps, and one layer routine
(:func:`run_gemm_layer`) backs both the offline :class:`YoloPimRunner`
and the serving backend.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.dpu.attributes import UPMEM_ATTRIBUTES, UpmemAttributes
from repro.dpu.costs import Operation, OptLevel, Precision, mram_access_cycles
from repro.dpu.device import DpuImage
from repro.dpu.kernel import (
    KernelContext,
    KernelResult,
    charged_result,
)
from repro.dpu.memory import write_rows
from repro.errors import LaunchError, MappingError
from repro.host.alignment import align_up
from repro.host.runtime import DpuSet, DpuSystem, LaunchReport
from repro.host.transfer import XferDirection, account_rows
from repro.nn.gemm import GemmShape, gemm_fast
from repro.nn.im2col import ConvGeometry, im2col
from repro.nn.models.darknet import Yolov3Model
from repro.nn.quantize import QuantParams

#: Tasklets the paper identifies as the saturation point for YOLOv3.
YOLO_TASKLETS = 11

#: WRAM usable for the ctmp accumulator after tasklet stacks are reserved:
#: 11 tasklets at the ~5.2 KB stacks the quantized YOLOv3 build needs leave
#: well under 8 KB of WRAM (the Section 4.3.4 complaint).
CTMP_WRAM_BUDGET_BYTES = 8 * 1024

#: Plain instructions per MAC besides the multiply: accumulator add,
#: B-element load, and loop/induction overhead.
_MAC_EXTRA_INSTR = 4

#: Plain instructions per output element in the rescale pass (clamp + store).
_OUTPUT_EXTRA_INSTR = 3

#: Wrapper instructions around the three mram_read/mram_write library calls
#: an MRAM-resident inner iteration performs (optimized code).
_MRAM_CALL_INSTR_PER_MAC = 12


class AccumulatorPolicy(enum.Enum):
    """Where the ctmp accumulator lives during the inner loop."""

    #: ctmp fits WRAM (small N); accumulator access is single-cycle.
    WRAM = "wram"
    #: ctmp resides in MRAM; every accumulate is a DMA read-modify-write,
    #: the regime the paper's full-size YOLOv3 ran in (Section 4.3.3).
    MRAM = "mram"

    @staticmethod
    def for_shape(
        shape: GemmShape, budget_bytes: int | None = None
    ) -> "AccumulatorPolicy":
        budget = CTMP_WRAM_BUDGET_BYTES if budget_bytes is None else budget_bytes
        if 4 * shape.n <= budget:
            return AccumulatorPolicy.WRAM
        return AccumulatorPolicy.MRAM


def column_split(shape: GemmShape, n_dpus: int) -> tuple[int, GemmShape]:
    """How a layer's B is tiled on a group of ``n_dpus`` DPUs: the number
    of column slices ``s`` and the ``(M, ceil(N / s), K)`` GEMM each DPU
    runs.  ``s`` is the fewest slices such that a slice's ``ctmp``,
    ``4 * ceil(N / s)`` bytes, fits :data:`CTMP_WRAM_BUDGET_BYTES`, when
    its ``M * s`` rows fit the group in one wave; otherwise 1 and the
    layer's own shape, which is Algorithm 2 unchanged."""
    splits = -(-shape.n // (CTMP_WRAM_BUDGET_BYTES // 4))
    if splits == 1 or shape.m * splits > n_dpus:
        return 1, shape
    return splits, GemmShape(m=shape.m, n=-(-shape.n // splits), k=shape.k)


def charge_gemm_row_costs(
    ctx: KernelContext,
    shape: GemmShape,
    *,
    policy: AccumulatorPolicy | None = None,
) -> None:
    """Charge one DPU's share of a layer GEMM: one row of A against all of B.

    Work: ``K*N`` MACs plus the N-element rescale pass of Algorithm 2.
    MRAM traffic: the A row and all of B stream in; the C row streams out;
    under the MRAM accumulator policy every MAC additionally pays an
    8-byte-aligned DMA read and write of ``ctmp[j]``.
    """
    policy = policy or AccumulatorPolicy.for_shape(shape)
    macs = shape.k * shape.n

    # Input/output edge traffic (int16 elements).
    ctx.charge_streamed_dma(2 * shape.k)            # the A row
    ctx.charge_streamed_dma(2 * shape.n)            # the C row out

    # Inner loop: APART * B[k*N + j] + ctmp[j].
    ctx.charge_op(Operation.MUL, Precision.FIXED_16, macs)
    ctx.charge_op(Operation.ADD, Precision.FIXED_32, macs)
    ctx.charge_instructions(_MAC_EXTRA_INSTR * macs)
    if ctx.opt_level is OptLevel.O0:
        # Unoptimized array indexing multiplies per element access.
        ctx.charge_call("__mulsi3", macs)

    if policy is AccumulatorPolicy.MRAM:
        # The regime the paper's full-size layers ran in (Section 4.3.3):
        # tasklet stacks consume WRAM, so B is fetched element-wise and
        # ctmp[j] is read-modify-written through the DMA, one 8-byte beat
        # per access, plus the mram_read/mram_write wrapper instructions.
        beat = mram_access_cycles(8)
        ctx.charge_dma_cycles(3 * beat * macs, 24 * macs)
        ctx.charge_instructions(_MRAM_CALL_INSTR_PER_MAC * macs)
    else:
        # B streams through a WRAM staging buffer; ctmp stays in WRAM.
        ctx.charge_streamed_dma(2 * shape.k * shape.n)
        ctx.charge_wram_access(2 * macs)

    # Output pass: ctmp[j] / 32, clamp, store (Algorithm 2 lines 8-10).
    ctx.charge_op(Operation.DIV, Precision.FIXED_32, shape.n)
    ctx.charge_instructions(_OUTPUT_EXTRA_INSTR * shape.n)


@dataclass(frozen=True)
class YoloDpuLayout:
    """MRAM symbol layout for one GEMM-row DPU."""

    shape: GemmShape

    @property
    def a_row_bytes(self) -> int:
        return align_up(2 * self.shape.k)

    @property
    def b_bytes(self) -> int:
        return align_up(2 * self.shape.k * self.shape.n)

    @property
    def c_row_bytes(self) -> int:
        return align_up(4 * self.shape.n)

    @functools.lru_cache(maxsize=1024)  # one image per layer, not per request
    def build_image(self, name: str = "yolo_gemm") -> DpuImage:
        return DpuImage.from_symbol_layout(
            name,
            layout=[
                ("a_row", self.a_row_bytes),
                ("b", self.b_bytes),
                ("c_row", self.c_row_bytes),
                ("meta", 24),  # actual M, N, K, ALPHA, divisor, pad
            ],
        )


def yolo_gemm_row_kernel(
    dpus,
    *,
    n_tasklets: int,
    opt_level: OptLevel,
    layout: YoloDpuLayout,
) -> list[KernelResult]:
    """Every DPU's GEMM row of one layer launch (functional + cycle-charged).

    DPU ``i`` holds row ``i`` of A, its own copy of B, and metadata with
    the actual dimensions plus the accumulator divisor — 32 in Algorithm
    2, widened by the host for layers whose quantization would otherwise
    clamp (the padded-size side-channel protocol of Section 3.2 applied
    to scaling metadata).  Each DPU's symbols, laid out in the order
    a_row, b, c_row, meta, are read as one span.  B and the metadata are
    broadcasts, so every DPU must hold the same copy of them, and one
    :func:`gemm_fast` multiplies every row.  Every DPU does the same
    work, so the costs are charged once per launch.
    """
    shape = layout.shape
    image = dpus[0].image
    if any(dpu.image is not image for dpu in dpus):
        raise MappingError("YOLO row launch over DPUs with different images")
    symbols = image.symbols
    base, c_addr = symbols["a_row"].mram_addr, symbols["c_row"].mram_addr
    b_at, meta_at = symbols["b"].mram_addr - base, symbols["meta"].mram_addr - base
    spans = [dpu.mram.read(base, meta_at + 24) for dpu in dpus]
    b_end = b_at + 2 * shape.k * shape.n
    meta, b = spans[0][meta_at:], spans[0][b_at:b_end]
    if any(span[meta_at:] != meta or span[b_at:b_end] != b for span in spans):
        raise MappingError("YOLO row launch over DPUs whose B or metadata differ")
    n, k, alpha, divisor = np.frombuffer(meta, np.int32)[1:5].tolist()
    if (n, k) != (shape.n, shape.k):
        raise MappingError(
            f"metadata GEMM shape ({n}, {k}) != layout ({shape.n}, {shape.k})"
        )
    a_rows = np.frombuffer(
        b"".join(span[: 2 * shape.k] for span in spans), np.int16
    ).reshape(-1, shape.k)
    c = gemm_fast(
        alpha, a_rows, np.frombuffer(b, np.int16).reshape(k, n),
        divisor=divisor or 32,
    )
    for dpu, row in zip(dpus, c):
        dpu.mram.write(c_addr, memoryview(row))
    policy = AccumulatorPolicy.for_shape(shape)
    return [_row_cost(shape, n_tasklets, opt_level, policy)] * len(dpus)


@functools.lru_cache(maxsize=1024)
def _row_cost(
    shape: GemmShape,
    n_tasklets: int,
    opt_level: OptLevel,
    policy: AccumulatorPolicy,
) -> KernelResult:
    """One DPU's charged GEMM row, computed once per distinct cost.

    The result is shared by every launch and estimate that asks for the
    same cost; nothing mutates a :class:`KernelResult` after charging.
    """
    return charged_result(
        lambda ctx: charge_gemm_row_costs(ctx, shape, policy=policy),
        n_tasklets=n_tasklets, opt_level=opt_level,
    )


def weight_bound(a_q: np.ndarray) -> int:
    """The largest absolute row sum of A: :func:`accumulator_divisor`'s
    weights-only half."""
    return int(np.abs(a_q.astype(np.int64)).sum(axis=1).max())


def accumulator_divisor(
    a_q: np.ndarray, b_q: np.ndarray, alpha: int, *, a_bound: int | None = None
) -> int:
    """The Algorithm 2 accumulator divisor for one quantized layer GEMM.

    Algorithm 2 divides the accumulator by 32 before the int16 clamp;
    the thesis's quantized network has calibrated scales that make 32
    sufficient.  With ad-hoc per-layer quantization the divisor widens
    (doubling) until the worst-case accumulator fits, which plays the
    same calibration role.  ``a_bound`` passes ``weight_bound(a_q)``
    computed once for fixed weights.
    """
    if a_bound is None:
        a_bound = weight_bound(a_q)
    b_max = max(int(b_q.max()), -int(b_q.min())) if b_q.size else 0
    bound = a_bound * (b_max or 1)
    divisor = 32
    while bound * abs(alpha) // divisor > 32767:
        divisor *= 2
    return divisor


def lower_layer_input(
    x: np.ndarray, geometry: ConvGeometry, a_q: np.ndarray, alpha: int,
    *, a_bound: int | None = None,
) -> tuple[np.ndarray, QuantParams, int]:
    """B, its quantizer and :func:`accumulator_divisor` for CHW input
    ``x``: ``x`` quantized on the scale of ``x[geometry.covered]``, then
    lowered, is the B of quantizing ``im2col(x)`` (``quantize(0) == 0``)."""
    covered = geometry.covered
    params = QuantParams.from_tensor(x[covered], bits=8)
    x_q = params.quantize(x).astype(np.int16)
    divisor = accumulator_divisor(a_q, x_q[covered], alpha, a_bound=a_bound)
    return im2col(x_q, geometry), params, divisor


class LayerFailedError(LaunchError):
    """A layer GEMM lost the DPUs ``failed_dpu_ids`` and has no output;
    the clock has charged its launches that ran, a degraded one included."""

    def __init__(self, failed_dpu_ids: set[int]) -> None:
        super().__init__(f"layer GEMM lost DPUs {sorted(failed_dpu_ids)}")
        self.failed_dpu_ids = failed_dpu_ids


def run_gemm_layer(
    dpus,
    attributes: UpmemAttributes,
    plan,
    a_q: np.ndarray,
    b_q: np.ndarray,
    divisor: int,
    alpha: int,
    *,
    n_tasklets: int = YOLO_TASKLETS,
    opt_level: OptLevel = OptLevel.O3,
    fault_policy: str | None = None,
) -> tuple[np.ndarray, list[LaunchReport]]:
    """One int16 layer GEMM on ``dpus``, one row of work per DPU (Fig. 4.6).

    A row of work is one row of A against a slice of B's columns.  B is
    tiled into the layer's :func:`column_split` ``s`` slices of ``w =
    ceil(N / s)`` columns, the last zero-padded to ``w`` (the padded-size
    protocol of Section 3.2), so the layer has ``M * s`` rows: row ``j *
    M + r`` is A row ``r`` against slice ``j``, and each slice's rows sit
    on consecutive DPUs.  With ``s == 1`` this is Algorithm 2.

    The first ``min(M * s, len(dpus))`` DPUs are loaded with the image of
    the ``(M, w, K)`` GEMM and receive B and the metadata (with N = w)
    once: B is broadcast, or each DPU is pushed its slice.  The layer
    then runs in waves on the first DPUs of that staged set (a split
    layer fits one wave): each wave scatters its rows of A, launches,
    and gathers its rows of C, while B stays resident, as on the
    hardware.

    The launch is decided once (:meth:`DpuSet.decide`): fault decisions
    depend only on the DPU and the attempt, so every wave gets the
    outcomes of its DPUs.  Each wave's transfers, launch report, faults
    and metrics are charged from that decision, all full waves in one
    step unless traced spans need them one by one (the clock reads the
    same either way).  The transfers move no bytes: the rows that ran
    are multiplied in one GEMM on the host's own B and metadata, and on
    every exit each DPU's image is left as its last wave would leave
    it, with one batched MRAM write.

    Returns C as int32 rows and the report of every wave.  A wave that
    loses DPUs, degraded or with every DPU failed, raises
    :class:`LayerFailedError`; under the ``raise`` policy the DPU's own
    error propagates instead.
    """
    shape = plan.gemm
    splits, tile = column_split(shape, len(dpus))
    width = tile.n
    n_rows = shape.m * splits
    layout = YoloDpuLayout(tile)
    staged = DpuSet(list(dpus[: min(n_rows, len(dpus))]), attributes)
    staged.load(layout.build_image(f"yolo_layer_{plan.layer_index}"))
    size = len(staged)
    # The image packs a_row | b | c_row | meta from address 0.
    at = {name: sym.mram_addr for name, sym in staged.image.symbols.items()}
    b_full = np.ascontiguousarray(b_q, np.int16)
    if splits == 1:
        b_rows = b_full.view(np.uint8).reshape(1, -1)
    else:  # slice j's bytes, pushed at the symbol's aligned length
        b_full = np.zeros((shape.k, splits * width), np.int16)
        b_full[:, : shape.n] = b_q
        b_rows = np.zeros((splits, layout.b_bytes), np.uint8)
        b_rows[:, : 2 * shape.k * width] = np.ascontiguousarray(
            b_full.reshape(shape.k, splits, width).transpose(1, 0, 2)
            .reshape(splits, -1)
        ).view(np.uint8)
    meta = np.int32([shape.m, width, shape.k, alpha, divisor, 0]).tobytes()
    b_end, c_end = at["b"] + b_rows.shape[1], at["c_row"] + 4 * width
    end = at["meta"] + 24
    account_rows(staged.dpus, "b", b_rows.shape[1], XferDirection.TO_DPU,
                 kind="broadcast" if splits == 1 else "push")
    account_rows(staged.dpus, "meta", len(meta), XferDirection.TO_DPU,
                 kind="broadcast")
    ran: list[int] | range = []  # DPUs of the first wave, then rows
    reports: list[LaunchReport] = []
    scattered: int | None = None  # first row of the last scattered wave

    def settle() -> np.ndarray | None:
        """C of the layer (None if no wave was scattered); each DPU's
        image as its last wave left it, written at once."""
        every = scattered is not None and len(ran) == n_rows
        if every and c_end == at["meta"]:
            image = np.empty((size, end), np.uint8)
        else:  # bytes that no transfer or row reaches keep their contents
            image = np.stack([
                np.frombuffer(dpu.mram.read(0, end), np.uint8) for dpu in staged
            ])
        # DPU j * M + r holds slice j (a split layer is staged whole).
        image.reshape(splits, -1, end)[:, :, at["b"] : b_end] = b_rows[:, None]
        image[:, at["meta"] :] = np.frombuffer(meta, np.uint8)
        if scattered is None:
            write_rows([dpu.mram for dpu in staged], 0, image)
            return None
        c = gemm_fast(
            alpha, a_block[:, : 2 * shape.k].view(np.int16), b_full,
            divisor=divisor or 32,
        )
        # Row j * M + r of the layer is A row r against slice j.
        a_rows = a_block if splits == 1 else np.tile(a_block, (splits, 1))
        c_bytes = c.reshape(shape.m, splits, width).transpose(1, 0, 2)
        c_bytes = c_bytes.reshape(n_rows, width).view(np.uint8)
        # DPU i's last row: scattered + i, or one wave earlier past the end.
        last = slice(scattered, scattered + size)
        if scattered + size > n_rows:
            last = np.arange(scattered, scattered + size)
            last[last >= n_rows] -= size
        image[:, : at["b"]] = a_rows[last]
        # After a lost first wave, DPU ran[j]'s C row is row ran[j].
        to, held = (slice(None), last) if every else (ran, ran)
        image[to, at["c_row"] : c_end] = c_bytes[held]
        write_rows([dpu.mram for dpu in staged], 0, image)
        return c[:, : shape.n]

    start = 0
    try:
        decision = staged.decide(n_tasklets, opt_level, fault_policy)
        ran = decision.ran  # in the first wave
        # The scattered payloads: rows of A padded to the pushed length.
        a_bytes = np.ascontiguousarray(a_q).view(np.uint8).reshape(shape.m, -1)
        a_block = np.zeros((shape.m, align_up(a_bytes.shape[1])), np.uint8)
        a_block[:, : a_bytes.shape[1]] = a_bytes
        cost = _row_cost(
            tile, n_tasklets, opt_level, AccumulatorPolicy.for_shape(tile)
        )
        # The first wave is the whole staged set, so a DPU the decision
        # fails ends the layer there; otherwise every wave runs whole.
        whole = len(ran) == size
        ran = range(n_rows) if whole else ran  # row i ran on DPU i % size
        rows = n_rows if whole else size
        if telemetry.current_tracer() is not None:
            waves = [min(size, rows - start) for start in range(0, rows, size)]
        else:
            waves = [rows]  # charged at once
        for wave_rows in waves:
            account_rows(
                staged.dpus, "a_row", a_block.shape[1], XferDirection.TO_DPU,
                wave_rows,
            )
            scattered = start + (wave_rows - 1) // size * size
            try:
                reports += staged.charge(
                    decision, wave_rows, lambda wave: [cost] * len(wave)
                )
            except LaunchError:
                raise LayerFailedError({d.dpu_id for d in staged}) from None
            if reports[-1].degraded:
                raise LayerFailedError({o.dpu_id for o in reports[-1].failed})
            account_rows(
                staged.dpus, "c_row", layout.c_row_bytes,
                XferDirection.FROM_DPU, wave_rows,
            )
            start += wave_rows
    finally:
        c_rows = settle()
    return c_rows, reports


def gemm_layer_cycles(
    shape: GemmShape,
    *,
    n_tasklets: int = YOLO_TASKLETS,
    opt_level: OptLevel = OptLevel.O3,
    policy: AccumulatorPolicy | None = None,
    ctmp_budget_bytes: int | None = None,
) -> float:
    """Closed-form DPU cycles for one layer (all row-DPUs run in parallel)."""
    if policy is None:
        policy = AccumulatorPolicy.for_shape(shape, ctmp_budget_bytes)
    return _row_cost(shape, n_tasklets, opt_level, policy).cycles


@dataclass
class YoloLayerTiming:
    """Timing of one convolutional layer under the mapping."""

    layer_index: int
    shape: GemmShape
    n_dpus: int
    cycles: float
    seconds: float
    policy: AccumulatorPolicy


@dataclass
class YoloNetworkTiming:
    """Per-layer and total single-image latency of the mapped network."""

    layers: list[YoloLayerTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(layer.seconds for layer in self.layers)

    @property
    def mean_layer_seconds(self) -> float:
        return self.total_seconds / len(self.layers) if self.layers else 0.0

    @property
    def max_layer_seconds(self) -> float:
        return max((layer.seconds for layer in self.layers), default=0.0)

    @property
    def total_dpu_demand(self) -> int:
        return max((layer.n_dpus for layer in self.layers), default=0)


def yolo_network_timing(
    model: Yolov3Model,
    *,
    attributes: UpmemAttributes = UPMEM_ATTRIBUTES,
    n_tasklets: int = YOLO_TASKLETS,
    opt_level: OptLevel = OptLevel.O3,
    policy: AccumulatorPolicy | None = None,
    ctmp_budget_bytes: int | None = None,
) -> YoloNetworkTiming:
    """Single-image latency estimate for the whole network (Section 4.3.1).

    Layers execute one after another (the host must gather each layer's
    output to build the next layer's B); within a layer all M row-DPUs run
    in parallel, so layer time is one DPU's time.  A layer wider than the
    system executes in waves of ``n_dpus`` rows.  ``ctmp_budget_bytes``
    explores the Section 4.3.4 what-if of a larger WRAM.
    """
    timing = YoloNetworkTiming()
    for plan in model.plans:
        shape = plan.gemm
        layer_policy = policy or AccumulatorPolicy.for_shape(
            shape, ctmp_budget_bytes
        )
        waves = -(-shape.m // attributes.n_dpus)
        cycles = waves * gemm_layer_cycles(
            shape,
            n_tasklets=n_tasklets,
            opt_level=opt_level,
            policy=layer_policy,
        )
        timing.layers.append(
            YoloLayerTiming(
                layer_index=plan.layer_index,
                shape=shape,
                n_dpus=min(shape.m, attributes.n_dpus),
                cycles=cycles,
                seconds=attributes.cycles_to_seconds(cycles),
                policy=layer_policy,
            )
        )
    return timing


class YoloPimRunner:
    """Functional end-to-end YOLOv3 inference through the PIM system.

    Intended for reduced-scale networks (tests/examples): every conv
    layer's GEMM is quantized to int16, its rows distributed over DPUs via
    the Fig. 4.6 scheme (columns tiled by :func:`column_split` where the
    system has DPUs to spare), executed by the row kernel, gathered, and
    dequantized before the host applies BN and activation.
    """

    def __init__(
        self,
        system: DpuSystem,
        model: Yolov3Model,
        *,
        n_tasklets: int = YOLO_TASKLETS,
        opt_level: OptLevel = OptLevel.O3,
        alpha: int = 1,
    ) -> None:
        self.system = system
        self.model = model
        self.n_tasklets = n_tasklets
        self.opt_level = opt_level
        self.alpha = alpha
        self.layer_reports: list[YoloLayerTiming] = []

    def run(self, image: np.ndarray) -> list[np.ndarray]:
        """Forward the image; returns the YOLO head outputs."""
        self.layer_reports = []
        return self.model.forward(image, conv_fn=self._pim_gemm)

    def timing(self) -> YoloNetworkTiming:
        return YoloNetworkTiming(layers=list(self.layer_reports))

    def _pim_gemm(self, plan, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        shape = plan.gemm
        a_params = QuantParams.from_tensor(a, bits=8)
        a_q = a_params.quantize(a).astype(np.int16)
        b_q, b_params, divisor = lower_layer_input(
            x, plan.geometry, a_q, self.alpha
        )

        # The DPUs run_gemm_layer stages: M rows per column slice.
        splits, tile = column_split(shape, self.system.n_dpus)
        n_dpus = min(shape.m * splits, self.system.n_dpus)
        attributes = self.system.attributes
        with telemetry.span(
            "yolo.layer",
            category="pipeline",
            layer=plan.layer_index,
            m=shape.m,
            n=shape.n,
            k=shape.k,
            n_dpus=n_dpus,
        ) as layer_span:
            dpu_set = self.system.allocate(n_dpus)
            try:
                c_rows, reports = run_gemm_layer(
                    dpu_set.dpus, attributes, plan, a_q, b_q, divisor,
                    self.alpha, n_tasklets=self.n_tasklets,
                    opt_level=self.opt_level,
                )
            finally:
                self.system.free(dpu_set)
            cycles = sum(report.cycles for report in reports)
            timing = YoloLayerTiming(
                layer_index=plan.layer_index,
                shape=shape,
                n_dpus=n_dpus,
                cycles=cycles,
                seconds=attributes.cycles_to_seconds(cycles),
                policy=AccumulatorPolicy.for_shape(tile),
            )
            self.layer_reports.append(timing)
            layer_span.set(
                cycles=cycles, seconds=timing.seconds,
                policy=timing.policy.value,
            )

        # Host-side dequantization: undo quantization scales and divisor.
        scale = a_params.scale * b_params.scale * divisor / self.alpha
        return c_rows.astype(np.float32) * np.float32(scale)
