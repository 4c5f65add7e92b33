"""The alternative YOLOv3 mapping of Section 6.1 (future work).

The thesis proposes, as future work, squeezing *whole YOLOv3 inferences*
into single DPUs — emulating the eBNN multi-image scheme — and comparing
that against the per-layer GEMM-row mapping.  This module carries out the
comparison:

* **Feasibility**: a whole-inference DPU must hold every layer's weights
  plus the largest activation working set in its 64 MB MRAM.  Full
  YOLOv3's int16 weights alone are ~123 MB, so the scheme only becomes
  feasible for narrower variants — a quantitative answer to the thesis's
  "what size of CNN suits UPMEM" question.
* **Throughput/latency trade**: the row mapping minimizes *latency* (all
  filter rows in parallel, layers serialized); the whole-image mapping
  maximizes *throughput* (2560 independent inferences in flight) at the
  cost of enormous single-image latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mapping_yolo import (
    AccumulatorPolicy,
    charge_gemm_row_costs,
    yolo_network_timing,
)
from repro.dpu.attributes import UPMEM_ATTRIBUTES, UpmemAttributes
from repro.dpu.costs import OptLevel
from repro.dpu.kernel import KernelContext
from repro.errors import MappingError
from repro.nn.models.darknet import Yolov3Model

#: Bytes per quantized weight/activation element (int16).
ELEMENT_BYTES = 2


def weight_bytes(model: Yolov3Model) -> int:
    """MRAM bytes for every conv layer's quantized weights."""
    return sum(
        plan.gemm.m * plan.gemm.k * ELEMENT_BYTES for plan in model.plans
    )


def peak_activation_bytes(model: Yolov3Model) -> int:
    """Largest per-layer working set: im2col input plus output row block."""
    peak = 0
    for plan in model.plans:
        shape = plan.gemm
        working = (shape.k * shape.n + shape.m * shape.n) * ELEMENT_BYTES
        peak = max(peak, working)
    return peak


def single_dpu_footprint_bytes(model: Yolov3Model) -> int:
    """Total MRAM a whole-inference DPU needs."""
    return weight_bytes(model) + peak_activation_bytes(model)


def fits_single_dpu(
    model: Yolov3Model, attributes: UpmemAttributes = UPMEM_ATTRIBUTES
) -> bool:
    """Whether one DPU can hold a whole inference (the feasibility gate)."""
    return single_dpu_footprint_bytes(model) <= attributes.mram_bytes


def whole_image_dpu_cycles(
    model: Yolov3Model,
    *,
    n_tasklets: int = 11,
    opt_level: OptLevel = OptLevel.O3,
) -> float:
    """Cycles for ONE DPU to run ALL layers of one inference serially.

    Each layer costs its full M filter rows on this single DPU; the same
    cost recipe as the row mapping keeps the two schemes comparable.
    """
    ctx = KernelContext(n_tasklets=n_tasklets, opt_level=opt_level)
    for plan in model.plans:
        shape = plan.gemm
        policy = AccumulatorPolicy.for_shape(shape)
        for _ in range(shape.m):
            charge_gemm_row_costs(ctx, shape, policy=policy)
    return ctx.elapsed_cycles()


@dataclass(frozen=True)
class SchemeComparison:
    """Section 6.1's mapping comparison, quantified."""

    feasible: bool
    footprint_bytes: int
    mram_bytes: int
    row_latency_s: float
    row_throughput_fps: float
    row_dpus: int
    whole_latency_s: float | None
    whole_throughput_fps: float | None

    @property
    def throughput_advantage(self) -> float | None:
        """Whole-image throughput relative to the row mapping's."""
        if self.whole_throughput_fps is None:
            return None
        return self.whole_throughput_fps / self.row_throughput_fps

    @property
    def latency_penalty(self) -> float | None:
        """Whole-image single-frame latency relative to the row mapping's."""
        if self.whole_latency_s is None:
            return None
        return self.whole_latency_s / self.row_latency_s


def compare_mappings(
    model: Yolov3Model,
    *,
    attributes: UpmemAttributes = UPMEM_ATTRIBUTES,
    opt_level: OptLevel = OptLevel.O3,
    n_tasklets: int = 11,
) -> SchemeComparison:
    """Row-per-DPU vs whole-image-per-DPU for one network variant."""
    row_timing = yolo_network_timing(
        model,
        attributes=attributes,
        opt_level=opt_level,
        n_tasklets=n_tasklets,
    )
    row_latency = row_timing.total_seconds
    if row_latency <= 0:
        raise MappingError("row mapping produced a non-positive latency")
    row_dpus = row_timing.total_dpu_demand
    # The row mapping pipelines poorly across images (layers hold the
    # DPUs serially), so its throughput is ~1/latency.
    row_throughput = 1.0 / row_latency

    if not fits_single_dpu(model, attributes):
        return SchemeComparison(
            feasible=False,
            footprint_bytes=single_dpu_footprint_bytes(model),
            mram_bytes=attributes.mram_bytes,
            row_latency_s=row_latency,
            row_throughput_fps=row_throughput,
            row_dpus=row_dpus,
            whole_latency_s=None,
            whole_throughput_fps=None,
        )

    cycles = whole_image_dpu_cycles(
        model, n_tasklets=n_tasklets, opt_level=opt_level
    )
    whole_latency = attributes.cycles_to_seconds(cycles)
    whole_throughput = attributes.n_dpus / whole_latency
    return SchemeComparison(
        feasible=True,
        footprint_bytes=single_dpu_footprint_bytes(model),
        mram_bytes=attributes.mram_bytes,
        row_latency_s=row_latency,
        row_throughput_fps=row_throughput,
        row_dpus=row_dpus,
        whole_latency_s=whole_latency,
        whole_throughput_fps=whole_throughput,
    )
