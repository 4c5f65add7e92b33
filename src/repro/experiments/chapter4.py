"""Chapter 4 experiments: CNNs on the UPMEM PIM system.

* ``fig_4_3`` — float-subroutine reduction from the LUT transformation.
* ``fig_4_4`` — eBNN 16-image completion time, float BN vs LUT.
* ``fig_4_7a`` — tasklet-count speedup for eBNN and YOLOv3.
* ``fig_4_7b`` — YOLOv3 under threading x compiler-optimization combos.
* ``fig_4_7c`` — eBNN speedup over the Xeon CPU as DPUs scale.
* ``single_latency`` — the Section 4.3.1 headline latencies.
* ``ebnn_pim`` — a *functional* eBNN batch through the simulated system
  (allocate, scatter, launch, classify) — the experiment to run under
  ``repro trace`` / ``repro metrics``.
"""

from __future__ import annotations

from repro.baselines.cpu import XeonModel, dpu_speedup_curve
from repro.core.mapping_ebnn import (
    EBNN_TASKLETS,
    IMAGES_PER_DPU,
    EbnnDpuLayout,
    charge_ebnn_costs,
    ebnn_dpu_cycles,
)
from repro.core.mapping_yolo import (
    AccumulatorPolicy,
    gemm_layer_cycles,
    yolo_network_timing,
)
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.dpu.kernel import KernelContext
from repro.experiments.base import ExperimentResult, register
from repro.nn.gemm import GemmShape
from repro.nn.models.darknet import Yolov3Model
from repro.nn.models.ebnn import EbnnConfig

#: A WRAM-friendly head layer (13x13 output, 512->1024 filters) used for
#: the tasklet sweep — the regime where threading shows its full effect.
_SWEEP_SHAPE = GemmShape(m=1024, n=169, k=4608)

_TASKLET_SWEEP = (1, 2, 4, 6, 8, 11, 12, 14, 16, 20, 24)


def _ebnn_profile(use_lut: bool) -> KernelContext:
    config = EbnnConfig()
    layout = EbnnDpuLayout(config)
    ctx = KernelContext(n_tasklets=EBNN_TASKLETS, opt_level=OptLevel.O0)
    charge_ebnn_costs(ctx, config, layout, IMAGES_PER_DPU, use_lut=use_lut)
    return ctx


@register("fig_4_3")
def fig_4_3() -> ExperimentResult:
    """Fig. 4.3: float subroutines before/after the LUT transformation."""
    result = ExperimentResult(
        "fig_4_3",
        "Runtime subroutines in the eBNN DPU program, without vs with LUT",
        ["variant", "distinct_subroutines", "float_subroutines", "subroutine_list"],
    )
    for use_lut, label in ((False, "default (float BN+BinAct)"), (True, "LUT")):
        ctx = _ebnn_profile(use_lut)
        names = sorted(ctx.profile.records)
        result.add_row(
            label,
            ctx.profile.distinct_subroutines(),
            len(ctx.profile.float_subroutine_names()),
            ", ".join(names),
        )
    result.notes.append(
        "paper: 11+ subroutines reduced to 2, with __mulsi3 remaining "
        "because it is tied to a dependent (indexing) part of the program"
    )
    return result


@register("fig_4_4")
def fig_4_4() -> ExperimentResult:
    """Fig. 4.4: 16-image eBNN completion time with and without the LUT."""
    config = EbnnConfig()
    attrs = UPMEM_ATTRIBUTES
    result = ExperimentResult(
        "fig_4_4",
        "eBNN completion time for 16 images, float BN vs LUT (-O0)",
        ["variant", "dpu_cycles", "milliseconds"],
    )
    cycles = {}
    for use_lut, label in ((False, "without LUT"), (True, "with LUT")):
        c = ebnn_dpu_cycles(config, use_lut=use_lut, opt_level=OptLevel.O0)
        cycles[use_lut] = c
        result.add_row(label, c, attrs.cycles_to_seconds(c) * 1e3)
    speedup = cycles[False] / cycles[True]
    result.notes.append(
        f"LUT speedup: {speedup:.2f}x (paper reports 1.4x)"
    )
    return result


@register("fig_4_7a")
def fig_4_7a() -> ExperimentResult:
    """Fig. 4.7(a): speedup from multi-threading within a DPU."""
    config = EbnnConfig()
    result = ExperimentResult(
        "fig_4_7a",
        "Tasklet speedup over single-thread execution (eBNN and YOLOv3)",
        ["tasklets", "ebnn_speedup", "yolo_speedup"],
    )
    ebnn_base = ebnn_dpu_cycles(config, n_tasklets=1, opt_level=OptLevel.O3)
    yolo_base = gemm_layer_cycles(
        _SWEEP_SHAPE, n_tasklets=1, opt_level=OptLevel.O3,
        policy=AccumulatorPolicy.WRAM,
    )
    for tasklets in _TASKLET_SWEEP:
        ebnn = ebnn_dpu_cycles(config, n_tasklets=tasklets, opt_level=OptLevel.O3)
        yolo = gemm_layer_cycles(
            _SWEEP_SHAPE, n_tasklets=tasklets, opt_level=OptLevel.O3,
            policy=AccumulatorPolicy.WRAM,
        )
        result.add_row(tasklets, ebnn_base / ebnn, yolo_base / yolo)
    result.notes.append(
        "YOLOv3 saturates at 11 tasklets (the pipeline depth); eBNN dips "
        "at 11 and recovers at 16 where tasklets match the 16-image batch"
    )
    return result


@register("fig_4_7b")
def fig_4_7b() -> ExperimentResult:
    """Fig. 4.7(b): YOLOv3 across threading/optimization combinations."""
    model = Yolov3Model(416)
    result = ExperimentResult(
        "fig_4_7b",
        "YOLOv3 single-image latency: threading x compiler optimization",
        ["optimization", "tasklets", "latency_s", "throughput_rel"],
    )
    combos = [
        (OptLevel.O0, 1),
        (OptLevel.O0, 11),
        (OptLevel.O3, 1),
        (OptLevel.O3, 11),
    ]
    latencies = {}
    for opt, tasklets in combos:
        timing = yolo_network_timing(model, opt_level=opt, n_tasklets=tasklets)
        latencies[(opt, tasklets)] = timing.total_seconds
    worst = max(latencies.values())
    for (opt, tasklets), latency in latencies.items():
        result.add_row(opt.name, tasklets, latency, worst / latency)
    result.notes.append(
        "paper ordering: O0+no-threading poorest; O3+threading best; the "
        "threading jump larger than the optimization jump"
    )
    return result


@register("fig_4_7c")
def fig_4_7c() -> ExperimentResult:
    """Fig. 4.7(c): eBNN speedup over the Xeon CPU vs DPU count."""
    config = EbnnConfig()
    attrs = UPMEM_ATTRIBUTES
    xeon = XeonModel()
    cpu_image = xeon.ebnn_image_seconds(config)
    dpu_batch = ebnn_dpu_cycles(config, opt_level=OptLevel.O3)
    dpu_image = attrs.cycles_to_seconds(dpu_batch) / IMAGES_PER_DPU
    counts = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 2560]
    result = ExperimentResult(
        "fig_4_7c",
        "eBNN inference speedup over a single Intel Xeon CPU",
        ["n_dpus", "speedup"],
    )
    for count, speedup in dpu_speedup_curve(cpu_image, dpu_image, counts):
        result.add_row(count, speedup)
    result.notes.append(
        f"CPU image latency (model): {cpu_image * 1e6:.1f} us; DPU image "
        f"latency: {dpu_image * 1e6:.1f} us; linear scaling, maximum at "
        f"the full 2560-DPU system"
    )
    return result


@register("multi_dpu_throughput")
def multi_dpu_throughput() -> ExperimentResult:
    """Section 4.3.2: system-wide eBNN throughput with resident images.

    Each DPU holds 316,800 images in MRAM and works through them in
    16-image staged batches; the full 2560-DPU system therefore processes
    316,800 x 2560 images for the latency of one DPU's resident load —
    the massively-parallel claim of the section, with the throughput
    curve behind Fig. 4.7(c).
    """
    from repro.baselines.cpu import IMAGES_RESIDENT_PER_DPU

    config = EbnnConfig()
    attrs = UPMEM_ATTRIBUTES
    batch_cycles = ebnn_dpu_cycles(config, opt_level=OptLevel.O3)
    batch_seconds = attrs.cycles_to_seconds(batch_cycles)
    per_dpu_fps = IMAGES_PER_DPU / batch_seconds
    resident_seconds = (
        IMAGES_RESIDENT_PER_DPU / IMAGES_PER_DPU
    ) * batch_seconds

    result = ExperimentResult(
        "multi_dpu_throughput",
        "System-wide eBNN throughput (Section 4.3.2)",
        ["n_dpus", "images_resident", "throughput_fps", "resident_load_s"],
    )
    for n_dpus in (1, 16, 256, 1024, 2560):
        result.add_row(
            n_dpus,
            n_dpus * IMAGES_RESIDENT_PER_DPU,
            n_dpus * per_dpu_fps,
            resident_seconds,
        )
    result.notes.append(
        f"one DPU: {per_dpu_fps:.0f} images/s; the full system holds "
        f"{2560 * IMAGES_RESIDENT_PER_DPU / 1e6:.0f} M images resident "
        f"and finishes them all in {resident_seconds:.0f} s"
    )
    return result


@register("single_latency")
def single_latency() -> ExperimentResult:
    """Section 4.3.1: the headline single-image latencies."""
    config = EbnnConfig()
    attrs = UPMEM_ATTRIBUTES
    ebnn_cycles = ebnn_dpu_cycles(config, opt_level=OptLevel.O3)
    ebnn_image_s = attrs.cycles_to_seconds(ebnn_cycles) / IMAGES_PER_DPU
    model = Yolov3Model(416)
    timing = yolo_network_timing(model, opt_level=OptLevel.O3, n_tasklets=11)
    result = ExperimentResult(
        "single_latency",
        "Single-image inference latency (best configuration)",
        ["metric", "simulated", "paper"],
    )
    result.add_row("eBNN latency (s)", ebnn_image_s, 1.48e-3)
    result.add_row("YOLOv3 latency (s)", timing.total_seconds, 65.0)
    result.add_row("YOLOv3 mean layer (s)", timing.mean_layer_seconds, 0.9)
    result.add_row("YOLOv3 max layer (s)", timing.max_layer_seconds, 6.0)
    result.notes.append(
        "YOLOv3 runs MRAM-bound (Section 4.3.3): tasklet stacks leave no "
        "WRAM for the 160 KB internal buffer, so accumulator and input "
        "traffic pay per-element DMA costs"
    )
    return result


@register("ebnn_pim")
def ebnn_pim() -> ExperimentResult:
    """A functional eBNN batch on the simulated PIM system.

    Unlike the closed-form sweeps above, this experiment actually
    allocates DPUs, scatters bit-packed images, launches the conv-pool
    kernel and classifies the gathered features — so it exercises every
    instrumented layer.  It is the intended target of ``repro trace
    ebnn_pim`` and ``repro metrics ebnn_pim``.
    """
    from repro.core.mapping_ebnn import EbnnPimRunner
    from repro.datasets import generate_batch
    from repro.host.runtime import DpuSystem
    from repro.nn.models.ebnn import EbnnModel

    n_images = 32
    model = EbnnModel()
    images = generate_batch(n_images, seed=7).normalized()
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(4))
    runner = EbnnPimRunner(system, model, use_lut=True, opt_level=OptLevel.O3)
    run = runner.run(images)

    result = ExperimentResult(
        "ebnn_pim",
        "Functional eBNN batch through the simulated PIM system (LUT, -O3)",
        ["metric", "value"],
    )
    result.add_row("images", run.n_images)
    result.add_row("dpus", run.n_dpus)
    result.add_row("tasklets", run.dpu_report.n_tasklets)
    result.add_row("dpu_ms", run.dpu_seconds * 1e3)
    result.add_row("host_ms", run.host_seconds * 1e3)
    result.add_row("ms_per_image", run.seconds_per_image * 1e3)
    result.add_row("dpu_subroutines", ", ".join(sorted(run.profile.records)))
    result.notes.append(
        "functional end-to-end run; per-phase spans and registry counters "
        "are visible via 'repro trace ebnn_pim' / 'repro metrics ebnn_pim'"
    )
    return result
