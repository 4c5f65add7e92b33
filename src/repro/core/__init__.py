"""The paper's primary contribution: CNN-to-UPMEM mapping and orchestration."""

from repro.core.lut import LookupTable, create_lut, lut_matches_float_path
from repro.core.mapping_ebnn import (
    EBNN_TASKLETS,
    IMAGES_PER_DPU,
    EbnnDpuLayout,
    EbnnPimRunner,
    EbnnRunResult,
    charge_ebnn_costs,
    ebnn_dpu_cycles,
    ebnn_image_latency_seconds,
)
from repro.core.mapping_yolo import (
    YOLO_TASKLETS,
    AccumulatorPolicy,
    YoloDpuLayout,
    YoloNetworkTiming,
    YoloPimRunner,
    charge_gemm_row_costs,
    gemm_layer_cycles,
    yolo_network_timing,
)
from repro.core.planner import (
    LayerDecision,
    MappingPlan,
    MappingPlanner,
    Scheme,
)

__all__ = [
    "LookupTable",
    "create_lut",
    "lut_matches_float_path",
    "EBNN_TASKLETS",
    "IMAGES_PER_DPU",
    "EbnnDpuLayout",
    "EbnnPimRunner",
    "EbnnRunResult",
    "charge_ebnn_costs",
    "ebnn_dpu_cycles",
    "ebnn_image_latency_seconds",
    "YOLO_TASKLETS",
    "AccumulatorPolicy",
    "YoloDpuLayout",
    "YoloNetworkTiming",
    "YoloPimRunner",
    "charge_gemm_row_costs",
    "gemm_layer_cycles",
    "yolo_network_timing",
    "LayerDecision",
    "MappingPlan",
    "MappingPlanner",
    "Scheme",
]
