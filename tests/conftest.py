"""Shared pytest fixtures and test kernels.

Registering the test kernel here (rather than in one test module) keeps
every test file independently runnable.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.mapping_ebnn import IMAGES_PER_DPU
from repro.dpu.kernel import GLOBAL_KERNELS

# Importing repro.core registers the production kernels (ebnn_conv_pool,
# yolo_gemm_row) for every test session.
import repro.core  # noqa: F401


if "test_double" not in GLOBAL_KERNELS.names():

    @GLOBAL_KERNELS.register("test_double")
    def _double_kernel(ctx, *, count=0):
        """Doubles ``count`` int32 values at the ``data`` symbol."""
        if count:
            values = ctx.read_symbol_array("data", np.int32, count)
            ctx.write_symbol_array("data", values * 2)
        ctx.charge_instructions(4 * count)


@pytest.fixture
def ebnn_reference():
    """The labels an eBNN run must return: the model's own, except
    ``-1`` on every image of a DPU its launch isolated (a fault plan
    set through ``REPRO_FAULT_*`` may fail some)."""

    def expected(model, images, result):
        labels = model.predict_batch(images)
        # Outcome k, across waves, is the DPU that held image block k.
        for k, outcome in enumerate(result.dpu_report.outcomes):
            if not outcome.ok:
                labels[k * IMAGES_PER_DPU : (k + 1) * IMAGES_PER_DPU] = -1
        return labels

    return expected


@pytest.fixture
def transfers():
    """What the host-link counters of ``GLOBAL_METRICS`` counted since
    the test began: call it for bytes per direction, broadcasts and
    pushes."""
    before = telemetry.GLOBAL_METRICS.snapshot()

    def counted() -> dict:
        delta = telemetry.GLOBAL_METRICS.delta_since(before)
        moved = {
            dict(key)["direction"]: child["state"]
            for key, child in delta["transfer.bytes"].get("children", {}).items()
        }
        return {
            "to_dpu": moved.get("to_dpu", 0),
            "from_dpu": moved.get("from_dpu", 0),
            "broadcasts": delta["transfer.broadcasts"]["state"],
            "pushes": delta["transfer.pushes"]["state"],
        }

    return counted
