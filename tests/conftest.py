"""Shared pytest fixtures and test kernels.

Defining the test kernel and the launch helper here (rather than in one
test module) keeps every test file independently runnable.
"""

import functools

import numpy as np
import pytest

from repro import telemetry
from repro.core.mapping_ebnn import IMAGES_PER_DPU
from repro.dpu.costs import OptLevel
from repro.dpu.kernel import charged_result


def double_kernel(dpus, *, n_tasklets, opt_level, count=0):
    """Doubles ``count`` int32 values at each DPU's ``data`` symbol."""
    for dpu in dpus:
        if count:
            addr = dpu.symbol("data").mram_addr
            values = dpu.mram.read_array(addr, np.int32, count)
            dpu.mram.write_array(addr, values * 2)
    result = charged_result(
        lambda ctx: ctx.charge_instructions(4 * count),
        n_tasklets=n_tasklets, opt_level=opt_level,
    )
    return [result] * len(dpus)


def launch_kernel(
    dpu_set, kernel, *, n_tasklets=1, opt_level=OptLevel.O0,
    fault_policy=None, max_retries=None, **params,
):
    """One launch of ``kernel`` over the whole loaded set, the way a
    mapping runs its kernel image: :meth:`DpuSet.decide`, then
    :meth:`DpuSet.charge` of one row per DPU.  Returns its report."""
    decision = dpu_set.decide(n_tasklets, opt_level, fault_policy, max_retries)
    (report,) = dpu_set.charge(decision, len(dpu_set), functools.partial(
        kernel, n_tasklets=n_tasklets, opt_level=opt_level, **params
    ))
    return report


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
