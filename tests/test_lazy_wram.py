"""WRAM is allocated on first touch.

Kernel images (the YOLO and eBNN mappings) never touch WRAM, so their
DPUs must not pay 64 KB each for it; a checkpoint or a rollback must
not allocate or copy it either.  An interpreted program allocates it and
reads zeros, and rolling a DPU back restores an unallocated WRAM.
"""

import numpy as np

from repro import faults
from repro.core.mapping_ebnn import EbnnPimRunner
from repro.core.mapping_yolo import YoloPimRunner
from repro.datasets import generate_batch
from repro.dpu.assembler import assemble
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.device import Dpu, DpuImage
from repro.dpu.memory import Wram
from repro.faults import FaultPlan
from repro.host.runtime import DpuSystem
from repro.nn.models.darknet import Yolov3Model
from repro.nn.models.ebnn import EbnnModel

SMALL = UPMEM_ATTRIBUTES.scaled(8)

#: Copies WRAM word 64 (never written) to the ``out`` symbol.
READ_SOURCE = """
        lw   r5, r0, 64
        sw   r5, r0, 0
        li   r1, 0
        li   r2, 0
        sdma r1, r2, 8
        halt
"""


def read_image() -> DpuImage:
    return DpuImage.from_symbol_layout(
        "read_wram", program=assemble(READ_SOURCE, name="read_wram"),
        layout=[("out", 8)],
    )


def allocated(system: DpuSystem) -> list[bool]:
    return [dpu.wram.allocated for dpu in system._dpus.values()]


def test_new_wram_is_unallocated_and_reads_zeros():
    wram = Wram(1024)
    assert not wram.allocated
    assert wram.read(100, 8) == bytes(8)
    assert wram.allocated


def test_yolo_runner_leaves_wram_unallocated():
    system = DpuSystem(SMALL)
    image = np.random.default_rng(4).random((3, 64, 64)).astype(np.float32)
    model = Yolov3Model(64, width_scale=0.05, seed=21)
    with faults.fault_injection(None):
        YoloPimRunner(system, model).run(image)
    assert system._dpus and not any(allocated(system))


def test_ebnn_runner_leaves_wram_unallocated():
    system = DpuSystem(SMALL)
    with faults.fault_injection(None):
        EbnnPimRunner(system, EbnnModel()).run(
            generate_batch(16, seed=11).normalized()
        )
    assert system._dpus and not any(allocated(system))


def test_program_allocates_wram_and_reads_zeros():
    system = DpuSystem(SMALL)
    dpu_set = system.allocate(2)
    dpu_set.load(read_image())
    dpu_set.broadcast("out", b"\xff" * 8)
    with faults.fault_injection(None):
        dpu_set.launch()
    assert all(dpu.wram.allocated for dpu in dpu_set)
    assert dpu_set.gather("out", 8) == [bytes(8)] * 2


def test_rollback_restores_an_unallocated_wram():
    """A DPU whose every attempt fails is rolled back to no WRAM."""
    system = DpuSystem(SMALL)
    dpu_set = system.allocate(2)
    dpu_set.load(read_image())
    plan = FaultPlan(
        targets={dpu_set[1].dpu_id: "fault"}, target_attempts=10,
        default_policy="retry",
    )
    with faults.fault_injection(plan):
        report = dpu_set.launch()
    assert [o.ok for o in report.outcomes] == [True, False]
    assert [dpu.wram.allocated for dpu in dpu_set] == [True, False]


def test_unallocated_wram_checkpoints_as_none():
    """An unallocated WRAM checkpoints as None and restores unallocated,
    as often as it is restored."""
    dpu = Dpu()
    checkpoint = dpu.checkpoint()
    assert checkpoint.wram is None
    for _ in range(2):
        dpu.wram.write(0, b"\x01" * 8)
        dpu.restore(checkpoint)
        assert not dpu.wram.allocated
        assert dpu.wram.read(0, 8) == bytes(8)
