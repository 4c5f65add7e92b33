"""Error-path coverage: the failure modes a user will actually hit."""

import numpy as np
import pytest

from repro.dpu.assembler import assemble
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.device import Dpu, DpuImage
from repro.dpu.interpreter import Interpreter
from repro.dpu.memory import DmaEngine, Iram, Mram, Wram
from repro.host.runtime import DpuSystem
from tests.conftest import double_kernel, launch_kernel
from repro.errors import (
    AllocationError,
    DpuLimitError,
    DpuMemoryError,
    SymbolError,
    TransferError,
)


class TestDpuFaults:
    def test_wram_access_past_end_faults_at_runtime(self):
        program = assemble("li r1, 65532\nlw r2, r1, 8\nhalt")
        interpreter = Interpreter(program, Wram(), DmaEngine(Mram(), Wram()))
        with pytest.raises(DpuMemoryError):
            interpreter.run()

    def test_dma_misalignment_faults_at_runtime(self):
        program = assemble("li r1, 4\nli r2, 0\nldma r1, r2, 8\nhalt")
        wram = Wram()
        interpreter = Interpreter(program, wram, DmaEngine(Mram(), wram))
        with pytest.raises(Exception):  # DpuAlignmentError subclass
            interpreter.run()

    def test_oversized_program_rejected_by_iram(self):
        big = assemble("nop\n" * 4000 + "halt")
        with pytest.raises(DpuMemoryError, match="IRAM"):
            Iram().load(big.instructions)

    def test_oversized_program_rejected_at_device_load(self):
        big = assemble("nop\n" * 4000 + "halt")
        with pytest.raises(DpuMemoryError):
            Dpu().load(DpuImage(name="big", program=big))

    def test_infinite_loop_hits_the_guard(self):
        program = assemble("spin: j spin")
        interpreter = Interpreter(
            program, Wram(), DmaEngine(Mram(), Wram()), max_instructions=500
        )
        with pytest.raises(DpuLimitError, match="runaway"):
            interpreter.run()

    def test_jr_to_garbage_halts_cleanly(self):
        """Jumping past the program end behaves like falling off it."""
        program = assemble("li r1, 9999\njr r1")
        result = Interpreter(
            program, Wram(), DmaEngine(Mram(), Wram())
        ).run()
        assert result.instructions_retired == 2

    def test_division_by_zero_in_runtime_call(self):
        program = assemble("li r1, 5\nli r2, 0\ncall __divsi3\nhalt")
        interpreter = Interpreter(program, Wram(), DmaEngine(Mram(), Wram()))
        with pytest.raises(Exception):
            interpreter.run()


class TestHostErrors:
    def test_exhausting_the_system(self):
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(4))
        system.allocate(4)
        with pytest.raises(AllocationError, match="only 0"):
            system.allocate(1)

    def test_free_then_reallocate(self):
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(4))
        first = system.allocate(4)
        system.free(first)
        assert len(system.allocate(4)) == 4

    def test_transfer_to_missing_symbol(self):
        from repro.host.transfer import copy_to

        dpu = Dpu()
        dpu.load(DpuImage(name="p", program=assemble("halt")))
        with pytest.raises(SymbolError):
            copy_to([dpu], "ghost", b"12345678")

    def test_transfer_overflowing_symbol(self):
        from repro.host.transfer import copy_to

        image = DpuImage.from_symbol_layout(
            "s", layout=[("data", 8)]
        )
        dpu = Dpu()
        dpu.load(image)
        with pytest.raises(SymbolError):
            copy_to([dpu], "data", b"x" * 16)

    def test_unaligned_scatter_is_padded_not_rejected(self):
        """scatter_rows pads; raw copy_to with odd size is rejected."""
        from repro.host.transfer import copy_to, scatter_rows

        image = DpuImage.from_symbol_layout(
            "s", layout=[("data", 16)]
        )
        dpu = Dpu()
        dpu.load(image)
        with pytest.raises(TransferError):
            copy_to([dpu], "data", b"abc")
        scatter_rows([dpu], "data", [b"abc"])  # padded to 8 bytes
        assert dpu.read_symbol("data", 8)[:3] == b"abc"

    def test_launch_kernel_missing_params(self):
        dpu_set = DpuSystem(UPMEM_ATTRIBUTES.scaled(1)).allocate(1)
        dpu_set.load(DpuImage.from_symbol_layout("k", layout=[("data", 32)]))
        with pytest.raises(TypeError):
            launch_kernel(dpu_set, double_kernel, bogus_param=1)
        assert dpu_set.clock.now == 0.0


class TestMappingErrors:
    @pytest.mark.parametrize(
        "n_dpus,n_images", [(1, 40), (4, 100)],
        ids=["1dpu-40img", "4dpu-100img"],
    )
    def test_ebnn_oversized_batch_runs_in_waves(
        self, n_dpus, n_images, ebnn_reference
    ):
        """A batch beyond system capacity executes in sequential waves
        and classifies every image: this test caught a silent truncation
        bug, and a last wave that left a DPU without images."""
        from repro.core.mapping_ebnn import EbnnPimRunner
        from repro.datasets import generate_batch
        from repro.nn.models.ebnn import EbnnModel

        model = EbnnModel()
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(n_dpus))
        runner = EbnnPimRunner(system, model)
        batch = generate_batch(n_images, seed=1).normalized()

        one_wave = runner.run(batch[: 16 * n_dpus])
        assert one_wave.n_dpus == n_dpus

        waves = runner.run(batch)  # beyond the system's 16 images per DPU
        assert waves.n_images == n_images
        assert np.array_equal(
            waves.predictions, ebnn_reference(model, batch, waves)
        )
        # every wave runs after the last: time accumulates
        n_waves = -(-n_images // (16 * n_dpus))
        assert waves.dpu_report.cycles > (n_waves - 0.5) * one_wave.dpu_report.cycles

    def test_planner_rejects_unknown_workload(self):
        from repro.core.planner import MappingPlanner
        from repro.errors import MappingError

        with pytest.raises(MappingError):
            MappingPlanner().plan_auto("not a network")
