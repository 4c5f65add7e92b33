"""Tests for repro.dpu.device (the DPU object, images, symbols)."""

import numpy as np
import pytest

from repro.dpu.assembler import assemble
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.device import Dpu, DpuImage, Symbol
from repro.errors import DpuError, LaunchError, SymbolError
from repro.host.runtime import DpuSystem

# The shared "test_double" kernel is registered in conftest.py.


class TestDpuImage:
    def test_needs_exactly_one_payload(self):
        with pytest.raises(DpuError):
            DpuImage(name="bad")
        with pytest.raises(DpuError):
            DpuImage(
                name="bad",
                program=assemble("halt"),
                kernel_name="test_double",
            )

    def test_symbol_layout_packing(self):
        image = DpuImage.from_symbol_layout(
            "img",
            kernel_name="test_double",
            layout=[("a", 10), ("b", 8)],
        )
        assert image.symbols["a"].mram_addr == 0
        # "a" is 10 bytes; "b" starts at the next 8-byte boundary
        assert image.symbols["b"].mram_addr == 16

    def test_symbol_range_check(self):
        symbol = Symbol("s", 0, 16)
        symbol.check_range(8, 8)
        with pytest.raises(SymbolError):
            symbol.check_range(8, 16)
        with pytest.raises(SymbolError):
            symbol.check_range(-1, 4)


class TestProgramLaunch:
    def test_program_runs_on_device(self):
        dpu = Dpu()
        program = assemble(
            """
                li r1, 7
                li r9, 0
                sw r1, r9, 0
                halt
            """
        )
        dpu.load(DpuImage(name="p", program=program))
        result = dpu.launch()
        assert result.cycles > 0
        assert dpu.wram.read_u32(0) == 7

    def test_launch_without_image(self):
        with pytest.raises(LaunchError):
            Dpu().launch()

    def test_tasklet_limit_enforced(self):
        dpu = Dpu()
        dpu.load(DpuImage(name="p", program=assemble("halt")))
        with pytest.raises(LaunchError):
            dpu.launch(n_tasklets=25)
        with pytest.raises(LaunchError):
            dpu.launch(n_tasklets=0)


def kernel_image():
    return DpuImage.from_symbol_layout(
        "k", kernel_name="test_double", layout=[("data", 64)]
    )


class TestKernelLaunch:
    def make_loaded_dpu(self):
        dpu = Dpu()
        dpu.load(kernel_image())
        return dpu

    def make_loaded_set(self):
        """A one-DPU set: kernels launch through a set only."""
        dpu_set = DpuSystem(UPMEM_ATTRIBUTES.scaled(1)).allocate(1)
        dpu_set.load(kernel_image())
        return dpu_set

    def test_kernel_reads_and_writes_symbols(self):
        dpu_set = self.make_loaded_set()
        (dpu,) = dpu_set
        values = np.arange(8, dtype=np.int32)
        dpu.write_symbol_array("data", values)
        report = dpu_set.launch(count=8)
        assert np.array_equal(
            dpu.read_symbol_array("data", np.int32, 8), values * 2
        )
        assert dpu.last_result.issue_slots == 32
        assert report.cycles == dpu.last_cycles()

    def test_dpu_launch_rejects_a_kernel_image(self):
        """A kernel image runs set-wide: a one-DPU launch refuses it
        before any memory or result changes."""
        dpu = self.make_loaded_dpu()
        dpu.write_symbol_array("data", np.arange(8, dtype=np.int32))
        with pytest.raises(LaunchError, match="runs set-wide"):
            dpu.launch(count=8)
        assert np.array_equal(
            dpu.read_symbol_array("data", np.int32, 8), np.arange(8)
        )
        assert dpu.last_result is None

    def test_unknown_kernel_rejected_at_load(self):
        dpu = Dpu()
        with pytest.raises(DpuError):
            dpu.load(DpuImage(name="x", kernel_name="not_registered"))

    def test_symbol_errors(self):
        dpu = self.make_loaded_dpu()
        with pytest.raises(SymbolError):
            dpu.write_symbol("nope", b"12345678")
        with pytest.raises(SymbolError):
            dpu.write_symbol("data", b"x" * 100)  # overflows the symbol

    def test_no_image_symbol_access(self):
        with pytest.raises(SymbolError):
            Dpu().symbol("data")

    def test_last_cycles_and_seconds(self):
        dpu_set = self.make_loaded_set()
        (dpu,) = dpu_set
        assert dpu.last_cycles() == 0.0
        dpu.write_symbol_array("data", np.zeros(8, dtype=np.int32))
        dpu_set.launch(count=8)
        assert dpu.last_cycles() > 0
        assert dpu.last_seconds() == pytest.approx(
            dpu.last_cycles() / 350e6
        )

    def test_symbol_offset_access(self):
        dpu = self.make_loaded_dpu()
        dpu.write_symbol("data", b"ABCDEFGH", offset=8)
        assert dpu.read_symbol("data", 8, offset=8) == b"ABCDEFGH"
