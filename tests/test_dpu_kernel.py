"""Tests for repro.dpu.kernel (Python kernels with cycle accounting)."""

import pytest

from repro.dpu.costs import Operation, OptLevel, Precision
from repro.dpu.kernel import KernelContext, subroutine_for
from repro.errors import DpuError


class TestChargeAccounting:
    def test_plain_instructions(self):
        ctx = KernelContext()
        ctx.charge_instructions(100)
        assert ctx.issue_slots == 100

    def test_charge_op_uses_cost_tables(self):
        o0 = KernelContext(opt_level=OptLevel.O0)
        o3 = KernelContext(opt_level=OptLevel.O3)
        o0.charge_op(Operation.MUL, Precision.FIXED_32, 10)
        o3.charge_op(Operation.MUL, Precision.FIXED_32, 10)
        assert o0.issue_slots == 680  # 68 instructions each
        assert o3.issue_slots == 520  # 52 instructions each

    def test_charge_op_records_subroutine_profile(self):
        ctx = KernelContext(opt_level=OptLevel.O0)
        ctx.charge_op(Operation.MUL, Precision.FIXED_32, 7)
        assert ctx.profile.occurrences("__mulsi3") == 7

    def test_mul16_no_subroutine_at_o3(self):
        """Section 3.3: 16-bit multiply inlines under full optimization."""
        ctx = KernelContext(opt_level=OptLevel.O3)
        ctx.charge_op(Operation.MUL, Precision.FIXED_16, 5)
        assert ctx.profile.occurrences("__mulhi3") == 0
        assert subroutine_for(Operation.MUL, Precision.FIXED_16, OptLevel.O3) is None
        assert (
            subroutine_for(Operation.MUL, Precision.FIXED_16, OptLevel.O0)
            == "__mulhi3"
        )

    def test_charge_call_bulk(self):
        ctx = KernelContext(opt_level=OptLevel.O0)
        ctx.charge_call("__divsf3", 4)
        assert ctx.profile.occurrences("__divsf3") == 4
        assert ctx.issue_slots == 4 * 1092

    def test_negative_counts_rejected(self):
        ctx = KernelContext()
        with pytest.raises(DpuError):
            ctx.charge_instructions(-1)
        with pytest.raises(DpuError):
            ctx.charge_op(Operation.ADD, Precision.FIXED_8, -1)
        with pytest.raises(DpuError):
            ctx.charge_call("__mulsi3", -1)


class TestDmaAccounting:
    def test_streamed_dma_charge(self):
        ctx = KernelContext()
        ctx.charge_streamed_dma(4096)
        assert ctx.dma_cycles == 2 * 1049
        assert ctx.dma_bytes == 4096

    def test_raw_dma_cycles(self):
        ctx = KernelContext()
        ctx.charge_dma_cycles(100, 16)
        assert ctx.dma_cycles == 100
        assert ctx.dma_bytes == 16

    def test_negative_dma_rejected(self):
        with pytest.raises(DpuError):
            KernelContext().charge_dma_cycles(-1)


class TestElapsedCycles:
    def test_balanced_distribution(self):
        ctx = KernelContext(n_tasklets=11)
        ctx.charge_instructions(11_000)
        # 1000 slots per tasklet at interval 11 -> ~11000 cycles
        assert ctx.elapsed_cycles() == pytest.approx(11_000, rel=0.01)

    def test_dma_adds_serially(self):
        ctx = KernelContext(n_tasklets=11)
        ctx.charge_instructions(1100)
        ctx.charge_streamed_dma(2048)
        assert ctx.elapsed_cycles() == pytest.approx(1100 + 1049, rel=0.02)

    def test_work_units_straggler(self):
        """16 units on 11 tasklets: the straggler runs 2 units."""
        balanced = KernelContext(n_tasklets=11)
        balanced.charge_instructions(16_000)
        unit = KernelContext(n_tasklets=11)
        unit.charge_instructions(16_000)
        unit.set_work_units(16)
        # ceil(16/11)=2 units of 1000 slots each -> ~2000 slots of wall work
        assert unit.elapsed_cycles() > balanced.elapsed_cycles() * 1.2

    def test_work_units_match_at_exact_multiple(self):
        ctx = KernelContext(n_tasklets=16)
        ctx.charge_instructions(16_000)
        ctx.set_work_units(16)
        # one unit per tasklet: straggler = total/16
        assert ctx.elapsed_cycles() == pytest.approx(16_000, rel=0.05)

    def test_bad_unit_count_rejected(self):
        with pytest.raises(DpuError):
            KernelContext().set_work_units(0)

    def test_result_object(self):
        ctx = KernelContext(n_tasklets=2)
        ctx.charge_instructions(10)
        ctx.charge_streamed_dma(8)
        result = ctx.result()
        assert result.issue_slots == 10
        assert result.dma_cycles == 29
        assert result.n_tasklets == 2
        assert result.compute_cycles == result.cycles - result.dma_cycles

