"""Tests for repro.core.mapping_yolo (the GEMM-row-per-DPU scheme)."""

import numpy as np
import pytest

from repro.core.mapping_yolo import (
    CTMP_WRAM_BUDGET_BYTES,
    AccumulatorPolicy,
    YoloDpuLayout,
    YoloPimRunner,
    accumulator_divisor,
    gemm_layer_cycles,
    yolo_network_timing,
)
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.host.runtime import DpuSystem
from repro.nn.gemm import GemmShape, gemm_fast
from repro.nn.models.darknet import Yolov3Model


class TestAccumulatorPolicy:
    def test_small_n_stays_in_wram(self):
        shape = GemmShape(m=16, n=169, k=512)
        assert AccumulatorPolicy.for_shape(shape) is AccumulatorPolicy.WRAM

    def test_large_n_goes_to_mram(self):
        shape = GemmShape(m=16, n=173056, k=27)
        assert AccumulatorPolicy.for_shape(shape) is AccumulatorPolicy.MRAM

    def test_threshold_boundary(self):
        at_budget = GemmShape(m=1, n=CTMP_WRAM_BUDGET_BYTES // 4, k=1)
        over = GemmShape(m=1, n=CTMP_WRAM_BUDGET_BYTES // 4 + 1, k=1)
        assert AccumulatorPolicy.for_shape(at_budget) is AccumulatorPolicy.WRAM
        assert AccumulatorPolicy.for_shape(over) is AccumulatorPolicy.MRAM


class TestLayerCycles:
    SHAPE = GemmShape(m=64, n=1024, k=288)

    def test_mram_policy_costs_more(self):
        wram = gemm_layer_cycles(self.SHAPE, policy=AccumulatorPolicy.WRAM)
        mram = gemm_layer_cycles(self.SHAPE, policy=AccumulatorPolicy.MRAM)
        assert mram > wram * 3

    def test_o3_faster_than_o0(self):
        o0 = gemm_layer_cycles(self.SHAPE, opt_level=OptLevel.O0)
        o3 = gemm_layer_cycles(self.SHAPE, opt_level=OptLevel.O3)
        assert o3 < o0

    def test_tasklets_help_compute_bound_layers(self):
        single = gemm_layer_cycles(
            self.SHAPE, n_tasklets=1, policy=AccumulatorPolicy.WRAM
        )
        many = gemm_layer_cycles(
            self.SHAPE, n_tasklets=11, policy=AccumulatorPolicy.WRAM
        )
        assert single / many > 5

    def test_saturation_at_pipeline_depth(self):
        """Fig. 4.7(a): no speedup past 11 tasklets."""
        at_11 = gemm_layer_cycles(
            self.SHAPE, n_tasklets=11, policy=AccumulatorPolicy.WRAM
        )
        at_24 = gemm_layer_cycles(
            self.SHAPE, n_tasklets=24, policy=AccumulatorPolicy.WRAM
        )
        assert at_24 >= at_11 * 0.99

    def test_dma_does_not_scale_with_tasklets(self):
        """MRAM-bound layers barely benefit from threading (Section 4.3.3)."""
        shape = GemmShape(m=16, n=43264, k=128)
        single = gemm_layer_cycles(shape, n_tasklets=1)
        many = gemm_layer_cycles(shape, n_tasklets=11)
        assert single / many < 5  # far below the 11x compute-bound gain


class TestNetworkTiming:
    @pytest.fixture(scope="class")
    def model(self):
        return Yolov3Model(416)

    def test_layer_count(self, model):
        timing = yolo_network_timing(model)
        assert len(timing.layers) == 75

    def test_best_config_in_paper_ballpark(self, model):
        """Section 4.3.1: ~65 s/frame; the simulation lands within ~2x."""
        timing = yolo_network_timing(
            model, opt_level=OptLevel.O3, n_tasklets=11
        )
        assert 20 <= timing.total_seconds <= 130
        assert 0.2 <= timing.mean_layer_seconds <= 2.0
        assert 1.5 <= timing.max_layer_seconds <= 12.0

    def test_fig_4_7b_ordering(self, model):
        """O0/1t slowest; O3/11t fastest; threading beats optimization."""
        grid = {
            (opt, t): yolo_network_timing(
                model, opt_level=opt, n_tasklets=t
            ).total_seconds
            for opt in (OptLevel.O0, OptLevel.O3)
            for t in (1, 11)
        }
        assert grid[(OptLevel.O0, 1)] == max(grid.values())
        assert grid[(OptLevel.O3, 11)] == min(grid.values())
        threading_jump = grid[(OptLevel.O0, 1)] / grid[(OptLevel.O0, 11)]
        optimization_jump = grid[(OptLevel.O0, 1)] / grid[(OptLevel.O3, 1)]
        assert threading_jump > optimization_jump

    def test_dpu_demand_is_widest_layer(self, model):
        timing = yolo_network_timing(model)
        assert timing.total_dpu_demand == 1024

    def test_most_time_is_mram_bound(self, model):
        """Section 4.3.3: the implementation is MRAM-access dominated."""
        timing = yolo_network_timing(model, opt_level=OptLevel.O3)
        mram_time = sum(
            l.seconds for l in timing.layers
            if l.policy is AccumulatorPolicy.MRAM
        )
        assert mram_time > 0.8 * timing.total_seconds


class TestFunctionalRunner:
    def test_small_network_through_dpus_matches_reference(self):
        """End-to-end PIM execution tracks the float reference closely."""
        model = Yolov3Model(64, width_scale=0.05, seed=21)
        image = np.random.default_rng(4).random((3, 64, 64)).astype(np.float32)
        reference = model.forward(image)

        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(16))
        runner = YoloPimRunner(system, model)
        outputs = runner.run(image)

        assert len(outputs) == len(reference) == 3
        for pim, ref in zip(outputs, reference):
            assert pim.shape == ref.shape
            # int16 quantization per layer: expect close but not exact
            scale = max(np.abs(ref).max(), 1e-6)
            error = np.abs(pim - ref).max() / scale
            assert error < 0.15

    def test_timing_collected_per_layer(self):
        model = Yolov3Model(64, width_scale=0.05, seed=21)
        image = np.random.default_rng(5).random((3, 64, 64)).astype(np.float32)
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(16))
        runner = YoloPimRunner(system, model)
        runner.run(image)
        timing = runner.timing()
        assert len(timing.layers) == 75
        assert timing.total_seconds > 0

    def test_rows_distributed_in_waves(self):
        """A layer wider than the allocated set still computes correctly."""
        model = Yolov3Model(64, width_scale=0.2, seed=22)
        image = np.random.default_rng(6).random((3, 64, 64)).astype(np.float32)
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(4))  # tiny system
        runner = YoloPimRunner(system, model)
        outputs = runner.run(image)
        reference = model.forward(image)
        for pim, ref in zip(outputs, reference):
            scale = max(np.abs(ref).max(), 1e-6)
            assert np.abs(pim - ref).max() / scale < 0.15


class TestLayout:
    def test_symbol_sizes(self):
        layout = YoloDpuLayout(GemmShape(m=4, n=100, k=30))
        assert layout.a_row_bytes == 64       # 60 -> aligned
        assert layout.b_bytes == 6000
        assert layout.c_row_bytes == 400
        image = layout.build_image()
        assert set(image.symbols) == {"a_row", "b", "c_row", "meta"}

    def test_row_kernel_functional(self):
        """The registered kernel computes Algorithm 2's row exactly."""
        from repro.dpu.device import Dpu, launch_kernel

        shape = GemmShape(m=1, n=8, k=4)
        layout = YoloDpuLayout(shape)
        dpu = Dpu()
        dpu.load(layout.build_image())
        rng = np.random.default_rng(7)
        a_row = rng.integers(-100, 100, size=4).astype(np.int16)
        b = rng.integers(-100, 100, size=(4, 8)).astype(np.int16)
        dpu.write_symbol_array("a_row", a_row)
        dpu.write_symbol_array("b", b.reshape(-1))
        dpu.write_symbol_array(
            "meta", np.array([1, 8, 4, 1, 32, 0], dtype=np.int32)
        )
        launch_kernel(
            [dpu], n_tasklets=1, opt_level=OptLevel.O0,
            kernel_params={"layout": layout},
        )
        c_row = dpu.read_symbol_array("c_row", np.int32, 8)
        expected = gemm_fast(1, a_row.reshape(1, -1), b)[0]
        assert np.array_equal(c_row, expected)


class TestAccumulatorDivisor:
    def test_negative_alpha_widens_like_positive(self):
        """The worst case is |alpha| * bound whatever alpha's sign."""
        a_q = np.full((2, 300), 127, dtype=np.int16)
        b_q = np.full((300, 3), 127, dtype=np.int16)
        assert accumulator_divisor(a_q, b_q, -2) == accumulator_divisor(
            a_q, b_q, 2
        ) == 512

    def test_negative_worst_case_does_not_clamp(self):
        a_q = np.full((2, 300), 127, dtype=np.int16)
        b_q = np.full((300, 3), 127, dtype=np.int16)
        divisor = accumulator_divisor(a_q, b_q, -2)
        c = gemm_fast(-2, a_q, b_q, divisor=divisor)
        assert c.min() > -32767
        assert np.all(c == -(2 * 300 * 127 * 127 // divisor))
