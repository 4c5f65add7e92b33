"""Cross-module integration tests: the full pipelines the paper describes."""

import numpy as np
import pytest

from repro.baselines.cpu import CpuBaseline
from repro.core.lut import create_lut, lut_matches_float_path
from repro.core.mapping_ebnn import EbnnPimRunner
from repro.core.mapping_yolo import YoloPimRunner, yolo_network_timing
from repro.datasets import generate_batch, generate_scene
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.host.runtime import DpuSystem
from repro.nn.models.darknet import Yolov3Model
from repro.nn.models.ebnn import EbnnModel
from tests.test_yolo_split import split_layer_cycles


class TestEbnnFullPipeline:
    """LUT -> PIM execution -> host softmax."""

    def test_paper_methodology_end_to_end(self):
        model = EbnnModel()
        config = model.config

        # 1. Build the Algorithm 1 LUT on the host and verify it.
        lut = create_lut(model.bn, *config.conv_range)
        assert lut_matches_float_path(lut, model.bn)

        # 2. Run the batch through the PIM system.
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(4))
        batch = generate_batch(20, seed=42)
        runner = EbnnPimRunner(system, model, use_lut=True)
        result = runner.run(batch.normalized())

        # 3. PIM output equals the CPU baseline exactly.
        baseline = CpuBaseline(model)
        assert np.array_equal(
            result.predictions, baseline.predict_batch(batch.normalized())
        )

        # 4. And the timing pieces compose.
        assert result.dpu_seconds > 0
        assert result.total_seconds > result.dpu_seconds

    def test_lut_and_float_paths_agree_functionally(self):
        """The Section 4.1.4 transformation changes time, not results."""
        model = EbnnModel(seed=77)
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(2))
        batch = generate_batch(16, seed=43).normalized()
        with_lut = EbnnPimRunner(system, model, use_lut=True).run(batch)
        without = EbnnPimRunner(system, model, use_lut=False).run(batch)
        assert np.array_equal(with_lut.predictions, without.predictions)
        assert with_lut.dpu_report.cycles < without.dpu_report.cycles


class TestYoloFullPipeline:
    def test_detection_pipeline_through_pim(self):
        """Scene -> quantized GEMMs on DPUs -> decode, tracking reference."""
        model = Yolov3Model(64, width_scale=0.08, seed=3)
        scene = generate_scene(64, seed=9)
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(32))

        runner = YoloPimRunner(system, model)
        pim_outputs = runner.run(scene)
        ref_outputs = model.forward(scene)

        pim_boxes = model.decode_detections(pim_outputs, conf_threshold=0.6)
        ref_boxes = model.decode_detections(ref_outputs, conf_threshold=0.6)
        # Quantization may flip borderline boxes; counts stay comparable.
        assert abs(len(pim_boxes) - len(ref_boxes)) <= max(
            3, len(ref_boxes) // 3
        )

        timing = runner.timing()
        assert len(timing.layers) == model.conv_layer_count
        assert timing.total_seconds > 0

    def test_estimate_and_functional_cycle_models_agree(self):
        """Closed-form layer estimates equal the kernel's charges: with
        layer 0's columns tiled across idle DPUs on 64 DPUs, and as
        Algorithm 2 on 4 DPUs, too few to tile it."""
        model = Yolov3Model(64, width_scale=0.08, seed=3)
        scene = generate_scene(64, seed=10)
        for n_dpus in (64, 4):
            system = DpuSystem(UPMEM_ATTRIBUTES.scaled(n_dpus))
            runner = YoloPimRunner(system, model, opt_level=OptLevel.O3)
            runner.run(scene)
            functional = [layer.cycles for layer in runner.timing().layers]
            estimated = split_layer_cycles(model, n_dpus)
            algorithm2 = [layer.cycles for layer in yolo_network_timing(
                model, opt_level=OptLevel.O3, n_tasklets=11,
                attributes=UPMEM_ATTRIBUTES.scaled(n_dpus),
            ).layers]
            assert (estimated == algorithm2) is (n_dpus == 4)
            assert len(functional) == len(estimated) == model.conv_layer_count
            for f_cycles, e_cycles in zip(functional, estimated):
                assert f_cycles == pytest.approx(e_cycles, rel=1e-6)


class TestChapterBridge:
    """Chapter 4 measurements feed the Chapter 5 comparison."""

    def test_simulated_upmem_latencies_into_table_5_4(self):
        from repro.core.mapping_ebnn import ebnn_image_latency_seconds
        from repro.nn.models.ebnn import EbnnConfig
        from repro.pimmodel.architectures import UPMEM
        from repro.pimmodel.benchmarking import benchmark_row

        ebnn_latency = ebnn_image_latency_seconds(
            EbnnConfig(), UPMEM_ATTRIBUTES, opt_level=OptLevel.O3
        )
        yolo_latency = yolo_network_timing(
            Yolov3Model(416), opt_level=OptLevel.O3, n_tasklets=11
        ).total_seconds
        row = benchmark_row(
            UPMEM,
            measured_overrides={
                "UPMEM": {"ebnn": ebnn_latency, "yolov3": yolo_latency}
            },
        )
        # Our simulated Chapter 4 numbers sit within ~2x of the thesis's
        # physical measurements, so the Table 5.4 conclusions survive.
        assert row.ebnn_latency_s == pytest.approx(1.48e-3, rel=1.2)
        assert row.yolo_latency_s == pytest.approx(65.0, rel=1.0)
        # UPMEM remains orders of magnitude behind the analytical PIMs.
        from repro.pimmodel.benchmarking import table_5_4

        rows = {r.architecture: r for r in table_5_4()}
        assert row.ebnn_latency_s > 100 * rows["pPIM"].ebnn_latency_s
