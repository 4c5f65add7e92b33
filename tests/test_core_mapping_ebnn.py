"""Tests for repro.core.mapping_ebnn (the multi-image-per-DPU scheme)."""

import numpy as np
import pytest

from repro import faults
from repro.core.mapping_ebnn import (
    EBNN_TASKLETS,
    HOST_SECONDS_PER_IMAGE,
    IMAGES_PER_DPU,
    EbnnDpuLayout,
    EbnnPimRunner,
    ebnn_dpu_cycles,
    ebnn_image_latency_seconds,
)
from repro.datasets import generate_batch
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.host.runtime import DpuSystem
from repro.nn.models.ebnn import EbnnConfig, EbnnModel
from repro.errors import MappingError

SMALL_SYSTEM = UPMEM_ATTRIBUTES.scaled(8)


@pytest.fixture
def model():
    return EbnnModel()


@pytest.fixture
def system():
    return DpuSystem(SMALL_SYSTEM)


class TestLayout:
    def test_image_bytes_match_paper(self):
        """98-byte packed images pad to 104; 16 fit one 2048-byte DMA."""
        layout = EbnnDpuLayout(EbnnConfig())
        assert layout.image_bytes == 104
        assert layout.images_bytes == 1664
        assert layout.images_bytes <= 2048

    def test_result_bytes(self):
        layout = EbnnDpuLayout(EbnnConfig())
        # 16 filters x 14 x 14 bits = 392 bytes, already 8-aligned
        assert layout.result_bytes_per_image == 392

    def test_lut_bytes(self):
        layout = EbnnDpuLayout(EbnnConfig())
        assert layout.lut_bytes == ((19 * 16 + 7) // 8) * 8

    def test_image_declares_symbols(self):
        image = EbnnDpuLayout(EbnnConfig()).build_image()
        assert set(image.symbols) == {"images", "results", "lut", "weights", "meta"}


class TestEndToEndEquivalence:
    """The PIM pipeline must classify exactly like the reference model."""

    def test_lut_path_matches_reference(self, system, model, ebnn_reference):
        batch = generate_batch(16, seed=11).normalized()
        runner = EbnnPimRunner(system, model, use_lut=True)
        result = runner.run(batch)
        assert np.array_equal(
            result.predictions, ebnn_reference(model, batch, result)
        )

    def test_float_path_matches_reference(self, system, model, ebnn_reference):
        batch = generate_batch(8, seed=12).normalized()
        runner = EbnnPimRunner(system, model, use_lut=False)
        result = runner.run(batch)
        assert np.array_equal(
            result.predictions, ebnn_reference(model, batch, result)
        )

    def test_batch_spills_across_dpus(self, system, model, ebnn_reference):
        batch = generate_batch(40, seed=13).normalized()
        runner = EbnnPimRunner(system, model)
        result = runner.run(batch)
        assert result.n_dpus == 3  # ceil(40 / 16)
        assert np.array_equal(
            result.predictions, ebnn_reference(model, batch, result)
        )

    def test_empty_batch_rejected(self, system, model):
        with pytest.raises(MappingError):
            EbnnPimRunner(system, model).run(np.zeros((0, 28, 28)))

    def test_dpus_freed_after_run(self, system, model):
        runner = EbnnPimRunner(system, model)
        runner.run(generate_batch(16, seed=1).normalized())
        assert system.n_free == SMALL_SYSTEM.n_dpus


class TestProfiles:
    def test_lut_removes_float_subroutines(self, system, model):
        batch = generate_batch(16, seed=14).normalized()
        float_run = EbnnPimRunner(
            system, model, use_lut=False, opt_level=OptLevel.O0
        ).run(batch)
        lut_run = EbnnPimRunner(
            system, model, use_lut=True, opt_level=OptLevel.O0
        ).run(batch)
        assert len(float_run.profile.float_subroutine_names()) >= 8
        assert lut_run.profile.float_subroutine_names() == []
        # Fig. 4.3(b): only the indexing multiplies remain.
        assert set(lut_run.profile.records) == {"__mulsi3", "__muldi3"}

    def test_mulsi3_survives_both_paths(self, system, model):
        """Fig. 4.3: __mulsi3 is tied to a dependent part of the program."""
        batch = generate_batch(16, seed=15).normalized()
        for use_lut in (False, True):
            run = EbnnPimRunner(
                system, model, use_lut=use_lut, opt_level=OptLevel.O0
            ).run(batch)
            assert run.profile.occurrences("__mulsi3") > 0


class TestTimingModel:
    def test_lut_speedup_near_paper(self):
        """Fig. 4.4: the LUT gives ~1.4x at the paper's -O0 setting."""
        config = EbnnConfig()
        float_cycles = ebnn_dpu_cycles(config, use_lut=False, opt_level=OptLevel.O0)
        lut_cycles = ebnn_dpu_cycles(config, use_lut=True, opt_level=OptLevel.O0)
        speedup = float_cycles / lut_cycles
        assert 1.2 <= speedup <= 2.0

    def test_kernel_and_closed_form_agree(self, system, model):
        """The functional kernel charges exactly the closed-form cycles."""
        batch = generate_batch(16, seed=16).normalized()
        run = EbnnPimRunner(
            system, model, use_lut=True, opt_level=OptLevel.O3
        ).run(batch)
        closed_form = ebnn_dpu_cycles(
            model.config,
            n_images=16,
            n_tasklets=EBNN_TASKLETS,
            opt_level=OptLevel.O3,
            use_lut=True,
        )
        assert run.dpu_report.cycles == pytest.approx(closed_form, rel=1e-9)

    def test_image_latency_in_paper_ballpark(self):
        """Section 4.3.1 reports 1.48 ms/image; we land within ~2x."""
        latency = ebnn_image_latency_seconds(
            EbnnConfig(), UPMEM_ATTRIBUTES, opt_level=OptLevel.O3
        )
        assert 0.7e-3 <= latency <= 3.2e-3

    def test_tasklet_dip_and_recovery(self):
        """Fig. 4.7(a): dip after 8-11 tasklets, peak at 16."""
        config = EbnnConfig()
        cycles = {
            t: ebnn_dpu_cycles(config, n_tasklets=t, opt_level=OptLevel.O3)
            for t in (1, 8, 11, 14, 16)
        }
        speedup = {t: cycles[1] / c for t, c in cycles.items()}
        assert speedup[16] > speedup[11]          # recovery at 16
        assert speedup[14] < speedup[8] * 1.05    # the dip region
        assert speedup[16] == max(speedup.values())

    def test_total_seconds_composition(self, system, model):
        run = EbnnPimRunner(system, model).run(
            generate_batch(4, seed=17).normalized()
        )
        assert run.total_seconds == pytest.approx(
            run.dpu_seconds + run.host_seconds
        )
        assert run.seconds_per_image == pytest.approx(run.total_seconds / 4)


class TestFaultIsolation:
    def test_images_on_an_isolated_dpu_get_no_label(self, model):
        """A DPU the isolate policy removed has no results: its images
        read -1, and every other label is the clean run's."""
        batch = generate_batch(64, seed=17).normalized()

        def run(plan):
            system = DpuSystem(UPMEM_ATTRIBUTES.scaled(4))
            with faults.fault_injection(plan):
                return EbnnPimRunner(system, model).run(batch)

        clean = run(None)
        dead = 2
        faulted = run(faults.FaultPlan(
            targets={dead: "fault"}, target_attempts=10,
            default_policy="isolate",
        ))
        assert [o.dpu_id for o in faulted.dpu_report.failed] == [dead]
        on_dead = slice(dead * IMAGES_PER_DPU, (dead + 1) * IMAGES_PER_DPU)
        assert (faulted.predictions[on_dead] == -1).all()
        expected = clean.predictions.copy()
        expected[on_dead] = -1
        assert np.array_equal(faulted.predictions, expected)
        assert faulted.host_seconds == 48 * HOST_SECONDS_PER_IMAGE


class TestValidation:
    def test_staging_cap_enforced(self, system, model):
        with pytest.raises(MappingError, match="2048"):
            EbnnPimRunner(system, model, images_per_dpu=32)

    def test_bad_images_per_dpu(self, system, model):
        with pytest.raises(MappingError):
            EbnnPimRunner(system, model, images_per_dpu=0)

    def test_paper_constants(self):
        assert IMAGES_PER_DPU == 16
        assert EBNN_TASKLETS == 16
