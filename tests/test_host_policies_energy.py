"""Tests for allocation and the energy extension."""

import pytest

from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.host.runtime import DpuSystem
from repro.pimmodel.energy import energy_row, energy_table, most_efficient
from repro.pimmodel.architectures import UPMEM, PPIM
from repro.pimmodel.workloads import EBNN, YOLOV3


class TestAllocationPolicies:
    def test_pack_is_consecutive(self):
        system = DpuSystem(UPMEM_ATTRIBUTES)
        ids = [dpu.dpu_id for dpu in system.allocate(8)]
        assert ids == list(range(8))


class TestEnergy:
    def test_energy_is_latency_times_power(self):
        row = energy_row(PPIM, EBNN)
        assert row.energy_j == pytest.approx(row.latency_s * row.power_w)
        assert row.edp_js == pytest.approx(row.energy_j * row.latency_s)

    def test_upmem_uses_workload_power(self):
        ebnn = energy_row(UPMEM, EBNN)
        yolo = energy_row(UPMEM, YOLOV3)
        assert ebnn.power_w == pytest.approx(0.12)    # one DPU
        assert yolo.power_w == pytest.approx(122.88)  # 1024 DPUs

    def test_table_covers_all_architectures(self):
        rows = energy_table()
        assert len(rows) == 7 * 2
        names = {row.architecture for row in rows}
        assert len(names) == 7

    def test_most_efficient_ebnn(self):
        """Per-inference energy: the low-power LUT designs win eBNN."""
        from repro.pimmodel.architectures import DRISA_3T1C

        best = most_efficient(EBNN)
        assert best.architecture in ("pPIM", "LACC", "SCOPE-Vanilla", "UPMEM")
        # and whatever wins, it beats DRISA by a wide margin
        assert best.energy_j < energy_row(DRISA_3T1C, EBNN).energy_j

    def test_yolo_energy_ordering_matches_fig_5_7(self):
        """1/(energy per frame) reproduces the frames/s-W ordering."""
        from repro.pimmodel.benchmarking import table_5_4

        rows = {r.workload == "yolov3" and r.architecture: r
                for r in energy_table()}
        bench = {r.architecture: r for r in table_5_4()}
        for row in energy_table():
            if row.workload != "yolov3":
                continue
            assert 1.0 / row.energy_j == pytest.approx(
                bench[row.architecture].yolo_throughput_per_watt, rel=1e-9
            )
