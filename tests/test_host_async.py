"""Tests for asynchronous launches (repro.host.runtime.AsyncLaunch)."""

import numpy as np
import pytest

from repro.dpu.assembler import assemble
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.device import DpuImage
from repro.host.runtime import DpuSystem
from repro.errors import LaunchError

SMALL = UPMEM_ATTRIBUTES.scaled(8)


def image(n_nops: int) -> DpuImage:
    return DpuImage(
        name=f"nops{n_nops}",
        program=assemble("nop\n" * n_nops + "halt"),
    )


def doubling_set(system: DpuSystem, n_dpus: int = 2):
    """A set loaded with the test_double kernel and seeded data."""
    dpu_set = system.allocate(n_dpus)
    dpu_set.load(
        DpuImage.from_symbol_layout(
            "cancel_double", kernel_name="test_double", layout=[("data", 16)]
        )
    )
    dpu_set.broadcast("data", np.arange(4, dtype=np.int32))
    return dpu_set


class TestAsyncLaunch:
    def test_wait_returns_report(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(2)
        dpu_set.load(image(10))
        handle = dpu_set.launch_async()
        assert not handle.done
        report = handle.wait()
        assert handle.done
        assert report.cycles == 11 * 11

    def test_async_respects_launch_validation(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(1)
        with pytest.raises(LaunchError):
            dpu_set.launch_async()  # no image loaded


class TestOverlapModel:
    def test_no_overlap_is_eq_5_1(self):
        from repro.pimmodel.equations import total_seconds, total_seconds_overlapped

        assert total_seconds_overlapped(0.3, 0.7, 0.0) == total_seconds(0.3, 0.7)

    def test_full_overlap_is_max(self):
        from repro.pimmodel.equations import total_seconds_overlapped

        assert total_seconds_overlapped(0.3, 0.7, 1.0) == pytest.approx(0.7)

    def test_interpolation_monotone(self):
        from repro.pimmodel.equations import total_seconds_overlapped

        values = [
            total_seconds_overlapped(0.4, 0.6, f)
            for f in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_bad_fraction(self):
        from repro.errors import ModelError
        from repro.pimmodel.equations import total_seconds_overlapped

        with pytest.raises(ModelError):
            total_seconds_overlapped(1.0, 1.0, 1.5)


class TestAsyncSimTime:
    """Waiting moves the clock to the launch's completion instant, once."""

    def setup_method(self):
        from repro import telemetry

        self.telemetry = telemetry

    def test_issue_does_not_advance_cursor(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(2)
        dpu_set.load(image(50))
        with self.telemetry.tracing() as tracer:
            handle = dpu_set.launch_async()
            assert tracer.sim_now == 0.0
            report = handle.wait()
            assert tracer.sim_now == pytest.approx(report.seconds)

    def test_wait_advances_exactly_once(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(2)
        dpu_set.load(image(50))
        with self.telemetry.tracing() as tracer:
            handle = dpu_set.launch_async()
            report = handle.wait()
            handle.wait()
            handle.wait()
            assert tracer.sim_now == pytest.approx(report.seconds)

    def test_overlapping_handles_waited_in_turn_cost_max(self):
        system = DpuSystem(SMALL)
        fast_set = system.allocate(2)
        slow_set = system.allocate(2)
        fast_set.load(image(5))
        slow_set.load(image(500))
        for order in ((0, 1), (1, 0)):
            with self.telemetry.tracing() as tracer:
                handles = [fast_set.launch_async(), slow_set.launch_async()]
                reports = [handles[i].wait() for i in order]
            assert tracer.sim_now == pytest.approx(
                max(r.seconds for r in reports)
            )

    def test_sync_launch_still_advances_at_issue(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(2)
        dpu_set.load(image(50))
        with self.telemetry.tracing() as tracer:
            report = dpu_set.launch()
            assert tracer.sim_now == pytest.approx(report.seconds)


class TestCancel:
    """AsyncLaunch.cancel rolls DPUs back to pristine pre-launch state."""

    def test_uncancelled_launch_really_mutates(self):
        system = DpuSystem(SMALL)
        dpu_set = doubling_set(system)
        dpu_set.launch_async(count=4).wait()
        for dpu in dpu_set:
            values = dpu.read_symbol_array("data", np.int32, 4)
            assert list(values) == [0, 2, 4, 6]

    def test_cancel_restores_memory_bit_for_bit(self):
        system = DpuSystem(SMALL)
        dpu_set = doubling_set(system)
        before = [bytes(d.read_symbol("data", 16)) for d in dpu_set]
        handle = dpu_set.launch_async(count=4)
        handle.cancel()
        assert handle.cancelled
        after = [bytes(d.read_symbol("data", 16)) for d in dpu_set]
        assert after == before
        assert all(d.last_result is None for d in dpu_set)

    def test_cancel_restores_dma_counters(self):
        system = DpuSystem(SMALL)
        dpu_set = doubling_set(system)
        before = [
            (d.dma.total_cycles, d.dma.total_bytes, d.dma.transfer_count)
            for d in dpu_set
        ]
        handle = dpu_set.launch_async(count=4)
        handle.cancel()
        after = [
            (d.dma.total_cycles, d.dma.total_bytes, d.dma.transfer_count)
            for d in dpu_set
        ]
        assert after == before

    def test_cancel_never_advances_sim_time(self):
        from repro import telemetry

        system = DpuSystem(SMALL)
        dpu_set = doubling_set(system)
        with telemetry.tracing() as tracer:
            handle = dpu_set.launch_async(count=4)
            assert handle.pending_seconds > 0.0
            assert not handle.done  # reading it does not synchronize
            handle.cancel()
            assert tracer.sim_now == 0.0

    def test_wait_after_cancel_raises(self):
        system = DpuSystem(SMALL)
        dpu_set = doubling_set(system)
        handle = dpu_set.launch_async(count=4)
        handle.cancel()
        with pytest.raises(LaunchError, match="cancelled"):
            handle.wait()

    def test_cancel_after_wait_raises(self):
        system = DpuSystem(SMALL)
        dpu_set = doubling_set(system)
        handle = dpu_set.launch_async(count=4)
        handle.wait()
        with pytest.raises(LaunchError, match="cancel after wait"):
            handle.cancel()

    def test_double_cancel_is_a_no_op(self):
        system = DpuSystem(SMALL)
        dpu_set = doubling_set(system)
        handle = dpu_set.launch_async(count=4)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_relaunch_after_cancel_matches_a_fresh_run(self):
        system = DpuSystem(SMALL)
        cancelled_set = doubling_set(system)
        cancelled_set.launch_async(count=4).cancel()
        report = cancelled_set.launch(count=4)
        fresh_set = doubling_set(system)
        reference = fresh_set.launch(count=4)
        assert report.cycles == reference.cycles
        assert [
            list(d.read_symbol_array("data", np.int32, 4))
            for d in cancelled_set
        ] == [
            list(d.read_symbol_array("data", np.int32, 4))
            for d in fresh_set
        ]
