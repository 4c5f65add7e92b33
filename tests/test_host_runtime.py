"""Tests for repro.host.runtime (allocation, load, launch)."""

import itertools
from contextlib import nullcontext

import numpy as np
import pytest

from repro import faults, telemetry
from repro.dpu.assembler import assemble
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.dpu import device
from repro.dpu.device import Dpu, DpuImage
from repro.dpu.kernel import charged_result
from repro.host.runtime import DpuSet, DpuSystem
from repro.errors import AllocationError, DpuError, DpuFaultError, LaunchError
from tests.conftest import double_kernel, launch_kernel

SMALL = UPMEM_ATTRIBUTES.scaled(16)


def program_image():
    return DpuImage(
        name="store7",
        program=assemble(
            """
                li r1, 7
                li r9, 0
                sw r1, r9, 0
                halt
            """
        ),
    )


class TestAllocation:
    def test_allocate_within_capacity(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(4)
        assert len(dpu_set) == 4
        assert system.n_free == 12

    def test_over_allocation_rejected(self):
        system = DpuSystem(SMALL)
        with pytest.raises(AllocationError):
            system.allocate(17)

    def test_nonpositive_rejected(self):
        with pytest.raises(AllocationError):
            DpuSystem(SMALL).allocate(0)

    def test_disjoint_sets(self):
        system = DpuSystem(SMALL)
        a = system.allocate(8)
        b = system.allocate(8)
        ids_a = {dpu.dpu_id for dpu in a}
        ids_b = {dpu.dpu_id for dpu in b}
        assert not ids_a & ids_b

    def test_free_returns_dpus(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(10)
        system.free(dpu_set)
        assert system.n_free == 16
        again = system.allocate(16)
        assert len(again) == 16

    def test_lazy_instantiation(self):
        system = DpuSystem(UPMEM_ATTRIBUTES)  # full 2560-DPU system
        system.allocate(2)
        assert len(system._dpus) == 2

    def test_dpus_needed_for(self):
        system = DpuSystem(SMALL)
        assert system.dpus_needed_for(16, 16) == 1
        assert system.dpus_needed_for(17, 16) == 2
        assert system.dpus_needed_for(10**6, 16) == 16  # capped
        with pytest.raises(AllocationError):
            system.dpus_needed_for(10, 0)


class TestSetOperations:
    def test_load_and_launch(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(3)
        dpu_set.load(program_image())
        report = dpu_set.launch()
        assert report.n_dpus == 3
        assert report.cycles > 0
        assert report.seconds == pytest.approx(report.cycles / 350e6)
        for dpu in dpu_set:
            assert dpu.wram.read_u32(0) == 7

    def test_launch_before_load(self):
        system = DpuSystem(SMALL)
        with pytest.raises(LaunchError):
            system.allocate(1).launch()

    def test_launch_rejects_a_kernel_image(self):
        """A kernel image runs through decide and charge; a launch
        refuses it before any DPU runs or the clock moves."""
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(2)
        dpu_set.load(kernel_image())
        with pytest.raises(LaunchError, match="decide and DpuSet.charge"):
            dpu_set.launch()
        assert all(dpu.last_result is None for dpu in dpu_set)
        assert system.clock.now == 0.0

    def test_set_time_is_max_over_dpus(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(4)
        dpu_set.load(program_image())
        report = dpu_set.launch()
        assert report.cycles == max(report.per_dpu_cycles)
        assert 0 <= report.slowest_dpu < 4

    def test_indexing_and_iteration(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(2)
        assert dpu_set[0] is not dpu_set[1]
        assert len(list(dpu_set)) == 2

    def test_broadcast_scatter_gather(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(2)
        image = kernel_image()
        dpu_set.load(image)
        dpu_set.broadcast("data", b"SAMEDATA")
        assert {bytes(r) for r in dpu_set.gather("data", 8)} == {b"SAMEDATA"}
        dpu_set.scatter(
            "data", [np.full(4, i, dtype=np.int16) for i in range(2)]
        )
        rows = dpu_set.gather("data", 8)
        assert rows[0] != rows[1]


def kernel_image(name="sym"):
    return DpuImage.from_symbol_layout(name, layout=[("data", 32)])


class TestSetLevelChecks:
    """A set loaded as a whole is validated and launch-checked once."""

    def test_load_validates_the_image_once(self, monkeypatch):
        dpu_set = DpuSystem(SMALL).allocate(8)
        validated = []
        make = device.make_interpreter
        monkeypatch.setattr(
            device, "make_interpreter",
            lambda program, *args: validated.append(program)
            or make(program, *args),
        )
        image = program_image()
        dpu_set.load(image)
        assert validated == [image.program]
        assert all(dpu.image is image for dpu in dpu_set)

    def test_rejected_image_leaves_every_image(self):
        dpu_set = DpuSystem(SMALL).allocate(4)
        first = kernel_image()
        dpu_set.load(first)
        before = telemetry.GLOBAL_METRICS.snapshot()
        too_big = DpuImage(
            "bad", program=assemble("nop\n" * 4000 + "halt")
        )
        with pytest.raises(DpuError, match="IRAM"):
            dpu_set.load(too_big)
        delta = telemetry.GLOBAL_METRICS.delta_since(before)
        assert dpu_set.image is first
        assert all(dpu.image is first for dpu in dpu_set)
        assert delta["dpu.loads"]["state"] == 0

    @pytest.mark.parametrize("n_tasklets", [0, 25])
    def test_bad_tasklet_count_is_rejected_once(self, n_tasklets, monkeypatch):
        dpu_set = DpuSystem(SMALL).allocate(8)
        dpu_set.load(kernel_image())
        checked = []
        check = Dpu.check_launch
        monkeypatch.setattr(
            Dpu, "check_launch",
            lambda dpu, n: checked.append(dpu.dpu_id) or check(dpu, n),
        )
        message = rf"^tasklet count {n_tasklets} outside \[1, 24\]$"
        with pytest.raises(LaunchError, match=message):
            dpu_set.decide(n_tasklets, OptLevel.O3)
        assert checked == [0]
        with pytest.raises(LaunchError, match=message):
            launch_kernel(dpu_set, double_kernel, n_tasklets=n_tasklets)

    @pytest.mark.parametrize("policy", faults.POLICIES)
    def test_decide_without_a_plan_runs_every_dpu_once(self, policy):
        """The outcomes an installed plan that injects nothing decides."""
        dpu_set = DpuSystem(SMALL).allocate(8)
        dpu_set.load(kernel_image())
        decisions = []
        for plan in (None, faults.FaultPlan(seed=3)):
            with faults.fault_injection(plan):
                decisions.append(dpu_set.decide(11, OptLevel.O3, policy))
        bare, planned = decisions
        assert bare.outcomes == planned.outcomes and bare.events == []
        assert [o.dpu_id for o in bare.outcomes] == [d.dpu_id for d in dpu_set]
        assert all(o.ok and o.attempts == 1 for o in bare.outcomes)


def _head_charged(self, decision, count, times, run):
    """``DpuSet._charged`` as it was before its one-walk rewrite: the
    outcomes walked three times and the results twice, the recording
    inlined.  The oracle of :class:`TestChargedWalk`."""

    def launch():
        dpus, outcomes = self.dpus[:count], decision.outcomes[:count]
        events = [event for i, event in decision.events if i < count]
        raising = decision.policy == "raise" and bool(events)
        for event in [] if raising else events:
            faults.record_fault(event, times)
        for outcome in [] if raising else outcomes:
            if not outcome.ok:
                dpus[outcome.index].last_result = None
        ran = [o.index for o in outcomes if o.ok]
        ran_dpus = [dpus[i] for i in ran]
        results = run(ran_dpus)
        tracer = telemetry.current_tracer()
        for dpu, result in zip(ran_dpus, results, strict=True):
            dpu.last_result = result
            if tracer is not None:
                dpu._record_exec_span(tracer, result, decision.n_tasklets)
        for cycles, group in itertools.groupby(
            [float(r.cycles) for r in results]
        ):
            device._M_LAUNCH_CYCLES.observe(
                cycles, count=len(list(group)) * times
            )
        device._M_DPU_EXECS.inc(len(ran_dpus) * times)
        device._M_DPU_INSTRUCTIONS.inc(
            sum([result.issue_slots for result in results]) * times
        )
        if raising:
            events[-1].raise_now()
        per_dpu = [0.0] * count
        for i, result in zip(ran, results):
            per_dpu[i] = float(result.cycles)
        return self._report(
            per_dpu, decision.n_tasklets, decision.policy,
            [] if decision.policy == "raise" else outcomes, times,
        )

    return self._spanned(
        launch, count, decision.n_tasklets, decision.opt_level, times
    )


def _results():
    """Three results of different cost, so each DPU's cycles show where
    they land in ``per_dpu_cycles``."""
    return [
        charged_result(
            lambda ctx, n=n: ctx.charge_instructions(1000 * n),
            n_tasklets=11, opt_level=OptLevel.O3,
        )
        for n in (1, 2, 3)
    ]


class TestChargedWalk:
    """``DpuSet.charge`` walks a decision's outcomes once, and its results
    once, yet reports, records and charges as the three-walk version
    did: an all-ok launch, an isolated failed DPU, a retried DPU and a
    raised fault, traced and untraced."""

    SIZE, ROWS = 5, 13  # two full waves, then a wave of three DPUs

    def _charge(self, plan, policy, traced):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(self.SIZE)
        dpu_set.load(kernel_image())
        results = _results()
        for dpu in dpu_set:
            dpu.last_result = "before"
        tracer = telemetry.Tracer() if traced else None
        tracing = telemetry.tracing(tracer) if traced else nullcontext()
        # Zeroed metrics, so that float sums start alike; then restored.
        registry = telemetry.GLOBAL_METRICS
        saved = registry.delta_since({})
        registry.reset()
        with faults.fault_injection(plan), tracing:
            decision = dpu_set.decide(11, OptLevel.O3, policy)
            try:
                reports = dpu_set.charge(
                    decision, self.ROWS,
                    lambda dpus: [results[d.dpu_id % 3] for d in dpus],
                )
            except DpuError as exc:
                reports = (type(exc), str(exc))
            delta = registry.snapshot()
        registry.reset()
        registry.merge_delta(saved)
        spans = [
            (span.name, span.track, span.sim_start, span.sim_end,
             span.attributes)
            for span in tracer.all_spans()
        ] if traced else []
        return (
            reports, dpu_set.last_report, delta, system.clock.now, spans,
            [results.index(r) if r in results else r
             for r in (dpu.last_result for dpu in dpu_set)],
        )

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("case", ["ok", "isolate", "retry", "raise"])
    def test_same_as_three_walks(self, case, traced, monkeypatch):
        dpu = 1  # the second DPU of a fresh system's first set
        plan, policy = {
            "ok": (None, None),
            "isolate": (faults.FaultPlan(
                targets={dpu: "fault"}, target_attempts=9), "isolate"),
            "retry": (faults.FaultPlan(targets={dpu: "hang"}), "retry"),
            "raise": (faults.FaultPlan(targets={dpu: "fault"}), "raise"),
        }[case]
        got = self._charge(plan, policy, traced)
        monkeypatch.setattr(DpuSet, "_charged", _head_charged)
        want = self._charge(plan, policy, traced)
        assert got == want
        reports, _, delta, _, _, last = got
        if case == "raise":
            # The DPU before the fault ran; the rest kept their results.
            assert reports[0] is DpuFaultError
            assert last == [0] + ["before"] * (self.SIZE - 1)
        else:
            assert len(reports) == 3 and last[dpu] == (
                None if case == "isolate" else dpu % 3
            )
            assert reports[0].n_retried == (case == "retry")
        assert delta["dpu.execs"]["state"] > 0


class TestFreedSet:
    def _freed_set(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(2)
        dpu_set.load(program_image())
        system.free(dpu_set)
        return system, dpu_set

    def test_load_after_free_rejected(self):
        _, dpu_set = self._freed_set()
        with pytest.raises(AllocationError, match="use-after-free"):
            dpu_set.load(program_image())

    def test_launch_after_free_rejected(self):
        _, dpu_set = self._freed_set()
        with pytest.raises(AllocationError, match="use-after-free"):
            dpu_set.launch()
        with pytest.raises(AllocationError, match="use-after-free"):
            dpu_set.decide(1, OptLevel.O0)

    def test_transfer_after_free_rejected(self):
        _, dpu_set = self._freed_set()
        with pytest.raises(AllocationError, match="use-after-free"):
            dpu_set.broadcast("data", b"XXXXXXXX")
        with pytest.raises(AllocationError, match="use-after-free"):
            dpu_set.scatter("data", [b"XXXX", b"YYYY"])
        with pytest.raises(AllocationError, match="use-after-free"):
            dpu_set.gather("data", 8)

    def test_freed_dpus_are_reusable_by_fresh_sets(self):
        system, _ = self._freed_set()
        again = system.allocate(2)
        again.load(program_image())
        assert again.launch().n_dpus == 2


class TestDoubleFree:
    def test_double_free_raises(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(4)
        system.free(dpu_set)
        with pytest.raises(AllocationError, match="double free"):
            system.free(dpu_set)

    def test_double_free_does_not_corrupt_the_pool(self):
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(4)
        system.free(dpu_set)
        with pytest.raises(AllocationError):
            system.free(dpu_set)
        assert system.n_free == SMALL.n_dpus
        assert len(system.allocate(SMALL.n_dpus)) == SMALL.n_dpus

    def test_double_free_emits_no_span(self):
        """The failed free must not pretend work happened in the trace."""
        from repro import telemetry

        system = DpuSystem(SMALL)
        dpu_set = system.allocate(2)
        with telemetry.tracing() as tracer:
            system.free(dpu_set)
            with pytest.raises(AllocationError):
                system.free(dpu_set)
        frees = [s for s in tracer.all_spans() if s.name == "dpu.free"]
        assert len(frees) == 1
