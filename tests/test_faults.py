"""Tests for repro.faults and the fault-tolerant launch path.

Covers deterministic seeded injection, the three launch fault policies,
all-or-nothing transfer accounting, and the acceptance criterion — one
faulted DPU in a 64-DPU launch leaves the other 63 bit-identical to a
fault-free run.
"""

import hashlib

import numpy as np
import pytest

from repro import faults, telemetry
from repro.dpu.assembler import assemble
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.device import Dpu, DpuImage
from repro.errors import (
    DpuFaultError,
    DpuHangError,
    LaunchError,
    SymbolError,
)
from repro.faults import FaultKind, FaultPlan
from repro.host import transfer as xfer
from repro.host.runtime import DpuSystem

MIX_SOURCE = """
        li   r1, 0
        li   r2, 0              # mram addr of 'seed'
        ldma r1, r2, 8
        lw   r5, r0, 0
        li   r2, 40
    loop:
        addi r3, r3, 7
        xor  r5, r5, r3
        addi r2, r2, -1
        bne  r2, r0, loop
        sw   r5, r0, 8
        li   r1, 8
        li   r2, 8              # mram addr of 'digest'
        sdma r1, r2, 8
        halt
"""


def mix_image() -> DpuImage:
    return DpuImage.from_symbol_layout(
        "mix",
        program=assemble(MIX_SOURCE, name="mix"),
        layout=[("seed", 8), ("digest", 8)],
    )


def make_set(n_dpus: int):
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(n_dpus))
    dpu_set = system.allocate(n_dpus)
    dpu_set.load(mix_image())
    dpu_set.scatter("seed", [bytes([i + 1] * 8) for i in range(n_dpus)])
    return system, dpu_set


def set_state(dpu_set):
    """Comparable per-DPU state: digest, dma counters, instruction count."""
    digests = dpu_set.gather("digest", 8)
    dma = [
        (d.dma.total_cycles, d.dma.total_bytes, d.dma.transfer_count)
        for d in dpu_set
    ]
    instrs = [
        d.last_result.instructions_retired if d.last_result else None
        for d in dpu_set
    ]
    return digests, dma, instrs


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        a = FaultPlan(seed=11, fault_rate=0.2, hang_rate=0.1)
        b = FaultPlan(seed=11, fault_rate=0.2, hang_rate=0.1)
        decisions_a = [a.exec_fault(d, t) for d in range(64) for t in range(3)]
        decisions_b = [b.exec_fault(d, t) for d in range(64) for t in range(3)]
        assert decisions_a == decisions_b
        assert any(e is not None for e in decisions_a)

    def test_different_seed_differs(self):
        a = FaultPlan(seed=11, fault_rate=0.2)
        b = FaultPlan(seed=12, fault_rate=0.2)
        sites_a = {d for d in range(256) if a.exec_fault(d) is not None}
        sites_b = {d for d in range(256) if b.exec_fault(d) is not None}
        assert sites_a != sites_b

    def test_targets_override_rates(self):
        plan = FaultPlan(seed=0, targets={3: "hang"}, target_attempts=2)
        event = plan.exec_fault(3, 0)
        assert event.kind is FaultKind.HANG
        assert plan.exec_fault(3, 1) is not None
        assert plan.exec_fault(3, 2) is None  # attempts exhausted

    def test_decision_depends_only_on_dpu_and_attempt(self):
        """The contract a caller that decides a launch once relies on:
        launches, transfers and other DPUs' decisions between two asks
        do not change a (DPU, attempt)'s decision."""
        plan = FaultPlan(
            seed=3, fault_rate=0.3, hang_rate=0.2,
            targets={2: "hang"}, target_attempts=2,
        )
        sites = [(d, t) for d in range(8) for t in range(3)]
        before = [plan.exec_fault(d, t) for d, t in sites]
        assert {e.kind for e in before if e is not None} == {
            FaultKind.FAULT, FaultKind.HANG,
        }
        _, dpu_set = make_set(8)
        with faults.fault_injection(plan):
            for _ in range(2):
                dpu_set.broadcast("seed", bytes(8))
                dpu_set.launch(n_tasklets=1, fault_policy="isolate")
        for d in range(8, 64):
            plan.exec_fault(d, 0)
        assert [plan.exec_fault(d, t) for d, t in sites] == before

    def test_memoized_draws_equal_fresh_ones(self):
        def fresh(seed, label, *ids):
            key = f"{seed}:{label}:" + ":".join(str(i) for i in ids)
            digest = hashlib.sha256(key.encode()).digest()
            return int.from_bytes(digest[:8], "big") / 2**64

        plan = FaultPlan(seed=11, fault_rate=0.3)
        sites = [(d, t) for d in range(32) for t in range(3)]
        for seed in (11, 12, 11):
            plan.seed = seed
            for _ in range(2):  # the second pass is served from the memo
                assert [
                    faults._uniform(seed, "fault", (d, t)) for d, t in sites
                ] == [fresh(seed, "fault", d, t) for d, t in sites]
            decisions = [plan.exec_fault(d, t) is not None for d, t in sites]
            assert decisions == [
                fresh(seed, "fault", d, t) < 0.3 for d, t in sites
            ]

    def test_invalid_config_rejected(self):
        with pytest.raises(LaunchError, match="default_policy"):
            FaultPlan(default_policy="explode")
        with pytest.raises(LaunchError, match="fault_rate"):
            FaultPlan(fault_rate=1.5)
        with pytest.raises(LaunchError, match="max_retries"):
            FaultPlan(max_retries=-1)

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.25")
        monkeypatch.setenv("REPRO_FAULT_SEED", "42")
        monkeypatch.setenv("REPRO_FAULT_POLICY", "isolate")
        plan = faults.plan_from_env()
        assert plan.fault_rate == 0.25
        assert plan.seed == 42
        assert plan.default_policy == "isolate"

    def test_plan_from_env_disabled_without_rates(self, monkeypatch):
        for name in ("REPRO_FAULT_RATE", "REPRO_FAULT_HANG_RATE"):
            monkeypatch.delenv(name, raising=False)
        assert faults.plan_from_env() is None

    def test_context_manager_restores(self):
        previous = faults.current_plan()
        plan = FaultPlan(seed=1)
        with faults.fault_injection(plan):
            assert faults.current_plan() is plan
        assert faults.current_plan() is previous


class TestInjectionGate:
    def test_direct_dpu_launch_never_injected(self):
        """Single-DPU launches (fault_attempt=None) ignore the plan."""
        dpu = Dpu(0, UPMEM_ATTRIBUTES)
        dpu.load(mix_image())
        dpu.write_symbol("seed", bytes(8))
        with faults.fault_injection(FaultPlan(seed=0, fault_rate=1.0)):
            result = dpu.launch(n_tasklets=1)
        assert result.instructions_retired > 0

    def test_set_launch_is_injected(self):
        system, dpu_set = make_set(2)
        with faults.fault_injection(FaultPlan(seed=0, fault_rate=1.0)):
            with pytest.raises(DpuFaultError, match="injected fault"):
                dpu_set.launch(fault_policy="raise")
        system.free(dpu_set)

    def test_retry_policy_recovers_transient_faults(self):
        """A rate-1.0-at-attempt-0 plan still completes via retries."""
        clean_system, clean_set = make_set(4)
        clean_set.launch()
        clean_state = set_state(clean_set)
        clean_system.free(clean_set)

        system, dpu_set = make_set(4)
        plan = FaultPlan(
            seed=0, targets={i: "fault" for i in range(4)}, target_site=0,
            target_attempts=1, default_policy="retry",
        )
        with faults.fault_injection(plan):
            report = dpu_set.launch()
        assert report.n_retried == 4
        assert not report.degraded
        assert all(o.attempts == 2 for o in report.outcomes)
        assert set_state(dpu_set) == clean_state
        system.free(dpu_set)


class TestSerialPolicies:
    def fault_free_state(self, n_dpus=4):
        system, dpu_set = make_set(n_dpus)
        report = dpu_set.launch()
        state = set_state(dpu_set)
        system.free(dpu_set)
        return report, state

    def test_raise_policy_propagates(self):
        system, dpu_set = make_set(4)
        plan = FaultPlan(seed=0, targets={2: "fault"})
        with faults.fault_injection(plan):
            with pytest.raises(DpuFaultError, match="DPU 2"):
                dpu_set.launch(fault_policy="raise")
        system.free(dpu_set)

    def test_isolate_keeps_healthy_dpus(self):
        _, (clean_digests, clean_dma, clean_instrs) = self.fault_free_state()
        system, dpu_set = make_set(4)
        plan = FaultPlan(seed=0, targets={2: "fault"}, target_site=0,
                         target_attempts=10)
        with faults.fault_injection(plan):
            report = dpu_set.launch(fault_policy="isolate")
        assert report.degraded and report.n_failed == 1
        failed = report.failed[0]
        assert failed.dpu_id == 2 and failed.status == "faulted"
        assert failed.error_type == "DpuFaultError"
        assert report.per_dpu_cycles[2] == 0.0
        digests, dma, instrs = set_state(dpu_set)
        for i in range(4):
            if i == 2:
                continue
            assert digests[i] == clean_digests[i]
            assert dma[i] == clean_dma[i]
            assert instrs[i] == clean_instrs[i]
        # The faulted DPU's memory is its pre-launch state: digest still 0.
        assert digests[2] == bytes(8)
        assert instrs[2] is None  # last_result cleared, not stale
        system.free(dpu_set)

    def test_hang_reported_not_spun_on(self):
        system, dpu_set = make_set(2)
        plan = FaultPlan(seed=0, targets={1: "hang"}, target_attempts=10,
                         hang_cycle_budget=5000)
        with faults.fault_injection(plan):
            report = dpu_set.launch(fault_policy="isolate")
        hung = report.failed[0]
        assert hung.status == "hung"
        assert hung.error_type == "DpuHangError"
        assert "5000-cycle straggler deadline" in hung.error
        system.free(dpu_set)

    def test_retry_exhaustion_isolates(self):
        system, dpu_set = make_set(4)
        plan = FaultPlan(seed=0, targets={1: "fault"}, target_site=0,
                         target_attempts=10)
        with faults.fault_injection(plan):
            report = dpu_set.launch(fault_policy="retry", max_retries=2)
        assert report.failed[0].attempts == 3  # 1 try + 2 retries
        assert report.failed[0].dpu_id == 1
        system.free(dpu_set)

    def test_all_failed_raises(self):
        system, dpu_set = make_set(2)
        plan = FaultPlan(
            seed=0, targets={0: "fault", 1: "fault"}, target_attempts=10
        )
        with faults.fault_injection(plan):
            with pytest.raises(LaunchError, match="all 2 DPUs"):
                dpu_set.launch(fault_policy="isolate")
        system.free(dpu_set)

    def test_unknown_policy_rejected(self):
        system, dpu_set = make_set(2)
        with pytest.raises(LaunchError, match="fault_policy"):
            dpu_set.launch(fault_policy="shrug")
        system.free(dpu_set)


class TestParallelPolicies:
    """A fault and a hang on one 8-DPU set, tolerant policies."""

    PLAN_KW = dict(seed=0, targets={1: "fault", 5: "hang"}, target_site=0)

    def fault_free_state(self):
        system, dpu_set = make_set(8)
        dpu_set.launch()
        state = set_state(dpu_set)
        system.free(dpu_set)
        return state

    def test_isolate_keeps_healthy_dpus_across_chunks(self):
        clean_digests, clean_dma, clean_instrs = self.fault_free_state()
        system, dpu_set = make_set(8)
        plan = FaultPlan(**self.PLAN_KW, target_attempts=10)
        with faults.fault_injection(plan):
            report = dpu_set.launch(fault_policy="isolate")
        assert {o.dpu_id for o in report.failed} == {1, 5}
        assert {o.status for o in report.failed} == {"faulted", "hung"}
        digests, dma, instrs = set_state(dpu_set)
        for i in range(8):
            if i in (1, 5):
                assert digests[i] == bytes(8)  # pre-launch state restored
                assert instrs[i] is None
            else:
                assert digests[i] == clean_digests[i]
                assert dma[i] == clean_dma[i]
                assert instrs[i] == clean_instrs[i]
        system.free(dpu_set)

    def test_retry_recovers_bit_identically(self):
        clean_state = self.fault_free_state()
        system, dpu_set = make_set(8)
        plan = FaultPlan(**self.PLAN_KW, target_attempts=1)
        with faults.fault_injection(plan):
            report = dpu_set.launch(fault_policy="retry")
        assert not report.degraded
        assert report.n_retried == 2
        retried = {o.dpu_id for o in report.outcomes if o.attempts > 1}
        assert retried == {1, 5}
        assert set_state(dpu_set) == clean_state
        system.free(dpu_set)


class TestAcceptanceCriterion:
    """A single fault in a 64-DPU launch, isolate policy."""

    N = 64
    BAD = 17

    def run_once(self, plan):
        system, dpu_set = make_set(self.N)
        before = telemetry.GLOBAL_METRICS.snapshot()
        if plan is None:
            report = dpu_set.launch()
        else:
            with faults.fault_injection(plan):
                report = dpu_set.launch(fault_policy="isolate")
        delta = telemetry.GLOBAL_METRICS.delta_since(before)
        state = set_state(dpu_set)
        system.free(dpu_set)
        return report, state, delta

    def test_63_dpus_bit_identical_and_fault_named(self):
        clean_report, clean_state, clean_delta = self.run_once(None)
        plan = FaultPlan(
            seed=0, targets={self.BAD: "fault"}, target_site=0,
            target_attempts=10,
        )
        report, state, delta = self.run_once(plan)

        # The report names the faulted DPU.
        assert [o.dpu_id for o in report.failed] == [self.BAD]
        assert report.n_failed == 1 and report.degraded

        clean_digests, clean_dma, clean_instrs = clean_state
        digests, dma, instrs = state
        for i in range(self.N):
            if i == self.BAD:
                assert digests[i] == bytes(8)
                assert instrs[i] is None
                continue
            assert digests[i] == clean_digests[i]
            assert dma[i] == clean_dma[i]
            assert instrs[i] == clean_instrs[i]
        # Cycle reports agree for the healthy members.
        for i in range(self.N):
            if i != self.BAD:
                assert (
                    report.per_dpu_cycles[i] == clean_report.per_dpu_cycles[i]
                )

        # Metric deltas: the degraded launch books exactly the clean
        # totals minus the faulted DPU's contribution (site-0 faults have
        # no side effects), so the healthy 63 DPUs' metrics all landed.
        assert delta["dpu.execs"]["state"] == self.N - 1
        assert clean_delta["dpu.execs"]["state"] == self.N
        bad_dma_bytes = clean_dma[self.BAD][1]
        bad_dma_transfers = clean_dma[self.BAD][2]
        bad_instrs = clean_instrs[self.BAD]
        assert (
            delta["dma.bytes"]["state"]
            == clean_delta["dma.bytes"]["state"] - bad_dma_bytes
        )
        assert (
            delta["dma.transfers"]["state"]
            == clean_delta["dma.transfers"]["state"] - bad_dma_transfers
        )
        assert (
            delta["dpu.instructions"]["state"]
            == clean_delta["dpu.instructions"]["state"] - bad_instrs
        )
        assert delta["launch.degraded"]["state"] == 1

    def test_same_seed_reproduces_fault_sites(self):
        plan_kw = dict(seed=5, fault_rate=0.08, default_policy="isolate")
        _, _, _ = self.run_once(FaultPlan(**plan_kw))  # warm: check it runs
        report_a, state_a, _ = self.run_once(FaultPlan(**plan_kw))
        report_b, state_b, _ = self.run_once(FaultPlan(**plan_kw))
        failed_a = [(o.dpu_id, o.status) for o in report_a.failed]
        failed_b = [(o.dpu_id, o.status) for o in report_b.failed]
        assert failed_a and failed_a == failed_b
        assert state_a == state_b
        # An explicit policy injects the same faults as the plan default.
        system, dpu_set = make_set(self.N)
        with faults.fault_injection(FaultPlan(**plan_kw)):
            serial_report = dpu_set.launch(fault_policy="isolate")
        serial_state = set_state(dpu_set)
        system.free(dpu_set)
        assert [
            (o.dpu_id, o.status) for o in serial_report.failed
        ] == failed_a
        assert serial_state == state_a


class TestPushPartialFailure:
    """A push validates every DPU before it touches any, and accounts
    all or nothing."""

    def make_pair(self):
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(4))
        dpu_set = system.allocate(2)
        dpu_set.load(mix_image())
        return system, dpu_set

    @staticmethod
    def wide_image():
        return DpuImage.from_symbol_layout(
            "wide", program=assemble(MIX_SOURCE, name="wide"),
            layout=[("seed", 16)],
        )

    def test_oversized_row_touches_no_dpu(self, transfers):
        system, dpu_set = self.make_pair()
        dpu_set[0].load(self.wide_image())
        rows = [bytes([0xAA] * 16), bytes([0xBB] * 16)]  # DPU 1 holds 8
        with pytest.raises(SymbolError, match="outside symbol"):
            xfer.scatter_rows(dpu_set.dpus, "seed", rows)
        # DPU 0 was NOT written before the error surfaced...
        assert dpu_set[0].read_symbol("seed", 16) == bytes(16)
        # ...and nothing was accounted.
        counted = transfers()
        assert counted["to_dpu"] == 0 and counted["pushes"] == 0
        # A corrected push just works.
        xfer.scatter_rows(dpu_set.dpus, "seed", [row[:8] for row in rows])
        assert dpu_set[0].read_symbol("seed", 8) == bytes([0xAA] * 8)
        assert dpu_set[1].read_symbol("seed", 8) == bytes([0xBB] * 8)
        counted = transfers()
        assert counted["to_dpu"] == 16 and counted["pushes"] == 1
        system.free(dpu_set)

    def test_missing_symbol_touches_no_dpu(self, transfers):
        system, dpu_set = self.make_pair()
        # DPU 1 carries an image without the 'seed' symbol.
        other = DpuImage.from_symbol_layout(
            "other", program=assemble(MIX_SOURCE, name="other"),
            layout=[("blob", 16)],
        )
        dpu_set[1].load(other)
        with pytest.raises(SymbolError, match="seed"):
            xfer.scatter_rows(
                dpu_set.dpus, "seed", [bytes([0xCC] * 8), bytes([0xDD] * 8)]
            )
        assert dpu_set[0].read_symbol("seed", 8) == bytes(8)
        counted = transfers()
        assert counted["to_dpu"] == 0 and counted["pushes"] == 0
        system.free(dpu_set)

    def test_broadcast_missing_symbol_touches_no_dpu(self):
        system, dpu_set = self.make_pair()
        other = DpuImage.from_symbol_layout(
            "other", program=assemble(MIX_SOURCE, name="other"),
            layout=[("blob", 16)],
        )
        dpu_set[1].load(other)
        with pytest.raises(SymbolError, match="seed"):
            dpu_set.broadcast("seed", bytes([0xEE] * 8))
        assert dpu_set[0].read_symbol("seed", 8) == bytes(8)
        system.free(dpu_set)

    def test_gather_stats_all_or_nothing(self, transfers):
        system, dpu_set = self.make_pair()
        dpu_set[0].load(self.wide_image())  # DPU 1 is short for a 16 B pull
        with pytest.raises(SymbolError, match="outside symbol"):
            xfer.gather_rows(dpu_set.dpus, "seed", 16)
        counted = transfers()
        assert counted["from_dpu"] == 0 and counted["pushes"] == 0
        system.free(dpu_set)


class TestFaultTelemetry:
    def test_fault_counter_and_span(self):
        system, dpu_set = make_set(2)
        plan = FaultPlan(seed=0, targets={0: "fault"}, target_site=0,
                         target_attempts=10)
        before = telemetry.GLOBAL_METRICS.snapshot()
        with faults.fault_injection(plan):
            with telemetry.tracing() as tracer:
                dpu_set.launch(fault_policy="isolate")
        delta = telemetry.GLOBAL_METRICS.delta_since(before)
        kinds = delta["dpu.faults"]["children"]
        assert kinds[(("kind", "fault"),)]["state"] == 1
        assert delta["launch.degraded"]["state"] == 1
        fault_spans = [s for s in tracer.all_spans() if s.name == "dpu.fault"]
        assert len(fault_spans) == 1
        assert fault_spans[0].attributes["dpu_id"] == 0
        system.free(dpu_set)

    def test_retry_counter(self):
        system, dpu_set = make_set(2)
        plan = FaultPlan(seed=0, targets={1: "fault"}, target_site=0,
                         target_attempts=1)
        before = telemetry.GLOBAL_METRICS.snapshot()
        with faults.fault_injection(plan):
            report = dpu_set.launch(fault_policy="retry")
        delta = telemetry.GLOBAL_METRICS.delta_since(before)
        assert report.n_retried == 1
        assert delta["launch.retries"]["state"] == 1
        assert delta["launch.degraded"]["state"] == 0
        system.free(dpu_set)
