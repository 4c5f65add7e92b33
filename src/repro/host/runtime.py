"""Host runtime: DPU allocation, program load, launch and synchronization.

The host application drives the PIM system through this module the way a
UPMEM host binary drives the SDK: allocate a set of DPUs (``dpu_alloc``),
load an image onto all of them (``dpu_load``), move data with the transfer
API, launch, synchronize, and read results back.

Launches across a set are *parallel in simulated time*: every DPU runs the
same image on its own data (the SIMD-across-DIMMs model of Section 3.1),
so the set's elapsed time is the maximum over its members.  An
interpreted program runs DPU by DPU (:meth:`DpuSet.launch`).  A kernel
image runs as one set-wide computation: :meth:`DpuSet.decide` decides
every DPU's attempts without any effect, and :meth:`DpuSet.charge` calls
the mapping's kernel on the DPUs that run and charges the result.  All
reported latencies come from the simulated clocks.

Each :class:`DpuSystem` owns one :class:`~repro.dpu.clock.SimClock`,
held by every DPU it creates.  A launch advances it by the launch's
seconds.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro import faults, telemetry
from repro.dpu.attributes import UPMEM_ATTRIBUTES, UpmemAttributes
from repro.dpu.clock import SimClock
from repro.dpu.costs import OptLevel
from repro.dpu.device import Dpu, DpuImage, record_kernel_results
from repro.dpu.interpreter import ExecutionResult
from repro.host import transfer as xfer
from repro.host.topology import SystemTopology
from repro.errors import AllocationError, DpuError, DpuHangError, LaunchError

_M_ALLOCATIONS = telemetry.GLOBAL_METRICS.counter(
    "dpu.allocations", "DpuSystem.allocate calls"
)
_M_IN_USE = telemetry.GLOBAL_METRICS.gauge(
    "dpu.in_use", "DPUs currently allocated across the system"
)
_M_LOADS = telemetry.GLOBAL_METRICS.counter(
    "dpu.loads", "set-wide program loads"
)
_M_LAUNCHES = telemetry.GLOBAL_METRICS.counter(
    "dpu.launches", "set-wide launches (one per DpuSet.launch)"
)
_M_LAUNCH_SECONDS = telemetry.GLOBAL_METRICS.histogram(
    "launch.seconds",
    "simulated seconds per set-wide launch",
    buckets=tuple(10.0 ** e for e in range(-9, 3)),
)
_M_LAUNCH_RETRIES = telemetry.GLOBAL_METRICS.counter(
    "launch.retries", "extra per-DPU attempts spent by the retry policy"
)
_M_LAUNCH_DEGRADED = telemetry.GLOBAL_METRICS.counter(
    "launch.degraded", "set-wide launches that completed with failed DPUs"
)


@dataclass(slots=True)
class DpuOutcome:
    """One DPU's fate within a set-wide launch."""

    index: int
    dpu_id: int
    status: str = "ok"  # "ok" | "faulted" | "hung"
    attempts: int = 1
    error: str | None = None
    error_type: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class LaunchReport:
    """Timing summary of one set-wide launch.

    ``outcomes`` is populated whenever the launch ran under a fault plan
    or a tolerant ``fault_policy``; it names every DPU's status, attempt
    count, and error, so a degraded launch is never silent.  A failed
    DPU contributes 0.0 to ``per_dpu_cycles``.  Computed once, as
    ``outcomes`` never changes: ``failed`` (the outcomes of the DPUs that
    did not complete), ``degraded`` (whether any did not) and
    ``n_retried`` (extra attempts the retry policy spent).
    """

    cycles: float
    seconds: float
    per_dpu_cycles: list[float]
    n_dpus: int
    n_tasklets: int
    fault_policy: str = "raise"
    outcomes: list[DpuOutcome] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.failed = [o for o in self.outcomes if o.status != "ok"]
        self.degraded = bool(self.failed)
        self.n_retried = sum(o.attempts - 1 for o in self.outcomes)

    @property
    def slowest_dpu(self) -> int:
        return int(np.argmax(self.per_dpu_cycles))

    @property
    def n_failed(self) -> int:
        return len(self.failed)


@dataclass
class LaunchDecision:
    """A kernel launch decided before any effect (:meth:`DpuSet.decide`):
    each DPU's outcome in set order (under ``raise``, up to the first
    failure), the DPUs that run and each failed attempt, in order."""

    n_tasklets: int
    opt_level: OptLevel
    policy: str
    outcomes: list[DpuOutcome] = field(default_factory=list)
    ran: list[int] = field(default_factory=list)
    events: list[tuple[int, faults.ExecFault]] = field(default_factory=list)


class DpuSet:
    """A host handle over an allocated group of DPUs."""

    def __init__(self, dpus: list[Dpu], attributes: UpmemAttributes) -> None:
        if not dpus:
            raise AllocationError("empty DPU set")
        self.dpus = dpus
        self.attributes = attributes
        self.clock = dpus[0].clock
        self.image: DpuImage | None = None
        self.last_report: LaunchReport | None = None
        self._freed = False

    def _require_live(self, operation: str) -> None:
        if self._freed:
            raise AllocationError(
                f"{operation} on a freed DPU set (use-after-free); "
                "allocate a new set from the system"
            )

    def __len__(self) -> int:
        return len(self.dpus)

    def __iter__(self):
        return iter(self.dpus)

    def __getitem__(self, index: int) -> Dpu:
        return self.dpus[index]

    # ------------------------------------------------------------------ #
    # program management
    # ------------------------------------------------------------------ #

    def load(self, image: DpuImage) -> None:
        """``dpu_load``: load the image onto every DPU of the set."""
        self._require_live("load")
        with telemetry.span("host.load", n_dpus=len(self.dpus), image=image.name):
            self.dpus[0].load(image)  # validates it for every DPU
            for dpu in self.dpus:
                dpu.image = image
        self.image = image
        _M_LOADS.inc()

    # ------------------------------------------------------------------ #
    # transfers (thin wrappers over repro.host.transfer)
    # ------------------------------------------------------------------ #

    def broadcast(self, symbol: str, data, *, offset: int = 0) -> None:
        """Send the same buffer to every DPU (``dpu_copy_to``)."""
        self._require_live("broadcast")
        xfer.copy_to(self.dpus, symbol, data, symbol_offset=offset)

    def scatter(self, symbol: str, rows) -> int:
        """Send a different row to each DPU; returns the padded length."""
        self._require_live("scatter")
        return xfer.scatter_rows(self.dpus, symbol, rows)

    def gather(self, symbol: str, length: int) -> list[bytes]:
        """Read the same symbol back from every DPU."""
        self._require_live("gather")
        return xfer.gather_rows(self.dpus, symbol, length)

    # ------------------------------------------------------------------ #
    # launch
    # ------------------------------------------------------------------ #

    def launch(
        self,
        *,
        n_tasklets: int = 1,
        opt_level: OptLevel = OptLevel.O0,
        fault_policy: str | None = None,
        max_retries: int | None = None,
    ) -> LaunchReport:
        """``dpu_launch`` + sync: run the loaded program on every DPU,
        report the set's timing.

        A kernel image runs through :meth:`decide` and :meth:`charge`
        instead, and raises :class:`LaunchError` here.
        ``fault_policy`` decides what happens when a DPU faults or hangs
        (see :mod:`repro.faults`):

        * ``"raise"`` — propagate the failure,
        * ``"isolate"`` — keep every healthy DPU's results, memory, and
          metrics; report failed DPUs in ``LaunchReport.outcomes``,
        * ``"retry"`` — re-run each failed DPU from its pre-launch state
          up to ``max_retries`` extra attempts, then isolate.

        ``None`` defers to the installed fault plan's ``default_policy``
        (``"raise"`` when injection is off).  The clock advances by the
        launch's seconds.
        """
        self._require_live("launch")
        if self.image is None:
            raise LaunchError("launch before load")
        policy, retries = _resolve_policy(fault_policy, max_retries)
        report = self._spanned(
            lambda: self._launch_now(n_tasklets, opt_level, policy, retries),
            len(self.dpus), n_tasklets, opt_level,
        )
        self.clock.advance(report.seconds)
        return report

    def decide(
        self, n_tasklets: int, opt_level: OptLevel,
        fault_policy: str | None = None, max_retries: int | None = None,
    ) -> LaunchDecision:
        """The pure half of a kernel-image launch: check every DPU and
        decide its attempts.  A kernel fault fires before the kernel
        touches any state, so retrying is moving on to the next attempt.
        Decisions depend only on (DPU, attempt): one serves every launch
        of the same DPUs.  The set was loaded as a whole, so one DPU's
        launch check is every DPU's."""
        self._require_live("launch")
        policy, max_retries = _resolve_policy(fault_policy, max_retries)
        self.dpus[0].check_launch(n_tasklets)
        plan = faults.current_plan()
        decision = LaunchDecision(n_tasklets, opt_level, policy)
        if plan is None:  # every DPU runs on its first attempt
            decision.outcomes = [
                DpuOutcome(i, dpu.dpu_id) for i, dpu in enumerate(self.dpus)
            ]
            decision.ran = list(range(len(self.dpus)))
            return decision
        attempts = range(max_retries + 1 if policy == "retry" else 1)
        for index, dpu in enumerate(self.dpus):
            for attempt in attempts:
                event = plan.exec_fault(dpu.dpu_id, attempt)
                if event is None:
                    decision.outcomes.append(
                        DpuOutcome(index, dpu.dpu_id, "ok", attempt + 1)
                    )
                    decision.ran.append(index)
                    break
                decision.events.append((index, event))
            else:
                exc = event.error()
                decision.outcomes.append(DpuOutcome(
                    index, dpu.dpu_id,
                    "hung" if isinstance(exc, DpuHangError) else "faulted",
                    attempt + 1, str(exc), type(exc).__name__,
                ))
                if policy == "raise":
                    break
        return decision

    def charge(
        self, decision: LaunchDecision, rows: int, run
    ) -> list[LaunchReport]:
        """The effects half: ``rows`` rows, one per DPU, launched over the
        whole set, then over its first ``rows % len(self)`` DPUs, as
        ``decision`` decided and one after another on the clock; returns
        each launch's report.

        ``run``, a kernel bound to its parameters, computes the results
        of the DPUs that run (it is not called when none runs).  Tolerant
        policies record the fault events first; under ``raise`` the DPUs
        before the first failure run, then its raw :class:`DpuError`
        propagates.  Alike launches are charged at once, spans included.
        """
        size, reports = len(self.dpus), []
        for count, times in ((size, rows // size), (rows % size, 1)):
            if count and times:
                report = self._charged(decision, count, times, run)
                self.clock.advance(report.seconds, times)
                reports += [report] * times
        return reports

    def _charged(
        self, decision: LaunchDecision, count: int, times: int, run
    ) -> LaunchReport:
        """``times`` alike launches of the first ``count`` DPUs, as
        ``decision`` decided, inside one ``dpu.launch`` span if traced."""

        def launch() -> LaunchReport:
            outcomes = decision.outcomes[:count]
            events = [event for i, event in decision.events if i < count]
            raising = decision.policy == "raise" and bool(events)
            for event in [] if raising else events:
                faults.record_fault(event, times)
            ran = decision.ran[: bisect.bisect_left(decision.ran, count)]
            whole = len(ran) == count  # then ran is range(count)
            ran_dpus = self.dpus[:count] if whole else [self.dpus[i] for i in ran]
            for outcome in [] if raising or whole else outcomes:
                if outcome.status != "ok":  # isolated: keeps no result
                    self.dpus[outcome.index].last_result = None
            cycles = record_kernel_results(
                ran_dpus, run(ran_dpus) if ran_dpus else [],
                decision.n_tasklets, times,
            )
            if raising:
                events[-1].raise_now()
            per_dpu = cycles
            if not whole:  # a DPU that failed contributes 0.0
                per_dpu = [0.0] * count
                for i, dpu_cycles in zip(ran, cycles):
                    per_dpu[i] = dpu_cycles
            return self._report(
                per_dpu, decision.n_tasklets, decision.policy,
                [] if decision.policy == "raise" else outcomes, times,
            )

        return self._spanned(
            launch, count, decision.n_tasklets, decision.opt_level, times
        )

    def _spanned(
        self, launch, n_dpus, n_tasklets, opt_level, times=1
    ) -> LaunchReport:
        """``launch()``'s report, inside a ``dpu.launch`` span if traced.

        Every DPU ran in parallel, so the span lasts the slowest member's
        seconds (``times`` over), from the instant the launch was issued.
        """
        tracer = telemetry.current_tracer()
        if tracer is None:
            # Hot path: no span objects, no kwargs dicts beyond the call's own.
            report = launch()
        else:
            with tracer.span(
                "dpu.launch",
                n_dpus=n_dpus,
                n_tasklets=n_tasklets,
                image=self.image.name,
                opt_level=opt_level.name,
            ) as span:
                report = launch()
                span.sim_end = span.sim_start + report.seconds * times
                span.set(
                    cycles=report.cycles,
                    seconds=report.seconds,
                    slowest_dpu=self.dpus[report.slowest_dpu].dpu_id,
                    degraded=report.degraded,
                )
        self.last_report = report
        return report

    def _launch_now(
        self,
        n_tasklets: int,
        opt_level: OptLevel,
        fault_policy: str,
        max_retries: int,
    ) -> LaunchReport:
        if fault_policy == "raise":
            # Hot path; exceptions propagate raw, as they always have.
            per_dpu = [
                float(dpu.launch(
                    n_tasklets=n_tasklets, opt_level=opt_level, fault_attempt=0,
                ).cycles)
                for dpu in self.dpus
            ]
            return self._report(per_dpu, n_tasklets, fault_policy, [])
        runs = [
            self._execute_tolerant(
                index, dpu, n_tasklets, opt_level, fault_policy, max_retries
            )
            for index, dpu in enumerate(self.dpus)
        ]
        per_dpu = [0.0 if r is None else float(r.cycles) for _, r in runs]
        outcomes = [outcome for outcome, _ in runs]
        return self._report(per_dpu, n_tasklets, fault_policy, outcomes)

    def _report(
        self, per_dpu, n_tasklets, fault_policy, outcomes, times=1
    ) -> LaunchReport:
        """A launch's report and metrics, or ``times`` alike launches'."""
        cycles = max(per_dpu)
        report = LaunchReport(
            cycles=cycles,
            seconds=self.attributes.cycles_to_seconds(cycles),
            per_dpu_cycles=per_dpu,
            n_dpus=len(per_dpu),
            n_tasklets=n_tasklets,
            fault_policy=fault_policy,
            outcomes=outcomes,
        )
        if outcomes and len(report.failed) == len(outcomes):
            first = outcomes[0]
            raise LaunchError(
                f"all {len(outcomes)} DPUs of the launch failed under "
                f"fault_policy={fault_policy!r}; first failure: DPU "
                f"{first.dpu_id}: {first.error_type}: {first.error}"
            )
        _M_LAUNCHES.inc(times)
        _M_LAUNCH_SECONDS.observe(report.seconds, count=times)
        if report.n_retried:
            _M_LAUNCH_RETRIES.inc(report.n_retried * times)
        if report.degraded:
            _M_LAUNCH_DEGRADED.inc(times)
        return report

    def _execute_tolerant(
        self, index, dpu, n_tasklets, opt_level, policy, max_retries
    ) -> tuple[DpuOutcome, ExecutionResult | None]:
        """Run one DPU under a tolerant policy: its outcome and result.

        A failed attempt restores the DPU's pre-launch checkpoint, so a
        retry, and the state an isolated failure leaves, start from the
        memory and DMA counters the launch found.
        """
        pristine = dpu.checkpoint()
        for attempt in range(max_retries + 1 if policy == "retry" else 1):
            try:
                result = dpu.launch(
                    n_tasklets=n_tasklets, opt_level=opt_level,
                    fault_attempt=attempt,
                )
            except DpuError as exc:
                dpu.restore(pristine)
                error = exc
                continue
            return DpuOutcome(index, dpu.dpu_id, "ok", attempt + 1), result
        dpu.last_result = None
        return DpuOutcome(
            index, dpu.dpu_id,
            "hung" if isinstance(error, DpuHangError) else "faulted",
            attempt + 1, str(error), type(error).__name__,
        ), None


def _resolve_policy(fault_policy, max_retries) -> tuple[str, int]:
    """A launch's fault policy and retry budget; ``None`` defers to the
    installed plan, else to ``"raise"`` and the default budget."""
    plan = faults.current_plan()
    policy = fault_policy or (plan.default_policy if plan else "raise")
    if policy not in faults.POLICIES:
        raise LaunchError(
            f"unknown fault_policy {policy!r}; use one of {faults.POLICIES}"
        )
    if max_retries is None:
        max_retries = plan.max_retries if plan else faults.DEFAULT_MAX_RETRIES
    elif max_retries < 0:
        raise LaunchError(f"max_retries must be >= 0, got {max_retries}")
    return policy, max_retries


class DpuSystem:
    """The whole PIM server: topology plus lazily instantiated DPUs.

    DPUs are created on first allocation so that experiments touching a
    handful of DPUs do not pay for 2560 simulated devices.  Every DPU
    holds the system's :attr:`clock`, so any set built from them, and
    every transfer through them, advances that one clock.
    """

    def __init__(self, attributes: UpmemAttributes = UPMEM_ATTRIBUTES) -> None:
        self.attributes = attributes
        self.clock = SimClock()
        self.topology = SystemTopology(attributes)
        self._dpus: dict[int, Dpu] = {}
        self._allocated: set[int] = set()

    @property
    def n_dpus(self) -> int:
        return self.attributes.n_dpus

    @property
    def n_free(self) -> int:
        return self.n_dpus - len(self._allocated)

    def _dpu(self, dpu_id: int) -> Dpu:
        dpu = self._dpus.get(dpu_id)
        if dpu is None:
            dpu = Dpu(dpu_id, self.attributes, self.clock)
            self._dpus[dpu_id] = dpu
        return dpu

    def allocate(self, n_dpus: int) -> DpuSet:
        """``dpu_alloc``: reserve ``n_dpus`` DPUs as a set, the lowest
        free ids first (fills DIMMs in order)."""
        if n_dpus <= 0:
            raise AllocationError(f"must allocate a positive DPU count, got {n_dpus}")
        if n_dpus > self.n_free:
            raise AllocationError(
                f"requested {n_dpus} DPUs but only {self.n_free} of "
                f"{self.n_dpus} are free"
            )
        free = (i for i in range(self.n_dpus) if i not in self._allocated)
        ids = [next(free) for _ in range(n_dpus)]
        self._allocated.update(ids)
        _M_ALLOCATIONS.inc()
        _M_IN_USE.set(len(self._allocated))
        tracer = telemetry.current_tracer()
        if tracer is not None:
            tracer.add_span(
                "dpu.alloc",
                category="host",
                n_dpus=n_dpus,
                first_id=ids[0],
            )
        return DpuSet([self._dpu(i) for i in ids], self.attributes)

    def free(self, dpu_set: DpuSet) -> None:
        """``dpu_free``: return a set's DPUs to the pool.

        The handle is poisoned: any later load/transfer/launch through it
        raises :class:`AllocationError` instead of silently operating on
        zero DPUs with a stale image.  Freeing the same handle twice is a
        host bug (the second free used to be a silent no-op that still
        emitted a ``dpu.free`` span) and raises :class:`AllocationError`.
        """
        if dpu_set._freed:
            raise AllocationError(
                "double free of a DPU set; the handle was already returned "
                "to the pool"
            )
        n_freed = len(dpu_set.dpus)
        for dpu in dpu_set:
            self._allocated.discard(dpu.dpu_id)
        dpu_set.dpus = []
        dpu_set.image = None
        dpu_set._freed = True
        _M_IN_USE.set(len(self._allocated))
        tracer = telemetry.current_tracer()
        if tracer is not None:
            tracer.add_span("dpu.free", category="host", n_dpus=n_freed)

    def dpus_needed_for(self, total_items: int, items_per_dpu: int) -> int:
        """How many DPUs a workload of ``total_items`` requires.

        The paper's allocation rule for the eBNN multi-image scheme:
        divide the image count by images-per-DPU, rounding up, capped by
        the system size.
        """
        if items_per_dpu <= 0:
            raise AllocationError(
                f"items_per_dpu must be positive, got {items_per_dpu}"
            )
        needed = -(-total_items // items_per_dpu)
        return min(needed, self.n_dpus)
