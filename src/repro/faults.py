"""Deterministic, seeded fault injection for the simulated PIM system.

At rack scale individual DPUs fault and straggle
(Gómez-Luna et al., "Benchmarking a New Paradigm"; Oliveira et al.,
"Accelerating NN Inference with Processing-in-DRAM"), so a simulator that
models a 2560-DPU server needs a way to *produce* those failures on
demand.  This module is that knob: a :class:`FaultPlan` decides — purely
from its seed and the identity of the victim — whether a given DPU
launch attempt faults or hangs.

Design rules:

* **No-op when disabled.**  Like the tracer, the plan lives in a module
  global (:func:`current_plan`), set by :func:`install_plan` or, for a
  block, :func:`fault_injection`; instrumented code pays one global read
  when no plan is installed.
* **Deterministic and epoch-free.**  Every decision is a pure function
  of ``(seed, kind, victim ids)`` via SHA-256 — not of wall time, launch
  count, or process identity — so the same seed reproduces the same
  fault sites.
* **Only set-level launches are injectable.**  The plan is consulted
  for each (DPU, attempt) of a set: for a program image by
  ``DpuSet.launch``, which passes a ``fault_attempt`` to
  :meth:`Dpu.launch`, and for a kernel image by ``DpuSet.decide``;
  direct single-DPU program launches pass ``None`` and never consult
  the plan, so unit-level code keeps exact behavior even when a smoke
  plan is installed process-wide.

Environment knobs (read once at import, for CI smoke injection)::

    REPRO_FAULT_RATE=0.02      # per-(DPU, attempt) execution-fault rate
    REPRO_FAULT_HANG_RATE=0.0  # straggler-deadline rate
    REPRO_FAULT_SEED=7         # decision seed
    REPRO_FAULT_POLICY=retry   # default launch fault policy

Rate-based faults trigger at instruction 0 — before any architectural
side effect — so a retried attempt reproduces the fault-free execution
bit for bit, and the whole test suite passes under smoke injection.
Targeted faults (``targets=``) default to a mid-program site instead.
"""

from __future__ import annotations

import functools
import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

from repro import telemetry
from repro.errors import DpuFaultError, DpuHangError, LaunchError

_M_FAULTS = telemetry.GLOBAL_METRICS.counter(
    "dpu.faults", "injected faults, labelled by kind"
)

#: Launch fault policies (see ``DpuSet.launch(fault_policy=...)``).
POLICIES = ("raise", "isolate", "retry")

#: Extra attempts the ``retry`` policy grants a failed DPU by default.
DEFAULT_MAX_RETRIES = 2

#: Simulated cycles a hung DPU is allowed before it is declared a
#: straggler and reported (never spun on).
DEFAULT_HANG_BUDGET = 1_000_000


class FaultKind(str, Enum):
    """What kind of failure an injection models."""

    FAULT = "fault"            # the DPU traps mid-program
    HANG = "hang"              # the DPU exceeds its cycle budget


@dataclass(frozen=True)
class ExecFault:
    """One resolved execution-fault decision for a specific DPU attempt.

    Knows how to raise itself so the interpreter and the kernel path need
    no knowledge of the plan that produced it.

    ``at_instruction`` is a contract both interpreters honor identically:
    the fault fires once the *total* retired-instruction count across all
    tasklets reaches the site, and the partial memory image the trap
    exposes matches the reference scheduler's per-instruction interleave
    bit for bit (the fast interpreter single-steps while an injection is
    pending for exactly this reason).
    """

    kind: FaultKind
    dpu_id: int
    attempt: int
    at_instruction: int = 0
    deadline_cycles: int = DEFAULT_HANG_BUDGET

    def raise_now(self, retired: int = 0) -> None:
        """Record the injection and raise the matching DPU error."""
        record_fault(self)
        raise self.error(retired)

    def error(self, retired: int = 0) -> DpuFaultError | DpuHangError:
        """The matching DPU error, built without recording anything."""
        if self.kind is FaultKind.HANG:
            return DpuHangError(
                f"injected hang: DPU {self.dpu_id} exceeded the "
                f"{self.deadline_cycles}-cycle straggler deadline "
                f"(attempt {self.attempt})"
            )
        return DpuFaultError(
            f"injected fault: DPU {self.dpu_id} trapped at instruction "
            f"{retired} (attempt {self.attempt})"
        )


def record_fault(event: ExecFault, times: int = 1) -> None:
    """Count (and, when tracing, span) one injected execution fault, or
    ``times`` alike ones charged at once by an untraced caller."""
    _M_FAULTS.labels(kind=event.kind.value).inc(times)
    tracer = telemetry.current_tracer()
    if tracer is not None:
        tracer.add_span(
            "dpu.fault",
            category="fault",
            track=("dpu", event.dpu_id),
            dpu_id=event.dpu_id,
            kind=event.kind.value,
            attempt=event.attempt,
            at_instruction=event.at_instruction,
        )


@functools.lru_cache(maxsize=1 << 16, typed=True)
def _uniform(seed: int, label: str, ids: tuple[int, ...]) -> float:
    """A uniform [0, 1) draw, stable across processes and platforms, and
    memoized: it is pure."""
    key = f"{seed}:{label}:" + ":".join(str(i) for i in ids)
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass
class FaultPlan:
    """A seeded recipe of which failures to inject where.

    Rates are per-victim probabilities evaluated deterministically (same
    seed, same victim → same decision).  ``targets`` pins specific DPU
    ids to a fault kind regardless of rates — the precision tool tests
    and experiments use; ``target_attempts`` bounds how many attempts of
    a targeted DPU fail (1 = transient, recovered by one retry; a large
    value = a permanently bad DPU that only ``isolate`` survives).
    """

    seed: int = 0
    fault_rate: float = 0.0
    hang_rate: float = 0.0
    targets: dict[int, FaultKind] = field(default_factory=dict)
    target_site: int = 1
    target_attempts: int = 1
    default_policy: str = "retry"
    max_retries: int = DEFAULT_MAX_RETRIES
    hang_cycle_budget: int = DEFAULT_HANG_BUDGET

    def __post_init__(self) -> None:
        if self.default_policy not in POLICIES:
            raise LaunchError(
                f"unknown default_policy {self.default_policy!r}; "
                f"use one of {POLICIES}"
            )
        for name in ("fault_rate", "hang_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise LaunchError(f"{name} must be in [0, 1], got {rate}")
        if self.max_retries < 0:
            raise LaunchError(f"max_retries must be >= 0, got {self.max_retries}")
        self.targets = {
            int(dpu_id): FaultKind(kind) for dpu_id, kind in self.targets.items()
        }

    # ------------------------------------------------------------------ #
    # decisions
    # ------------------------------------------------------------------ #

    def exec_fault(self, dpu_id: int, attempt: int = 0) -> ExecFault | None:
        """Does launch ``attempt`` of ``dpu_id`` fail?  And how?

        The answer depends only on the plan, the DPU id and the attempt,
        never on earlier launches, transfers or other DPUs' decisions, so
        a launch decided once holds for every repeat of it
        (:meth:`repro.host.runtime.DpuSet.decide`)."""
        targeted = self.targets.get(dpu_id)
        if targeted is not None and attempt < self.target_attempts:
            return ExecFault(
                kind=targeted,
                dpu_id=dpu_id,
                attempt=attempt,
                at_instruction=self.target_site,
                deadline_cycles=self.hang_cycle_budget,
            )
        ids = (dpu_id, attempt)
        if self.fault_rate > 0 and _uniform(self.seed, "fault", ids) < self.fault_rate:
            return ExecFault(FaultKind.FAULT, dpu_id, attempt)
        if self.hang_rate > 0 and _uniform(self.seed, "hang", ids) < self.hang_rate:
            return ExecFault(
                FaultKind.HANG, dpu_id, attempt,
                deadline_cycles=self.hang_cycle_budget,
            )
        return None


# ---------------------------------------------------------------------- #
# plan installation
# ---------------------------------------------------------------------- #

_ACTIVE: FaultPlan | None = None


def install_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Make ``plan`` the process-wide plan; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


def current_plan() -> FaultPlan | None:
    """The active plan, or None when injection is disabled."""
    return _ACTIVE


@contextmanager
def fault_injection(plan: FaultPlan):
    """Install ``plan`` for a block, restoring the previous plan after."""
    previous = install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def plan_from_env() -> FaultPlan | None:
    """Build a smoke-injection plan from ``REPRO_FAULT_*`` (or None)."""

    def _rate(name: str) -> float:
        raw = os.environ.get(name, "").strip()
        if not raw:
            return 0.0
        try:
            return float(raw)
        except ValueError:
            raise LaunchError(f"{name} must be a float, got {raw!r}") from None

    fault_rate = _rate("REPRO_FAULT_RATE")
    hang_rate = _rate("REPRO_FAULT_HANG_RATE")
    if fault_rate == hang_rate == 0.0:
        return None
    seed_raw = os.environ.get("REPRO_FAULT_SEED", "0").strip() or "0"
    try:
        seed = int(seed_raw)
    except ValueError:
        raise LaunchError(
            f"REPRO_FAULT_SEED must be an integer, got {seed_raw!r}"
        ) from None
    policy = os.environ.get("REPRO_FAULT_POLICY", "").strip() or "retry"
    return FaultPlan(
        seed=seed,
        fault_rate=fault_rate,
        hang_rate=hang_rate,
        default_policy=policy,
    )


_env_plan = plan_from_env()
if _env_plan is not None:
    install_plan(_env_plan)
