"""The DPU device: memories, loaded image, launch entry points.

One :class:`Dpu` owns an MRAM, a WRAM and a DMA engine, and runs whatever
image ``dpu_load`` put in its IRAM, like a physical DPU:

* an assembled :class:`~repro.dpu.isa.Program` runs on the one DPU
  through the instruction interpreter (exact, used for
  microbenchmarks; :meth:`Dpu.launch`);
* a kernel image, one without a program (fast, used for CNN
  workloads), runs set-wide: the mapping's Python kernel is called once
  over every DPU of a launch, through ``DpuSet.charge``.

MRAM *symbols* — named, sized regions — are how the host addresses
DPU memory in the UPMEM SDK (``dpu_copy_to(set, "symbol", ...)``); an image
declares its symbols and the device resolves them for the host runtime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro import faults, telemetry
from repro.dpu.attributes import UPMEM_ATTRIBUTES, UpmemAttributes
from repro.dpu.clock import SimClock
from repro.dpu.costs import OptLevel
from repro.dpu.interpreter import ExecutionResult, make_interpreter
from repro.dpu.isa import Program
from repro.dpu.kernel import KernelResult
from repro.dpu.memory import DmaEngine, Mram, Wram
from repro.errors import LaunchError, SymbolError

_M_DPU_EXECS = telemetry.GLOBAL_METRICS.counter(
    "dpu.execs", "DPU executions (one per DPU a launch ran)"
)
_M_DPU_INSTRUCTIONS = telemetry.GLOBAL_METRICS.counter(
    "dpu.instructions", "instructions (or kernel issue slots) retired"
)
_M_LAUNCH_CYCLES = telemetry.GLOBAL_METRICS.histogram(
    "launch.cycles", "per-DPU cycles of each launch"
)


@dataclass(frozen=True)
class Symbol:
    """A named MRAM region the host can transfer to/from."""

    name: str
    mram_addr: int
    size: int

    def check_range(self, offset: int, n_bytes: int) -> None:
        if offset < 0 or n_bytes < 0 or offset + n_bytes > self.size:
            raise SymbolError(
                f"transfer [{offset}, {offset + n_bytes}) outside symbol "
                f"{self.name!r} of size {self.size}"
            )


@dataclass
class DpuImage:
    """A loadable DPU image: an assembled program, or without one a
    kernel image, which the mapping's Python kernel runs set-wide.

    The stand-in for a dpu-clang compiled binary.  ``symbols`` declares the
    MRAM layout the host and the program agree on.
    """

    name: str
    program: Program | None = None
    symbols: dict[str, Symbol] = field(default_factory=dict)

    @staticmethod
    def from_symbol_layout(
        name: str,
        *,
        program: Program | None = None,
        layout: list[tuple[str, int]] | None = None,
        base_addr: int = 0,
    ) -> "DpuImage":
        """Build an image with symbols packed consecutively from ``base_addr``.

        ``layout`` is a list of (symbol name, size in bytes); each symbol is
        8-byte aligned, matching the MRAM allocation rule of Section 3.2.
        """
        symbols: dict[str, Symbol] = {}
        addr = base_addr
        for symbol_name, size in layout or []:
            addr = (addr + 7) & ~7
            symbols[symbol_name] = Symbol(symbol_name, addr, size)
            addr += size
        return DpuImage(name=name, program=program, symbols=symbols)


@dataclass(frozen=True)
class DpuCheckpoint:
    """A copy of a DPU's mutable state (:meth:`Dpu.checkpoint`): its
    resident MRAM pages, its WRAM (``None`` while unallocated) and its
    DMA counters ``(total_cycles, total_bytes, transfer_count)``."""

    mram_pages: dict[int, np.ndarray]
    wram: np.ndarray | None
    dma: tuple[int, int, int]


class Dpu:
    """One simulated DRAM Processing Unit."""

    def __init__(
        self,
        dpu_id: int = 0,
        attributes: UpmemAttributes = UPMEM_ATTRIBUTES,
        clock: SimClock | None = None,
    ) -> None:
        self.dpu_id = dpu_id
        self.attributes = attributes
        #: The clock of the system this DPU belongs to (see SimClock).
        self.clock = clock if clock is not None else SimClock()
        self.mram = Mram(attributes.mram_bytes)
        self.wram = Wram(attributes.wram_bytes)
        self.dma = DmaEngine(self.mram, self.wram)
        self.image: DpuImage | None = None
        self.last_result: ExecutionResult | KernelResult | None = None

    # ------------------------------------------------------------------ #
    # image management
    # ------------------------------------------------------------------ #

    def load(self, image: DpuImage) -> None:
        """Load an image (program or kernel), the ``dpu_load`` equivalent."""
        if image.program is not None:
            # Validate IRAM capacity eagerly, like the loader would.
            make_interpreter(image.program, self.wram, self.dma)
        self.image = image

    def symbol(self, name: str) -> Symbol:
        if self.image is None:
            raise SymbolError("no image loaded")
        try:
            return self.image.symbols[name]
        except KeyError:
            raise SymbolError(
                f"image {self.image.name!r} defines no symbol {name!r}"
            ) from None

    # ------------------------------------------------------------------ #
    # MRAM access (host side)
    # ------------------------------------------------------------------ #

    def write_symbol(self, name: str, data: bytes, offset: int = 0) -> None:
        sym = self.symbol(name)
        sym.check_range(offset, len(data))
        self.mram.write(sym.mram_addr + offset, data)

    def read_symbol(self, name: str, n_bytes: int, offset: int = 0) -> bytes:
        sym = self.symbol(name)
        sym.check_range(offset, n_bytes)
        return self.mram.read(sym.mram_addr + offset, n_bytes)

    def write_symbol_array(self, name: str, values: np.ndarray, offset: int = 0) -> None:
        self.write_symbol(name, np.ascontiguousarray(values).tobytes(), offset)

    def read_symbol_array(
        self, name: str, dtype: np.dtype | str, count: int, offset: int = 0
    ) -> np.ndarray:
        dt = np.dtype(dtype)
        raw = self.read_symbol(name, dt.itemsize * count, offset)
        return np.frombuffer(raw, dtype=dt).copy()

    # ------------------------------------------------------------------ #
    # checkpoint / rollback
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> DpuCheckpoint:
        """Copy the memories and DMA counters a launch may change.

        Only resident MRAM pages are copied (the store is sparse), and an
        unallocated WRAM stays unallocated.  ``last_result`` is the
        caller's to handle.
        """
        dma = self.dma
        return DpuCheckpoint(
            mram_pages={i: page.copy() for i, page in self.mram._pages.items()},
            wram=self.wram._data.copy() if self.wram.allocated else None,
            dma=(dma.total_cycles, dma.total_bytes, dma.transfer_count),
        )

    def restore(self, checkpoint: DpuCheckpoint) -> None:
        """Roll back to ``checkpoint``, copying again so that it can be
        restored more than once.  The Mram/Wram objects are kept, so the
        DMA engine and host-side handles stay valid."""
        self.mram._pages = {
            i: page.copy() for i, page in checkpoint.mram_pages.items()
        }
        if checkpoint.wram is None:
            self.wram.release()
        else:
            self.wram._data = checkpoint.wram.copy()
        dma = self.dma
        dma.total_cycles, dma.total_bytes, dma.transfer_count = checkpoint.dma

    # ------------------------------------------------------------------ #
    # launch
    # ------------------------------------------------------------------ #

    def launch(
        self,
        *,
        n_tasklets: int = 1,
        opt_level: OptLevel = OptLevel.O0,
        fault_attempt: int | None = None,
    ) -> ExecutionResult:
        """Run the loaded program image to completion through the
        instruction interpreter and return its result.

        A kernel image runs set-wide only, through ``DpuSet.charge``, and
        raises :class:`LaunchError` here.

        ``fault_attempt`` is the injection gate: set-level launches pass
        the attempt number so an installed :class:`repro.faults.FaultPlan`
        may make this DPU fault or hang; direct launches leave it ``None``
        and are never injected.
        """
        self.check_launch(n_tasklets)
        if self.image.program is None:
            raise LaunchError(
                f"kernel image {self.image.name!r} runs set-wide, through "
                f"DpuSet.decide and DpuSet.charge"
            )
        event = None
        if fault_attempt is not None:
            plan = faults.current_plan()
            if plan is not None:
                event = plan.exec_fault(self.dpu_id, fault_attempt)
        interpreter = make_interpreter(
            self.image.program,
            self.wram,
            self.dma,
            n_tasklets=n_tasklets,
            opt_level=opt_level,
            inject=event,
        )
        result = interpreter.run()
        self._finish(result, n_tasklets, telemetry.current_tracer())
        return result

    def check_launch(self, n_tasklets: int) -> None:
        """Reject a launch without an image or with a bad tasklet count."""
        if self.image is None:
            raise LaunchError("launch without a loaded image")
        if not 1 <= n_tasklets <= self.attributes.max_tasklets:
            raise LaunchError(
                f"tasklet count {n_tasklets} outside "
                f"[1, {self.attributes.max_tasklets}]"
            )

    def _finish(
        self,
        result: ExecutionResult,
        n_tasklets: int,
        tracer: "telemetry.Tracer | None",
    ) -> None:
        """Record a completed program run: last result, metrics, exec span."""
        self.last_result = result
        _M_DPU_EXECS.inc()
        _M_LAUNCH_CYCLES.observe(float(result.cycles))
        _M_DPU_INSTRUCTIONS.inc(result.instructions_retired)
        if tracer is not None:
            self._record_exec_span(tracer, result, n_tasklets)

    def _record_exec_span(
        self,
        tracer: "telemetry.Tracer",
        result: ExecutionResult | KernelResult,
        n_tasklets: int,
    ) -> None:
        """Emit this launch as parallel spans on the DPU's own track.

        The span sits at the tracer's current simulated instant without
        moving it — all DPUs of a set run concurrently, and the system's
        clock advances by the slowest member.
        """
        seconds = self.attributes.cycles_to_seconds(float(result.cycles))
        if isinstance(result, ExecutionResult):
            exec_span = tracer.add_span(
                "dpu.exec",
                track=("dpu", self.dpu_id),
                sim_duration=seconds,
                cycles=float(result.cycles),
                n_tasklets=n_tasklets,
                instructions=result.instructions_retired,
                dma_transfers=result.dma_transfers,
                dma_cycles=result.dma_cycles,
                dma_bytes=result.dma_bytes,
                stall_cycles=result.stall_cycles,
            )
            for tid, (t_cycles, t_instr) in enumerate(
                zip(result.per_tasklet_cycles, result.per_tasklet_instructions)
            ):
                if not t_instr:
                    continue
                tracer.add_span(
                    "tasklet",
                    track=("dpu", self.dpu_id, tid),
                    sim_duration=self.attributes.cycles_to_seconds(t_cycles),
                    parent=exec_span,
                    cycles=t_cycles,
                    instructions=t_instr,
                )
        else:
            tracer.add_span(
                "dpu.exec",
                track=("dpu", self.dpu_id),
                sim_duration=seconds,
                cycles=float(result.cycles),
                n_tasklets=n_tasklets,
                instructions=result.issue_slots,
                dma_cycles=result.dma_cycles,
                dma_bytes=result.dma_bytes,
            )


def record_kernel_results(
    dpus: list[Dpu], results, n_tasklets: int, times: int = 1
) -> list[float]:
    """Record each DPU's result as a launch of its own would (its
    ``last_result``, a ``launch.cycles`` observation and, when traced, a
    ``dpu.exec`` span; ``dpu.execs`` / ``dpu.instructions`` move once) and
    return their cycles.  ``times`` charges alike launches at once (untraced)."""
    tracer = telemetry.current_tracer()
    cycles, issue_slots = [], 0
    for dpu, result in zip(dpus, results, strict=True):
        dpu.last_result = result
        if tracer is not None:
            dpu._record_exec_span(tracer, result, n_tasklets)
        cycles.append(float(result.cycles))
        issue_slots += result.issue_slots
    for value, run in itertools.groupby(cycles):
        _M_LAUNCH_CYCLES.observe(value, count=len(list(run)) * times)
    _M_DPU_EXECS.inc(len(dpus) * times)
    _M_DPU_INSTRUCTIONS.inc(issue_slots * times)
    return cycles
