"""Python-level DPU kernels with explicit cycle accounting.

Full instruction-level interpretation (``repro.dpu.interpreter``) is exact
but too slow for CNN-scale workloads, so the mapping layers express their
DPU programs as *Python kernels*: functions that perform the computation
on the DPUs' MRAM functionally (numpy) and charge issue slots, runtime
subroutine calls and DMA transfers to a :class:`KernelContext`.  Both
paths draw costs from the same calibrated tables
(:mod:`repro.dpu.costs` / :mod:`repro.dpu.runtime_calls`), so a kernel's
timing is consistent with what the interpreter would report for the
equivalent instruction stream.

A kernel is a plain function that runs *set-wide*, the SPMD launch of
Section 3.1 where every DPU runs the same image on its own data: one call
receives all the DPUs of a launch (each with the kernel image, an image
without a program, loaded) and returns one :class:`KernelResult` per DPU
in order; DPUs that did identical work may share one result object.  A
mapping binds the kernel to its parameters and passes it as the ``run``
of :meth:`DpuSet.charge <repro.host.runtime.DpuSet.charge>`, the one
way a kernel image runs.  It computes the whole set at once (one GEMM
for a layer's rows) and charges its cost recipe once per distinct cost
(:func:`charged_result`).  The context describes the work of a *whole
DPU* and spreads the charged slots over the resident tasklets (the
straggler rule of :func:`repro.dpu.pipeline.balanced_execution_cycles`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dpu import costs, runtime_calls
from repro.dpu.costs import Operation, OptLevel, Precision
from repro.dpu.memory import streamed_transfer_cycles
from repro.dpu.pipeline import balanced_execution_cycles, execution_cycles
from repro.dpu.profiler import SubroutineProfile
from repro.errors import DpuError

#: Which compiler-rt subroutine (if any) a C-level operation lowers to.
#: ``None`` means the operation inlines to hardware instructions.
_OP_SUBROUTINE: dict[tuple[Operation, Precision, OptLevel], str | None] = {
    (Operation.MUL, Precision.FIXED_16, OptLevel.O0): "__mulhi3",
    (Operation.MUL, Precision.FIXED_16, OptLevel.O3): None,
    (Operation.MUL, Precision.FIXED_32, OptLevel.O0): "__mulsi3",
    (Operation.MUL, Precision.FIXED_32, OptLevel.O3): "__mulsi3",
    (Operation.DIV, Precision.FIXED_8, OptLevel.O0): "__divsi3",
    (Operation.DIV, Precision.FIXED_8, OptLevel.O3): "__divsi3",
    (Operation.DIV, Precision.FIXED_16, OptLevel.O0): "__divsi3",
    (Operation.DIV, Precision.FIXED_16, OptLevel.O3): "__divsi3",
    (Operation.DIV, Precision.FIXED_32, OptLevel.O0): "__divsi3",
    (Operation.DIV, Precision.FIXED_32, OptLevel.O3): "__divsi3",
    (Operation.ADD, Precision.FLOAT_32, OptLevel.O0): "__addsf3",
    (Operation.ADD, Precision.FLOAT_32, OptLevel.O3): "__addsf3",
    (Operation.SUB, Precision.FLOAT_32, OptLevel.O0): "__subsf3",
    (Operation.SUB, Precision.FLOAT_32, OptLevel.O3): "__subsf3",
    (Operation.MUL, Precision.FLOAT_32, OptLevel.O0): "__mulsf3",
    (Operation.MUL, Precision.FLOAT_32, OptLevel.O3): "__mulsf3",
    (Operation.DIV, Precision.FLOAT_32, OptLevel.O0): "__divsf3",
    (Operation.DIV, Precision.FLOAT_32, OptLevel.O3): "__divsf3",
}


def subroutine_for(
    operation: Operation, precision: Precision, opt_level: OptLevel
) -> str | None:
    """Name of the runtime subroutine an operation lowers to, if any."""
    return _OP_SUBROUTINE.get((operation, precision, opt_level))


@dataclass
class KernelResult:
    """Timing and profiling outcome of one kernel launch."""

    cycles: float
    issue_slots: int
    dma_cycles: int
    dma_bytes: int
    n_tasklets: int
    profile: SubroutineProfile

    @property
    def compute_cycles(self) -> float:
        return self.cycles - self.dma_cycles


class KernelContext:
    """The cost accumulator a kernel charges its work to.

    It holds no memory: a kernel reads and writes each DPU's MRAM itself and charges the cost of that work here, once per
    distinct cost (:func:`charged_result`).
    """

    def __init__(
        self,
        *,
        n_tasklets: int = 1,
        opt_level: OptLevel = OptLevel.O0,
    ) -> None:
        if n_tasklets < 1:
            raise DpuError(f"tasklet count must be >= 1, got {n_tasklets}")
        self.n_tasklets = n_tasklets
        self.opt_level = opt_level
        self.profile = SubroutineProfile()
        self._issue_slots = 0
        self._dma_cycles = 0
        self._dma_bytes = 0
        self._work_units: int | None = None
        self._cost_model = costs.cost_model(opt_level)

    # ------------------------------------------------------------------ #
    # cost charging
    # ------------------------------------------------------------------ #

    def charge_instructions(self, count: int) -> None:
        """Charge ``count`` plain instruction issue slots."""
        if count < 0:
            raise DpuError(f"negative instruction count: {count}")
        self._issue_slots += count

    def charge_op(
        self, operation: Operation, precision: Precision, count: int = 1
    ) -> None:
        """Charge ``count`` C-level arithmetic operations.

        Uses the calibrated instruction cost for the active optimization
        level and records subroutine occurrences for profiling whenever the
        operation lowers to a runtime call.
        """
        if count < 0:
            raise DpuError(f"negative operation count: {count}")
        if count == 0:
            return
        per_op = self._cost_model.instructions(operation, precision)
        self._issue_slots += per_op * count
        name = subroutine_for(operation, precision, self.opt_level)
        if name is not None:
            self.profile.record(name, per_op, count)

    def charge_call(self, name: str, count: int = 1) -> None:
        """Charge ``count`` runtime-subroutine entries without executing them.

        A kernel's functional math runs vectorized (numpy) while the cost
        model still needs the per-call subroutine occurrences (Fig. 3.2 /
        4.3 profiles).
        """
        if count < 0:
            raise DpuError(f"negative call count: {count}")
        if count == 0:
            return
        entry = runtime_calls.get(name)
        n_instr = entry.instructions(self.opt_level)
        self._issue_slots += n_instr * count
        self.profile.record(name, n_instr, count)

    def charge_wram_access(self, count: int = 1) -> None:
        """Charge WRAM loads/stores (one issue slot each, Section 3.2.1)."""
        self.charge_instructions(count)

    # ------------------------------------------------------------------ #
    # DMA
    # ------------------------------------------------------------------ #

    def charge_streamed_dma(self, total_bytes: int) -> None:
        """Charge DMA time for a buffer streamed in 2 KB chunks (Eq. 3.4
        per chunk)."""
        self._dma_cycles += streamed_transfer_cycles(total_bytes)
        self._dma_bytes += total_bytes

    def charge_dma_cycles(self, cycles: int, n_bytes: int = 0) -> None:
        """Charge raw DMA cycles (e.g. per-element read-modify-write beats)."""
        if cycles < 0 or n_bytes < 0:
            raise DpuError(f"negative DMA charge: {cycles} cycles / {n_bytes} B")
        self._dma_cycles += cycles
        self._dma_bytes += n_bytes

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    @property
    def issue_slots(self) -> int:
        return self._issue_slots

    @property
    def dma_cycles(self) -> int:
        return self._dma_cycles

    @property
    def dma_bytes(self) -> int:
        return self._dma_bytes

    def set_work_units(self, n_units: int) -> None:
        """Declare the tasklet distribution granularity of this kernel.

        Tasklets receive whole *units* of work (e.g. whole images in the
        eBNN multi-image scheme, Section 4.1.3): with ``U`` units over
        ``T`` tasklets the straggler runs ``ceil(U / T)`` units, which is
        what produces the Fig. 4.7(a) eBNN dip at 11 tasklets and recovery
        at 16.  Kernels with fine-grained work (the YOLOv3 column split)
        simply leave this unset and get even slot balancing.
        """
        if n_units < 1:
            raise DpuError(f"work unit count must be >= 1, got {n_units}")
        self._work_units = n_units

    def elapsed_cycles(self) -> float:
        """Wall-clock cycles: pipelined compute plus serialized DMA."""
        if self._work_units is not None and self._issue_slots:
            per_unit = self._issue_slots / self._work_units
            straggler_units = -(-self._work_units // self.n_tasklets)
            compute = execution_cycles(straggler_units * per_unit, self.n_tasklets)
        else:
            compute = balanced_execution_cycles(self._issue_slots, self.n_tasklets)
        return compute + self.dma_cycles

    def result(self) -> KernelResult:
        return KernelResult(
            cycles=self.elapsed_cycles(),
            issue_slots=self._issue_slots,
            dma_cycles=self.dma_cycles,
            dma_bytes=self.dma_bytes,
            n_tasklets=self.n_tasklets,
            profile=self.profile,
        )


def charged_result(
    charge: Callable[[KernelContext], None],
    *,
    n_tasklets: int,
    opt_level: OptLevel,
) -> KernelResult:
    """The result of the cost recipe ``charge``.

    Kernels use it to charge a recipe once and hand the result to every
    DPU whose work it describes.
    """
    ctx = KernelContext(n_tasklets=n_tasklets, opt_level=opt_level)
    charge(ctx)
    return ctx.result()


def symbol_bytes(dpu, name: str, n_bytes: int) -> bytes:
    """The first ``n_bytes`` of a DPU's MRAM symbol, read DPU-side.

    A kernel's read path: unlike the host's
    :meth:`Dpu.read_symbol <repro.dpu.device.Dpu.read_symbol>` it is not
    a host transfer.
    """
    return dpu.mram.read(dpu.symbol(name).mram_addr, n_bytes)
