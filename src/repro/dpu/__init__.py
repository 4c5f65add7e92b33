"""Simulated UPMEM DPU: microarchitecture, memories, toolchain stand-ins.

Public surface of the DPU substrate.  See DESIGN.md for the substitution
argument: this simulator reproduces the documented UPMEM mechanisms
(11-stage fine-grained multithreaded pipeline, WRAM/MRAM split behind a
DMA engine, soft-float subroutines) with cycle costs calibrated against the
thesis's own measurements.
"""

from repro.dpu.attributes import ANNOUNCED_FREQUENCY_HZ, UPMEM_ATTRIBUTES, UpmemAttributes
from repro.dpu.costs import (
    O0_COSTS,
    O3_COSTS,
    Operation,
    OptLevel,
    Precision,
    cost_model,
    mram_access_cycles,
)
from repro.dpu.device import Dpu, DpuImage, Symbol
from repro.dpu.fastpath import FastInterpreter
from repro.dpu.interpreter import (
    INTERP_MODES,
    ExecutionResult,
    Interpreter,
    current_mode,
    interp_scope,
    make_interpreter,
    run_program,
    set_mode,
)
from repro.dpu.kernel import KernelContext, KernelResult
from repro.dpu.memory import DmaEngine, Iram, Mram, Wram, streamed_transfer_cycles
from repro.dpu.pipeline import (
    MAX_TASKLETS,
    PIPELINE_STAGES,
    aggregate_ipc,
    balanced_execution_cycles,
    dispatch_interval,
    execution_cycles,
    max_stack_bytes,
    threading_speedup,
)
from repro.dpu.profiler import PerfCounter, SubroutineProfile

__all__ = [
    "ANNOUNCED_FREQUENCY_HZ",
    "UPMEM_ATTRIBUTES",
    "UpmemAttributes",
    "O0_COSTS",
    "O3_COSTS",
    "Operation",
    "OptLevel",
    "Precision",
    "cost_model",
    "mram_access_cycles",
    "Dpu",
    "DpuImage",
    "Symbol",
    "ExecutionResult",
    "FastInterpreter",
    "INTERP_MODES",
    "Interpreter",
    "current_mode",
    "interp_scope",
    "make_interpreter",
    "run_program",
    "set_mode",
    "KernelContext",
    "KernelResult",
    "DmaEngine",
    "Iram",
    "Mram",
    "Wram",
    "streamed_transfer_cycles",
    "MAX_TASKLETS",
    "PIPELINE_STAGES",
    "aggregate_ipc",
    "balanced_execution_cycles",
    "dispatch_interval",
    "execution_cycles",
    "max_stack_bytes",
    "threading_speedup",
    "PerfCounter",
    "SubroutineProfile",
]
