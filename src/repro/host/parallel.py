"""Parallel launch engine: fan a program launch out over worker processes.

Serial host execution of a :class:`~repro.host.runtime.DpuSet` launch of
an assembled program costs wall-clock time linear in the DPU count, since
every DPU interprets its own instruction stream.  This module runs those
per-DPU interpreter executions across a ``ProcessPoolExecutor``.  Kernel
images never come here: they run as one set-wide computation in the host
process (:func:`repro.dpu.device.launch_kernel`).

* DPUs are split into one contiguous chunk per worker to amortize IPC;
* each chunk ships the loaded image plus every member DPU's sparse MRAM
  pages and WRAM (:class:`~repro.dpu.device.DpuMemoryState`);
* the worker reconstructs each DPU, launches it, and ships back only the
  memory the run *wrote* (:class:`~repro.dpu.device.DpuMemoryDelta`:
  dirty MRAM pages plus the dirty WRAM span — O(touched), not
  O(memory)), the execution result, the DMA counter deltas, and a
  metrics delta (:meth:`MetricsRegistry.delta_since`);
* the parent adopts the memories, accumulates DMA counters, merges the
  metrics delta into ``GLOBAL_METRICS``, and re-emits the per-DPU
  ``dpu.exec`` spans onto the active tracer — so telemetry from worker
  processes is never silently lost.

**Determinism contract:** a parallel launch produces bit-identical MRAM
and WRAM contents, identical cycle counts, and identical metric totals to
``workers=1`` (only span wall-times differ).  Tests enforce this.

Worker-count resolution: an explicit ``launch(workers=N)`` always wins;
otherwise the process-wide default applies (``repro --workers`` /
:func:`set_default_workers`, else the ``REPRO_WORKERS`` environment
variable, else ``os.cpu_count()``), and small sets — fewer than
:data:`PARALLEL_MIN_DPUS` members — stay serial because pool IPC would
cost more than it saves.  ``workers=1`` is the in-process debug path,
byte-for-byte today's serial execution.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro import faults, telemetry
from repro.dpu import interpreter as interp
from repro.dpu.attributes import UpmemAttributes
from repro.dpu.costs import OptLevel
from repro.dpu.device import Dpu, DpuImage, DpuMemoryState
from repro.errors import DpuError, DpuHangError, LaunchError

_M_PARALLEL_LAUNCHES = telemetry.GLOBAL_METRICS.counter(
    "parallel.launches", "set-wide launches that ran through the worker pool"
)
_M_PARALLEL_CHUNKS = telemetry.GLOBAL_METRICS.counter(
    "parallel.chunks", "per-worker chunks dispatched by the parallel engine"
)

#: Sets smaller than this run serially when the worker count was resolved
#: implicitly (default/env/CLI): below it, pool IPC dominates any speedup.
#: Overridable via ``REPRO_PARALLEL_MIN_DPUS``; an explicit
#: ``launch(workers=N)`` bypasses the threshold entirely.
PARALLEL_MIN_DPUS = int(os.environ.get("REPRO_PARALLEL_MIN_DPUS", "16"))

#: Process-wide default worker count (None = resolve from env / cpu_count).
_DEFAULT_WORKERS: int | None = None


def default_workers() -> int:
    """The configured default worker count for set-wide launches."""
    if _DEFAULT_WORKERS is not None:
        return _DEFAULT_WORKERS
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise LaunchError(
                f"REPRO_WORKERS must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise LaunchError(
                f"REPRO_WORKERS must be a positive integer, got {value}"
            )
        return value
    return os.cpu_count() or 1


def set_default_workers(workers: int | None) -> None:
    """Set the process-wide default worker count.

    ``None`` restores the environment/cpu_count resolution.  The CLI's
    ``--workers`` flag lands here.
    """
    global _DEFAULT_WORKERS
    if workers is not None and workers < 1:
        raise LaunchError(f"worker count must be >= 1, got {workers}")
    _DEFAULT_WORKERS = workers


@contextmanager
def worker_scope(workers: int | None):
    """Temporarily override the default worker count for a block."""
    global _DEFAULT_WORKERS
    previous = _DEFAULT_WORKERS
    set_default_workers(workers)
    try:
        yield
    finally:
        _DEFAULT_WORKERS = previous


def resolve_workers(n_dpus: int, workers: int | None = None) -> int:
    """Effective worker count for one launch over ``n_dpus`` DPUs."""
    if n_dpus < 1:
        raise LaunchError(f"launch over {n_dpus} DPUs")
    if workers is not None:
        if workers < 1:
            raise LaunchError(f"worker count must be >= 1, got {workers}")
        return min(workers, n_dpus)
    configured = default_workers()
    if configured <= 1 or n_dpus < PARALLEL_MIN_DPUS:
        return 1
    return min(configured, n_dpus)


# ---------------------------------------------------------------------- #
# IPC payloads
# ---------------------------------------------------------------------- #


@dataclass
class DpuWorkOrder:
    """One DPU's share of a chunk: its position, identity, and memories."""

    index: int  # position within the launching set
    dpu_id: int
    memory: DpuMemoryState


@dataclass
class ChunkTask:
    """Everything one worker needs to run its slice of the set."""

    image: DpuImage
    attributes: UpmemAttributes
    n_tasklets: int
    opt_level: OptLevel
    kernel_params: dict
    orders: list[DpuWorkOrder]
    chunk_index: int = 0
    #: The parent's fault plan, shipped so pool workers (which are reused
    #: across launches) always run under the plan of *this* launch.
    fault_plan: Any = None
    fault_policy: str = "raise"
    max_retries: int = 0
    #: Interpreter mode of the launching process, shipped explicitly:
    #: pool workers are forked once and reused, so a later change to
    #: ``REPRO_INTERP`` / ``set_mode`` in the parent would otherwise never
    #: reach them.
    interp_mode: str = "fast"


@dataclass
class DpuLaunchOutcome:
    """One DPU's outcome: status, mutated memories, timing, DMA deltas.

    ``status`` is ``"ok"``, ``"faulted"`` (the program trapped), or
    ``"hung"`` (straggler past the cycle deadline).  A successful DPU
    ships a :class:`~repro.dpu.device.DpuMemoryDelta` — only the MRAM
    pages and WRAM span the execution wrote — and leaves ``memory`` None.
    A failed DPU under a tolerant policy ships ``result=None`` and its
    full *pre-launch* memory, so the parent restores a known-good state
    instead of adopting a half-executed one.
    """

    index: int
    memory: DpuMemoryState | None
    result: Any  # ExecutionResult | KernelResult | None
    delta: Any = None  # DpuMemoryDelta | None
    dma_cycles: int = 0
    dma_bytes: int = 0
    dma_transfers: int = 0
    dpu_id: int = 0
    status: str = "ok"
    attempts: int = 1
    error: str | None = None
    error_type: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ChunkOutcome:
    """A worker's reply: per-DPU outcomes plus its metrics delta."""

    outcomes: list[DpuLaunchOutcome] = field(default_factory=list)
    metrics_delta: dict = field(default_factory=dict)


def _copy_memory_state(state: DpuMemoryState) -> DpuMemoryState:
    """Deep-copy a memory snapshot (apply/export share backing arrays)."""
    return DpuMemoryState(
        mram_pages={addr: page.copy() for addr, page in state.mram_pages.items()},
        wram=None if state.wram is None else state.wram.copy(),
    )


def _run_order(task: ChunkTask, order: DpuWorkOrder) -> DpuLaunchOutcome:
    """Run one DPU of a chunk under the task's fault policy."""
    policy = task.fault_policy
    # Tolerant policies must be able to roll a failed attempt back to the
    # DPU's pre-launch state; 'raise' skips the copy on the hot path.
    pristine = _copy_memory_state(order.memory) if policy != "raise" else None
    attempt = 0
    while True:
        dpu = Dpu(order.dpu_id, task.attributes)
        dpu.apply_memory_state(
            order.memory if attempt == 0 else _copy_memory_state(pristine)
        )
        dpu.load(task.image)
        # Track writes from here: a retry re-applies pristine memory above,
        # so rolled-back pages from the failed attempt are not shipped.
        dpu.reset_memory_dirty()
        try:
            result = dpu.launch(
                n_tasklets=task.n_tasklets,
                opt_level=task.opt_level,
                fault_attempt=attempt,
                **task.kernel_params,
            )
        except DpuError as exc:
            if policy == "retry" and attempt < task.max_retries:
                attempt += 1
                continue
            if policy == "raise":
                raise LaunchError(
                    f"DPU {order.dpu_id} (set index {order.index}, chunk "
                    f"{task.chunk_index}) failed: {type(exc).__name__}: {exc}"
                ) from exc
            return DpuLaunchOutcome(
                index=order.index,
                memory=pristine,
                result=None,
                dpu_id=order.dpu_id,
                status="hung" if isinstance(exc, DpuHangError) else "faulted",
                attempts=attempt + 1,
                error=str(exc),
                error_type=type(exc).__name__,
            )
        # The fresh DPU's DMA engine started at zero, so its totals ARE
        # this launch's deltas; the parent accumulates them.
        return DpuLaunchOutcome(
            index=order.index,
            memory=None,
            delta=dpu.export_memory_delta(),
            result=result,
            dma_cycles=dpu.dma.total_cycles,
            dma_bytes=dpu.dma.total_bytes,
            dma_transfers=dpu.dma.transfer_count,
            dpu_id=order.dpu_id,
            status="ok",
            attempts=attempt + 1,
        )


#: Exit code of a deliberately killed worker (fault injection).
_KILL_EXIT = 87


def _run_chunk(task: ChunkTask, in_worker: bool = True) -> ChunkOutcome:
    """Worker entry point: run every DPU of one chunk to completion.

    Also callable in the parent (``in_worker=False``) to re-run a chunk
    whose worker died: there it skips worker-only setup (tracer/plan
    install, kill injection) and returns an empty metrics delta, because
    its metric increments already landed in the live parent registry.
    """
    if in_worker:
        # Workers never own a tracer: a forked worker inherits the
        # parent's tracer object, but spans recorded into that copy would
        # be silently lost, so tracing is disabled here and the parent
        # re-emits the per-DPU spans from the shipped results.
        telemetry.uninstall_tracer()
        # Run the interpreter flavor the parent was using: reused pool
        # workers would otherwise keep whatever mode they forked with.
        interp.set_mode(task.interp_mode)
        # Pool processes are reused across launches; always reset to this
        # task's plan (which may be None).
        faults.install_plan(task.fault_plan)
        plan = task.fault_plan
        if (
            plan is not None
            and task.orders
            and plan.kill_worker(task.chunk_index, task.orders[0].dpu_id)
        ):
            os._exit(_KILL_EXIT)
    before = telemetry.GLOBAL_METRICS.snapshot() if in_worker else None
    outcomes = [_run_order(task, order) for order in task.orders]
    return ChunkOutcome(
        outcomes=outcomes,
        metrics_delta=(
            telemetry.GLOBAL_METRICS.delta_since(before) if in_worker else {}
        ),
    )


def _rerun_chunk_in_parent(task: ChunkTask) -> ChunkOutcome:
    """Re-run a chunk whose worker died, in-process and tracer-quiet.

    The tracer is detached for the duration so per-DPU spans are not
    emitted twice (the caller re-emits spans for every outcome), and kill
    injection does not fire (``in_worker=False``), so a chunk whose
    worker the plan killed still completes deterministically.
    """
    tracer = telemetry.uninstall_tracer()
    try:
        return _run_chunk(task, in_worker=False)
    finally:
        if tracer is not None:
            telemetry.install_tracer(tracer)


# ---------------------------------------------------------------------- #
# executor management
# ---------------------------------------------------------------------- #

_EXECUTORS: dict[int, ProcessPoolExecutor] = {}


def _executor(workers: int) -> ProcessPoolExecutor:
    """A cached pool of ``workers`` processes (created on first use)."""
    pool = _EXECUTORS.get(workers)
    if pool is None:
        try:
            # fork is fastest and inherits the metrics registry;
            # platforms without it (Windows) fall back to the default.
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        _EXECUTORS[workers] = pool
    return pool


def _discard_executor(workers: int) -> None:
    """Drop a broken pool from the cache so the next launch gets a fresh one.

    A worker that died (``BrokenProcessPool``) poisons its whole executor:
    every subsequent submit fails instantly.  The broken pool is shut down
    without waiting and forgotten.
    """
    pool = _EXECUTORS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_executors() -> None:
    """Tear down every cached worker pool (also runs at interpreter exit)."""
    for pool in _EXECUTORS.values():
        pool.shutdown(wait=True, cancel_futures=True)
    _EXECUTORS.clear()


atexit.register(shutdown_executors)


def chunk_indices(n_items: int, n_chunks: int) -> list[range]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous runs."""
    if n_items < 0 or n_chunks < 1:
        raise LaunchError(
            f"cannot chunk {n_items} items into {n_chunks} chunks"
        )
    base, extra = divmod(n_items, n_chunks)
    chunks: list[range] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        if size == 0:
            break
        chunks.append(range(start, start + size))
        start += size
    return chunks


# ---------------------------------------------------------------------- #
# the engine
# ---------------------------------------------------------------------- #


def launch_parallel(
    dpu_set,
    *,
    n_tasklets: int,
    opt_level: OptLevel,
    kernel_params: dict,
    workers: int,
    fault_policy: str = "raise",
    max_retries: int = 0,
) -> list[DpuLaunchOutcome]:
    """Run every DPU of ``dpu_set`` (a program image) across processes.

    Returns the per-DPU :class:`DpuLaunchOutcome` list in set order, with
    each parent-side DPU updated in place (memories, DMA counters,
    ``last_result``) exactly as serial execution would have left it.
    Worker metric deltas are merged into ``GLOBAL_METRICS`` and per-DPU
    spans re-emitted on the active tracer before returning.

    ``fault_policy`` governs partial failure:

    * ``"raise"`` — a failing chunk cancels the futures that have not
      started, merges every chunk that did complete, and raises a
      :class:`LaunchError` naming the chunk and DPU (a dead worker's
      ``BrokenProcessPool`` included) instead of a raw exception.
    * ``"isolate"`` / ``"retry"`` — failed DPUs are reported in their
      outcome, healthy DPUs always land; a chunk whose worker died is
      re-run in the parent so its healthy members are not lost.
    """
    dpus = dpu_set.dpus
    image = dpu_set.image
    plan = faults.current_plan()
    chunks = chunk_indices(len(dpus), workers)
    tasks = []
    for chunk_index, chunk in enumerate(chunks):
        orders = [
            DpuWorkOrder(
                index=i,
                dpu_id=dpus[i].dpu_id,
                memory=dpus[i].export_memory_state(),
            )
            for i in chunk
        ]
        tasks.append(
            ChunkTask(
                image=image,
                attributes=dpu_set.attributes,
                n_tasklets=n_tasklets,
                opt_level=opt_level,
                kernel_params=kernel_params,
                orders=orders,
                chunk_index=chunk_index,
                fault_plan=plan,
                fault_policy=fault_policy,
                max_retries=max_retries,
                interp_mode=interp.current_mode(),
            )
        )
    pool = _executor(workers)
    chunk_outcomes: list[ChunkOutcome | None] = [None] * len(tasks)
    failures: list[tuple[int, BaseException]] = []
    submit_failures: list[tuple[int, BaseException]] = []
    pool_broken = False
    futures = []
    for task in tasks:
        try:
            futures.append(pool.submit(_run_chunk, task))
        except BrokenExecutor as exc:
            # A worker died while chunks were still being submitted: the
            # pool rejects new work from that instant.  Mark every chunk
            # that never made it in as failed (recorded after collection
            # so the first *running* failure stays failures[0]).
            for j in range(len(futures), len(tasks)):
                submit_failures.append((j, exc))
            pool_broken = True
            break
    # Collect in submission order so failures surface deterministically.
    for i, future in enumerate(futures):
        try:
            chunk_outcomes[i] = future.result()
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            failures.append((i, exc))
            pool_broken = pool_broken or isinstance(exc, BrokenExecutor)
            if fault_policy == "raise":
                # Cancel whatever has not started; chunks already running
                # are still collected below so their work is not lost.
                for later in futures[i + 1:]:
                    later.cancel()
                for j in range(i + 1, len(futures)):
                    if futures[j].cancelled():
                        continue
                    try:
                        chunk_outcomes[j] = futures[j].result()
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BaseException as late_exc:
                        failures.append((j, late_exc))
                        pool_broken = (
                            pool_broken or isinstance(late_exc, BrokenExecutor)
                        )
                break
    failures.extend(submit_failures)
    if pool_broken:
        _discard_executor(workers)
    if fault_policy != "raise":
        # A crashed worker must not take its healthy DPUs with it: re-run
        # each failed chunk in-process.  Kill injection only fires inside
        # workers, so the rerun completes deterministically.
        for i, exc in failures:
            faults.record_worker_failure(tasks[i].chunk_index, exc)
            chunk_outcomes[i] = _rerun_chunk_in_parent(tasks[i])

    merged_chunks = 0
    all_outcomes: dict[int, DpuLaunchOutcome] = {}
    for chunk_outcome in chunk_outcomes:
        if chunk_outcome is None:
            continue
        merged_chunks += 1
        if chunk_outcome.metrics_delta:
            telemetry.GLOBAL_METRICS.merge_delta(chunk_outcome.metrics_delta)
        for outcome in chunk_outcome.outcomes:
            dpu = dpus[outcome.index]
            if outcome.delta is not None:
                dpu.apply_memory_delta(outcome.delta)
            elif outcome.memory is not None:
                dpu.apply_memory_state(outcome.memory)
            if outcome.ok:
                dpu.dma.total_cycles += outcome.dma_cycles
                dpu.dma.total_bytes += outcome.dma_bytes
                dpu.dma.transfer_count += outcome.dma_transfers
                dpu.last_result = outcome.result
            else:
                dpu.last_result = None
            all_outcomes[outcome.index] = outcome
    if fault_policy == "raise" and failures:
        first_index, first_exc = failures[0]
        chunk = chunks[first_index]
        detail = (
            "a worker process died (BrokenProcessPool)"
            if isinstance(first_exc, BrokenExecutor)
            else f"{type(first_exc).__name__}: {first_exc}"
        )
        raise LaunchError(
            f"parallel launch failed in chunk {first_index} (set indices "
            f"{chunk.start}..{chunk.stop - 1}): {detail}; {merged_chunks} of "
            f"{len(tasks)} chunks completed and were merged"
        ) from first_exc
    tracer = telemetry.current_tracer()
    if tracer is not None:
        for index in range(len(dpus)):
            outcome = all_outcomes[index]
            if outcome.ok:
                dpus[index]._record_exec_span(tracer, outcome.result, n_tasklets)
            else:
                tracer.add_span(
                    "dpu.fault",
                    category="fault",
                    track=("dpu", outcome.dpu_id),
                    dpu_id=outcome.dpu_id,
                    status=outcome.status,
                    attempts=outcome.attempts,
                    error=outcome.error_type,
                )
    _M_PARALLEL_LAUNCHES.inc()
    _M_PARALLEL_CHUNKS.inc(len(tasks))
    return [all_outcomes[i] for i in range(len(dpus))]
