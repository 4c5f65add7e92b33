"""The inference server: a discrete-event loop over queues and the pool.

The server is single-threaded over *simulated* time, like everything else
in the simulator: arrivals carry simulated timestamps (from the seeded
load generator), service times come from the DPU system's simulated
clock, and the event loop interleaves the two — so a served workload is
a deterministic function of (requests, policies, pool), which is what
makes the batched-vs-offline bit-identity and fixed-seed latency
assertions of the test suite possible.

Event loop semantics (:meth:`InferenceServer.run`):

1. every request whose arrival time has passed is admitted into its
   model's bounded queue (or rejected with ``queue_full`` backpressure),
2. the earliest *flush event* over all queues (full batch / max-delay /
   deadline margin, see :class:`~repro.serve.batcher.DynamicBatcher`)
   or the next arrival — whichever is earlier — advances the clock,
3. a flush leases the pool's healthy DPUs, executes the batch through
   the model backend, and advances the clock by the batch's simulated
   service time — how far the batch moved the system's
   :class:`~repro.dpu.clock.SimClock`, the only source of service
   time.  Arrivals during that window pile up behind the busy server,
   which is exactly when a bounded queue overflows.

Fault handling: a batch executed under ``fault_policy="isolate"`` can
come back with some requests failed and the dead DPUs named; the server
quarantines the DPUs (the pool shrinks and, when the system has spares,
heals) and re-enqueues the failed requests at the head of their queue —
bypassing the admission cap, they were admitted once — until the retry
budget is spent, after which they are rejected with ``dpu_failure``.
Every submitted request therefore ends in exactly one response:
``serve.completed + serve.rejected == serve.offered`` is an invariant,
not a hope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro import telemetry
from repro.errors import ServeError
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.pool import DpuPool
from repro.serve.request import (
    InferenceRequest,
    InferenceResponse,
    RejectReason,
    completed,
    rejected,
)

_M_OFFERED = telemetry.GLOBAL_METRICS.counter(
    "serve.offered", "requests submitted to the server"
)
_M_COMPLETED = telemetry.GLOBAL_METRICS.counter(
    "serve.completed", "requests that returned a model output"
)
_M_REJECTED = telemetry.GLOBAL_METRICS.counter(
    "serve.rejected", "requests refused, labelled by reason"
)
_M_BATCHES = telemetry.GLOBAL_METRICS.counter(
    "serve.batches", "batches executed, labelled by model"
)
_M_BATCH_SIZE = telemetry.GLOBAL_METRICS.histogram(
    "serve.batch_size",
    "requests per executed batch",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
)
_M_LATENCY = telemetry.GLOBAL_METRICS.histogram(
    "serve.latency_seconds",
    "completed-request latency on the simulated clock",
    buckets=tuple(
        m * 10.0 ** e for e in range(-7, 2) for m in (1.0, 2.0, 5.0)
    ),
)
_M_RETRIES = telemetry.GLOBAL_METRICS.counter(
    "serve.request_retries", "requests re-enqueued after a DPU fault"
)
_M_DEADLINE_MISSES = telemetry.GLOBAL_METRICS.counter(
    "serve.deadline_misses", "requests completed after their deadline"
)


@dataclass
class ServeResult:
    """Everything a served workload produced, in request-id order."""

    responses: list[InferenceResponse]
    finished_s: float

    @property
    def offered(self) -> int:
        return len(self.responses)

    @property
    def completed(self) -> list[InferenceResponse]:
        return [r for r in self.responses if r.ok]

    @property
    def rejected(self) -> list[InferenceResponse]:
        return [r for r in self.responses if not r.ok]

    def rejects_by_reason(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.rejected:
            counts[r.reason.value] = counts.get(r.reason.value, 0) + 1
        return counts

    def outputs(self) -> dict[int, object]:
        """Completed outputs keyed by request id (the equivalence hook)."""
        return {r.request_id: r.output for r in self.completed}

    def latencies(self, model: str | None = None) -> list[float]:
        return [
            r.latency_s for r in self.completed
            if model is None or r.model == model
        ]

    def latency_quantile(
        self, q: float, model: str | None = None
    ) -> float | None:
        """Exact ``q``-quantile over completed latencies (not bucketed)."""
        values = self.latencies(model)
        if not values:
            return None
        return float(np.quantile(np.array(values), q))

    def throughput_rps(self) -> float:
        if self.finished_s <= 0:
            return 0.0
        return len(self.completed) / self.finished_s

    def batch_size_counts(self) -> dict[int, int]:
        """How many completed requests rode in batches of each size."""
        counts: dict[int, int] = {}
        for r in self.completed:
            counts[r.batch_size] = counts.get(r.batch_size, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> str:
        lines = [
            f"offered {self.offered}  completed {len(self.completed)}  "
            f"rejected {len(self.rejected)}  "
            f"makespan {self.finished_s * 1e3:.3f} ms  "
            f"throughput {self.throughput_rps():.1f} req/s",
        ]
        for reason, count in sorted(self.rejects_by_reason().items()):
            lines.append(f"  rejected[{reason}] {count}")
        models = sorted({r.model for r in self.responses})
        for model in models:
            values = self.latencies(model)
            if not values:
                continue
            p50 = self.latency_quantile(0.50, model)
            p95 = self.latency_quantile(0.95, model)
            p99 = self.latency_quantile(0.99, model)
            lines.append(
                f"  {model}: {len(values)} completed, latency p50 "
                f"{p50 * 1e3:.3f} ms  p95 {p95 * 1e3:.3f} ms  "
                f"p99 {p99 * 1e3:.3f} ms"
            )
        return "\n".join(lines)


class InferenceServer:
    """Per-model request queues + dynamic batching over a warm DPU pool."""

    def __init__(
        self,
        pool: DpuPool,
        *,
        policy: BatchPolicy | None = None,
        policies: dict[str, BatchPolicy] | None = None,
        fault_policy: str | None = None,
        max_request_retries: int = 3,
    ) -> None:
        if max_request_retries < 0:
            raise ServeError(
                f"max_request_retries must be >= 0, got {max_request_retries}"
            )
        default = policy if policy is not None else BatchPolicy.from_env()
        overrides = policies or {}
        self.pool = pool
        self.fault_policy = fault_policy
        self.max_request_retries = max_request_retries
        self._batchers = {
            model: DynamicBatcher(model, overrides.get(model, default))
            for model in pool.models()
        }
        self.now = 0.0
        self._closed = False
        self._responses: dict[int, InferenceResponse] = {}
        self._admitted: set[int] = set()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def submit(self, request: InferenceRequest) -> InferenceResponse | None:
        """Admit one request; returns the response when rejected at the door.

        ``None`` means the request is queued and will resolve during a
        later flush.  Unknown models and duplicate request ids are caller
        bugs and raise :class:`ServeError` instead of burning a
        rejection.
        """
        batcher = self._batchers.get(request.model)
        if batcher is None:
            raise ServeError(
                f"request {request.request_id} names unknown model "
                f"{request.model!r}; the pool serves {self.pool.models()}"
            )
        if (
            request.request_id in self._responses
            or request.request_id in self._admitted
        ):
            raise ServeError(
                f"duplicate request id {request.request_id}"
            )
        _M_OFFERED.inc()
        if self._closed:
            return self._record(
                rejected(request, RejectReason.SHUTTING_DOWN, self.now)
            )
        reason = batcher.offer(request)
        if reason is not None:
            return self._record(rejected(request, reason, self.now))
        self._admitted.add(request.request_id)
        return None

    def _record(self, response: InferenceResponse) -> InferenceResponse:
        self._responses[response.request_id] = response
        self._admitted.discard(response.request_id)
        if response.ok:
            _M_COMPLETED.inc()
            _M_LATENCY.labels(model=response.model).observe(
                response.latency_s
            )
            if response.deadline_missed:
                _M_DEADLINE_MISSES.inc()
        else:
            _M_REJECTED.labels(reason=response.reason.value).inc()
        return response

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #

    def run(self, requests: list[InferenceRequest]) -> ServeResult:
        """Serve a whole workload to completion and return the result.

        Requests are processed in simulated-arrival order; the loop
        terminates when every queue is empty and every request has its
        response (completed or rejected) — guaranteed because a request
        either completes or runs out of retries.
        """
        pending = sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )
        i, n = 0, len(pending)
        while True:
            # Admit everything that has arrived by now.  When the clock
            # just jumped over a batch's service window, this is where
            # the requests that arrived behind the busy server pile into
            # the bounded queues — and overflow into backpressure.
            while i < n and pending[i].arrival_s <= self.now:
                self.submit(pending[i])
                i += 1
            next_flush, flush_model = self._next_flush()
            next_arrival = pending[i].arrival_s if i < n else math.inf
            if next_arrival < next_flush:
                self.now = next_arrival
                continue
            if flush_model is None:
                break
            self.now = max(self.now, next_flush)
            # Arrivals landing exactly at the flush instant join it.
            while i < n and pending[i].arrival_s <= self.now:
                self.submit(pending[i])
                i += 1
            self._flush(flush_model)
        return self.result()

    def drain(self) -> None:
        """Flush every queue to empty, advancing the simulated clock."""
        while True:
            next_flush, flush_model = self._next_flush()
            if flush_model is None:
                return
            self.now = max(self.now, next_flush)
            self._flush(flush_model)

    def shutdown(self) -> None:
        """Stop admitting, then finish the in-flight work.

        Requests already queued at shutdown are served to completion
        (they were admitted; dropping them would break the
        one-response-per-request contract); requests submitted afterwards
        are rejected with ``shutting_down``.  The pool is left to its
        owner — a server restart must not cold-start the hardware.
        """
        self._closed = True
        self.drain()

    def result(self) -> ServeResult:
        """The responses recorded so far, in request-id order."""
        ordered = [
            self._responses[key] for key in sorted(self._responses)
        ]
        return ServeResult(responses=ordered, finished_s=self.now)

    # ------------------------------------------------------------------ #
    # flush execution
    # ------------------------------------------------------------------ #

    def _next_flush(self) -> tuple[float, str | None]:
        earliest, chosen = math.inf, None
        for model in sorted(self._batchers):
            due = self._batchers[model].flush_at(self.now)
            if due < earliest:
                earliest, chosen = due, model
        return earliest, chosen

    def _flush(self, model: str) -> None:
        batcher = self._batchers[model]
        batch, expired = batcher.pop_batch(self.now)
        for request in expired:
            self._record(
                rejected(request, RejectReason.DEADLINE_EXCEEDED, self.now)
            )
        if not batch:
            return
        try:
            members, attributes = self.pool.lease(model)
        except ServeError:
            # No healthy DPUs remain (and healing is exhausted); the
            # queued requests cannot ever execute.
            for request in batch:
                self._record(
                    rejected(request, RejectReason.DPU_FAILURE, self.now)
                )
            return
        for request in batch:
            request.attempts += 1
        backend = self.pool.backend(model)
        execution = backend.run_batch(
            members, attributes, batch, self.now, self.fault_policy
        )
        self.now += execution.seconds
        if execution.seconds > 0:
            batcher.note_service(execution.seconds)
        _M_BATCHES.labels(model=model).inc()
        _M_BATCH_SIZE.observe(len(batch))
        for request in batch:
            if request.request_id in execution.outputs:
                self._record(
                    completed(
                        request,
                        execution.outputs[request.request_id],
                        self.now,
                        batch_size=len(batch),
                    )
                )
        for request in execution.shed:
            self._record(
                rejected(request, RejectReason.DEADLINE_EXCEEDED, self.now)
            )
        if execution.failed_dpu_ids:
            # Healing warms replacements on the system's clock; the
            # server is busy until it is done.
            clock = self.pool.system.clock
            start = clock.now
            self.pool.quarantine(model, execution.failed_dpu_ids)
            self.now += clock.now - start
        for request in execution.failed:
            if request.attempts <= self.max_request_retries:
                _M_RETRIES.inc()
                batcher.requeue(request)
            else:
                self._record(
                    rejected(request, RejectReason.DPU_FAILURE, self.now)
                )


def run_offline(
    pool: DpuPool, requests: list[InferenceRequest]
) -> dict[int, object]:
    """Reference outputs: every request alone, one at a time, no deadlines.

    This is the ground truth the batched path must match bit for bit —
    the backends' math is batching-independent by construction
    (per-request quantization, per-image classification), and the tests
    hold them to it.
    """
    outputs: dict[int, object] = {}
    for request in sorted(
        requests, key=lambda r: (r.arrival_s, r.request_id)
    ):
        members, attributes = pool.lease(request.model)
        solo = replace(request, deadline_s=None)
        execution = pool.backend(request.model).run_batch(
            members, attributes, [solo], request.arrival_s, None
        )
        outputs[request.request_id] = execution.outputs[request.request_id]
    return outputs
