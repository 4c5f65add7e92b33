"""Warm DPU-set pool and the per-model-class execution backends.

The pool owns the hardware side of serving: at construction it allocates
one group of DPUs per model class, *warms* it (program image loaded,
LUTs/weights staged — the expensive one-time work), and afterwards leases
the healthy members out per batch.  Routing follows the paper's two
operation-mapping schemes:

* **eBNN** requests run *multi-image-per-DPU* (Section 4.1.3): a batch is
  packed 16 images to a DPU and one set-wide launch finishes the whole
  batch in the time of one DPU.
* **YOLO** requests run *multi-DPU-per-image* (Section 4.2.3, Fig. 4.6):
  each request's layer GEMMs are sharded one row of A per DPU, so a
  request occupies the whole lease and requests of a batch execute
  back-to-back on warm hardware.

Fault isolation composes with PR 3's launch machinery: batches launch
under the server's ``fault_policy``, a degraded
:class:`~repro.host.runtime.LaunchReport` names the dead DPUs, and the
pool **quarantines** them (shrinking the lease) and **heals** by
allocating and warming replacements while any remain in the system.
Requests that lived on a dead DPU come back in
:attr:`BatchExecution.failed` for the server's retry path — never
silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import telemetry
from repro.core.mapping_ebnn import (
    EBNN_TASKLETS,
    HOST_SECONDS_PER_IMAGE,
    IMAGES_PER_DPU,
    EbnnDpuLayout,
    ebnn_costs,
    launch_wave,
    read_wave,
    stage_lut,
    stage_wave,
)
from repro.core.mapping_yolo import (
    YOLO_TASKLETS,
    LayerFailedError,
    lower_layer_input,
    run_gemm_layer,
    weight_bound,
)
from repro.dpu.costs import OptLevel
from repro.errors import AllocationError, LaunchError, ServeError
from repro.host.runtime import DpuSet, DpuSystem
from repro.nn.models.darknet import Yolov3Model
from repro.nn.models.ebnn import EbnnModel
from repro.nn.quantize import QuantParams
from repro.serve.request import InferenceRequest

_M_POOL_ACTIVE = telemetry.GLOBAL_METRICS.gauge(
    "pool.active", "healthy DPUs currently serving, per model class"
)
_M_POOL_QUARANTINED = telemetry.GLOBAL_METRICS.counter(
    "pool.quarantined", "DPUs removed from serving after fault isolation"
)
_M_POOL_HEALED = telemetry.GLOBAL_METRICS.counter(
    "pool.healed", "replacement DPUs allocated and warmed by the pool"
)
_M_WAVES_SHED = telemetry.GLOBAL_METRICS.counter(
    "launch.cancelled", "eBNN waves shed before their launch"
)


@dataclass
class BatchExecution:
    """What one batch did to the hardware and to its requests.

    ``outputs`` maps request id to the model output for every request
    that completed.  ``shed`` requests were abandoned before execution
    because every member of their launch would have missed its deadline
    (the launch never ran).  ``failed``
    requests lived on fault-isolated DPUs; ``failed_dpu_ids`` names those
    DPUs so the pool can quarantine them.  ``seconds`` is how far the
    batch advanced the DPUs' simulated clock.
    """

    outputs: dict[int, Any] = field(default_factory=dict)
    seconds: float = 0.0
    shed: list[InferenceRequest] = field(default_factory=list)
    failed: list[InferenceRequest] = field(default_factory=list)
    failed_dpu_ids: set[int] = field(default_factory=set)


class ModelBackend:
    """One model class's warm-up and batch-execution recipe."""

    #: Backend key requests route on (``InferenceRequest.model``).
    name: str = ""

    def warm(self, dpu_set: DpuSet) -> None:
        """One-time staging onto freshly allocated DPUs."""
        raise NotImplementedError

    def run_batch(
        self,
        members: list,
        attributes,
        requests: list[InferenceRequest],
        now: float,
        fault_policy: str | None,
    ) -> BatchExecution:
        """Execute ``requests`` on the leased ``members`` starting at ``now``."""
        raise NotImplementedError


class EbnnBackend(ModelBackend):
    """Multi-image-per-DPU eBNN serving (Section 4.1.3's scheme, online).

    Warm-up loads the conv-pool kernel image and broadcasts the
    Algorithm 1 LUT once; each wave of a batch is then staged, launched
    set-wide and read out by the offline
    :class:`~repro.core.mapping_ebnn.EbnnPimRunner`'s own routines
    (:func:`~repro.core.mapping_ebnn.stage_wave`,
    :func:`~repro.core.mapping_ebnn.launch_wave`,
    :func:`~repro.core.mapping_ebnn.read_wave`), so outputs are
    bit-identical however the batcher grouped the requests.  A wave that
    no request could finish in time is shed before its launch.
    """

    name = "ebnn"

    def __init__(
        self,
        model: EbnnModel | None = None,
        *,
        images_per_dpu: int = IMAGES_PER_DPU,
    ) -> None:
        self.model = model if model is not None else EbnnModel()
        self.layout = EbnnDpuLayout(self.model.config, images_per_dpu)
        self.image = self.layout.build_image("serve_ebnn")

    def warm(self, dpu_set: DpuSet) -> None:
        dpu_set.load(self.image)
        stage_lut(dpu_set, self.model, self.layout)

    def run_batch(
        self,
        members: list,
        attributes,
        requests: list[InferenceRequest],
        now: float,
        fault_policy: str | None,
    ) -> BatchExecution:
        capacity = len(members) * self.layout.images_per_dpu
        execution = BatchExecution()
        clock = members[0].clock
        start = clock.now
        for first in range(0, len(requests), capacity):
            wave = requests[first : first + capacity]
            view, counts = stage_wave(
                members, attributes, self.image, self.layout,
                [np.asarray(r.payload) for r in wave],
            )
            try:
                decision = view.decide(EBNN_TASKLETS, OptLevel.O3, fault_policy)
                at = now + (clock.now - start)
                if self._hopeless(wave, decision, counts, attributes, at):
                    _M_WAVES_SHED.inc()
                    execution.shed.extend(wave)
                    continue
                report = launch_wave(
                    view, decision, self.model, self.layout, use_lut=True
                )
            except LaunchError:
                # Under a tolerant policy this is the all-DPUs-failed
                # case: nothing survived, so the wave goes to the retry path.
                execution.failed.extend(wave)
                execution.failed_dpu_ids.update(d.dpu_id for d in view)
                continue
            labels, _ = read_wave(view, counts, report, self.model, self.layout)
            for request, label in zip(wave, labels):
                if label < 0:  # its DPU failed
                    execution.failed.append(request)
                else:
                    execution.outputs[request.request_id] = int(label)
            execution.failed_dpu_ids.update(o.dpu_id for o in report.failed)
        execution.seconds = clock.now - start
        return execution

    def _hopeless(self, wave, decision, counts, attributes, at) -> bool:
        """Would every request of ``wave``, launched at ``at`` as
        ``decision`` decided, finish past its deadline?  Then the work
        is worthless: the wave is shed, and only its staging transfers
        stay charged.  Its seconds are those of its slowest DPU that
        runs, priced from the image counts.  A launch that raises, or
        that fails every DPU, is not shed but fails as it would.
        """
        if any(r.deadline_s is None for r in wave) or not decision.ran:
            return False
        if decision.policy == "raise" and decision.events:
            return False
        costs = ebnn_costs(
            [counts[i] for i in decision.ran], self.layout, use_lut=True,
            n_tasklets=decision.n_tasklets, opt_level=decision.opt_level,
        )
        seconds = attributes.cycles_to_seconds(max(c.cycles for c in costs))
        completion = at + seconds + HOST_SECONDS_PER_IMAGE * len(wave)
        return all(completion > r.deadline_s for r in wave)


class YoloBackend(ModelBackend):
    """Multi-DPU-per-image YOLO serving (the Fig. 4.6 GEMM-row scheme).

    Warm-up quantizes every conv layer's weight matrix once (the
    "preloaded weights" of the pool); per request, each layer's GEMM is
    sharded one row of A per leased DPU and executed set-wide, so a
    degraded launch isolates cleanly to the requests that were in flight.
    Quantization parameters depend only on the request's own activations
    and the warm weights, so outputs are bit-identical to running the
    request alone.
    """

    name = "yolo"

    #: The GEMM's alpha (C = alpha * A @ B) on every served layer.
    alpha = 1

    def __init__(self, model: Yolov3Model | None = None) -> None:
        self.model = (
            model if model is not None
            else Yolov3Model(64, width_scale=0.05, seed=21)
        )
        #: Per layer: quantized weights, their parameters and weight_bound.
        self._weights: dict[int, tuple[np.ndarray, QuantParams, int]] = {}

    def warm(self, dpu_set: DpuSet) -> None:
        # The warm work is host-side: quantized per-layer weights, ready
        # to scatter.  Per-layer program images load at batch time (each
        # layer's GEMM shape is its own image).  The model's lazy weights
        # draw from one sequential RNG, so materialize them in exactly
        # forward()'s access order (weights, then that layer's BN) — a
        # warmed model must equal a fresh model that simply ran forward.
        for plan in self.model.plans:
            a = self.model.conv_weights(plan).reshape(
                plan.gemm.m, plan.gemm.k
            )
            if plan.spec.batch_normalize:
                self.model.conv_bn(plan)
            if plan.layer_index in self._weights:
                continue
            params = QuantParams.from_tensor(a, bits=8)
            a_q = params.quantize(a).astype(np.int16)
            self._weights[plan.layer_index] = (a_q, params, weight_bound(a_q))

    def run_batch(
        self,
        members: list,
        attributes,
        requests: list[InferenceRequest],
        now: float,
        fault_policy: str | None,
    ) -> BatchExecution:
        execution = BatchExecution()
        clock = members[0].clock
        start = clock.now
        active = list(members)
        for request in requests:
            if not active:
                execution.failed.append(request)
                continue
            try:
                detections = self.model.forward(
                    np.asarray(request.payload, dtype=np.float32),
                    conv_fn=lambda plan, a, x: self._pim_gemm(
                        plan, x, active, attributes, fault_policy
                    ),
                )
            except LayerFailedError as failure:
                execution.failed.append(request)
                execution.failed_dpu_ids.update(failure.failed_dpu_ids)
                active = [
                    d for d in active
                    if d.dpu_id not in failure.failed_dpu_ids
                ]
            else:
                execution.outputs[request.request_id] = detections
        execution.seconds = clock.now - start
        return execution

    def _pim_gemm(self, plan, x, active, attributes, fault_policy) -> np.ndarray:
        a_q, a_params, a_bound = self._weights[plan.layer_index]
        b_q, b_params, divisor = lower_layer_input(
            x, plan.geometry, a_q, self.alpha, a_bound=a_bound
        )
        c_rows, _ = run_gemm_layer(
            active, attributes, plan, a_q, b_q, divisor, self.alpha,
            n_tasklets=YOLO_TASKLETS, opt_level=OptLevel.O3,
            fault_policy=fault_policy,
        )
        scale = a_params.scale * b_params.scale * divisor / self.alpha
        return c_rows.astype(np.float32) * np.float32(scale)


@dataclass
class _PoolEntry:
    backend: ModelBackend
    sets: list[DpuSet]
    members: list
    quarantined: set[int] = field(default_factory=set)


class DpuPool:
    """Warm per-model DPU groups with quarantine-and-heal lifecycle."""

    def __init__(
        self,
        system: DpuSystem,
        backends: list[ModelBackend] | dict[str, ModelBackend],
        *,
        dpus_per_model: int | dict[str, int] = 4,
        heal: bool = True,
    ) -> None:
        if isinstance(backends, dict):
            backend_map = dict(backends)
        else:
            backend_map = {b.name: b for b in backends}
        if not backend_map:
            raise ServeError("a DpuPool needs at least one model backend")
        self.system = system
        self.heal = heal
        self._entries: dict[str, _PoolEntry] = {}
        self._closed = False
        for model, backend in backend_map.items():
            n = (
                dpus_per_model.get(model, 4)
                if isinstance(dpus_per_model, dict) else dpus_per_model
            )
            if n < 1:
                raise ServeError(
                    f"dpus_per_model for {model!r} must be >= 1, got {n}"
                )
            dpu_set = system.allocate(n)
            backend.warm(dpu_set)
            self._entries[model] = _PoolEntry(
                backend=backend, sets=[dpu_set], members=list(dpu_set.dpus)
            )
            _M_POOL_ACTIVE.labels(model=model).set(n)

    def models(self) -> list[str]:
        return sorted(self._entries)

    def _entry(self, model: str) -> _PoolEntry:
        entry = self._entries.get(model)
        if entry is None:
            raise ServeError(
                f"no backend for model {model!r}; pool serves "
                f"{self.models()}"
            )
        return entry

    def backend(self, model: str) -> ModelBackend:
        return self._entry(model).backend

    def active_dpus(self, model: str) -> int:
        return len(self._entry(model).members)

    def lease(self, model: str) -> tuple[list, Any]:
        """The healthy members (and attributes) to run one batch on."""
        if self._closed:
            raise ServeError("lease from a shut-down pool")
        entry = self._entry(model)
        if not entry.members:
            raise ServeError(
                f"no healthy DPUs remain for model {model!r}: "
                f"{len(entry.quarantined)} quarantined, healing exhausted"
            )
        return list(entry.members), self.system.attributes

    def quarantine(self, model: str, dpu_ids: set[int]) -> int:
        """Remove fault-isolated DPUs from serving; heal if possible.

        Returns the number of DPUs actually removed.  Healing allocates
        the same number of replacements from the system (when free) and
        warms them through the backend, so the pool's capacity recovers
        without touching in-flight state.  Quarantined DPUs stay
        allocated — faulty hardware does not return to the free list.
        """
        entry = self._entry(model)
        doomed = {
            d for d in dpu_ids
            if any(m.dpu_id == d for m in entry.members)
        }
        if not doomed:
            return 0
        entry.members = [m for m in entry.members if m.dpu_id not in doomed]
        entry.quarantined.update(doomed)
        _M_POOL_QUARANTINED.labels(model=model).inc(len(doomed))
        if self.heal:
            try:
                fresh = self.system.allocate(len(doomed))
            except AllocationError:
                fresh = None
            if fresh is not None:
                entry.backend.warm(fresh)
                entry.sets.append(fresh)
                entry.members.extend(fresh.dpus)
                _M_POOL_HEALED.labels(model=model).inc(len(fresh.dpus))
        _M_POOL_ACTIVE.labels(model=model).set(len(entry.members))
        return len(doomed)

    def shutdown(self) -> None:
        """Free every allocated set, dropping the MRAM contents its warm
        state left; the pool refuses further leases."""
        if self._closed:
            return
        self._closed = True
        for model, entry in self._entries.items():
            for dpu_set in entry.sets:
                for dpu in dpu_set:
                    dpu.mram.release()
                self.system.free(dpu_set)
            entry.members = []
            _M_POOL_ACTIVE.labels(model=model).set(0)
