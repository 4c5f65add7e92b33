"""The eBNN wave routine against the two wave loops it replaced.

:func:`repro.core.mapping_ebnn.stage_wave` and
:func:`~repro.core.mapping_ebnn.read_wave` are the one eBNN wave of the
offline :class:`EbnnPimRunner` and the serving :class:`EbnnBackend`.
These tests keep the two loops they replaced, each with its own packing,
scatter and per-image ``read_symbol`` read-out, as oracles and hold the
new routine to them bit for bit under no fault plan, the raise, isolate
and retry policies, a launch whose every DPU fails, and the backend's
deadline shedding:

* labels, the backend's :class:`BatchExecution`, every
  :class:`LaunchReport` and the runner's :class:`SubroutineProfile`;
* every DPU's MRAM ``images``, ``meta`` and ``results`` symbols;
* every ``GLOBAL_METRICS`` delta except :data:`EXTRA_COUNTERS`, which
  must differ by exactly what the new routine adds, as must the
  execution's simulated seconds (the gathers' host-link time).

Two differences are by design.  An image on a DPU that the runner's
launch isolated gets label ``-1``, and host time is charged only for the
images that were classified; the old runner classified the DPU's
rolled-back ``results`` and charged every image.  And the backend sheds
a late wave before its launch, where the old one launched it, then
cancelled it and rolled the DPUs back: the oracle rolls back the metrics
the cancelled launch recorded too, which must be only
:data:`SHED_METRICS`.
"""

import functools
from contextlib import contextmanager

import numpy as np
import pytest

from repro import faults, telemetry
from repro.core.lut import create_lut
from repro.core.mapping_ebnn import (
    EBNN_TASKLETS,
    HOST_SECONDS_PER_IMAGE,
    EbnnPimRunner,
    EbnnRunResult,
    ebnn_conv_pool_kernel,
    ebnn_dpu_cycles,
)
from repro.datasets import generate_batch
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.dpu.profiler import SubroutineProfile
from repro.errors import DpuError, LaunchError
from repro.faults import FaultPlan
from repro.host import runtime
from repro.host.runtime import DpuSet, DpuSystem
from repro.host.transfer import transfer_seconds
from repro.nn.binary import pack_image, unpack_bits
from repro.nn.models.ebnn import EbnnModel
from repro.serve import BatchExecution, EbnnBackend, InferenceRequest
from tests.conftest import launch_kernel

#: Counters the new routine moves beyond the old loops: ``stage_wave``
#: loads the image on every wave (and the runner once more per run, to
#: stage the LUT), and ``read_wave`` reads back with one counted gather
#: where the old loops read each image uncounted.
EXTRA_COUNTERS = [
    ("dpu.loads", None),
    ("transfer.pushes", None),
    ("transfer.bytes", (("direction", "from_dpu"),)),
]

#: What a launch records and a wave shed before its launch does not.
SHED_METRICS = {
    "dpu.launches", "dpu.execs", "dpu.instructions", "launch.seconds",
    "launch.cycles", "dpu.faults", "launch.degraded", "launch.retries",
}

SYMBOLS = ("images", "meta", "results")

MODEL = EbnnModel()
IMAGES = generate_batch(100, seed=4).normalized()

#: The targeted DPU (by id) that the fault scenarios fail.
BAD = 1


class OldRunner(EbnnPimRunner):
    """The runner as it was: image and LUT staged on every wave, and
    results read image by image."""

    def __init__(self, system, model, **kwargs):
        super().__init__(system, model, **kwargs)
        self.lut = (
            create_lut(model.bn, *model.config.conv_range)
            if self.use_lut else None
        )

    def run(self, images):
        n_images = images.shape[0]
        per_dpu = self.layout.images_per_dpu
        n_dpus = self.system.dpus_needed_for(n_images, per_dpu)
        wave_capacity = n_dpus * per_dpu
        dpu_set = self.system.allocate(n_dpus)
        try:
            waves = [
                self._old_wave(dpu_set, images[start : start + wave_capacity])
                for start in range(0, n_images, wave_capacity)
            ]
        finally:
            self.system.free(dpu_set)
        if len(waves) == 1:
            return waves[0]
        return self._merge_waves(waves)

    def _old_wave(self, dpu_set, images):
        layout = self.layout
        n_images = images.shape[0]
        per_dpu = layout.images_per_dpu
        dpu_set.load(layout.build_image())

        blocks: list[bytes] = []
        counts: list[int] = []
        for d in range(len(dpu_set)):
            chunk = images[d * per_dpu : (d + 1) * per_dpu]
            packed = b"".join(
                pack_image(img).ljust(layout.image_bytes, b"\0") for img in chunk
            )
            blocks.append(packed.ljust(layout.images_bytes, b"\0"))
            counts.append(len(chunk))
        dpu_set.scatter("images", [np.frombuffer(b, dtype=np.uint8) for b in blocks])
        dpu_set.scatter(
            "meta",
            [np.array([c, 0], dtype=np.uint32) for c in counts],
        )
        if self.use_lut:
            lut_raw = self.lut.to_bytes().ljust(layout.lut_bytes, b"\0")
            dpu_set.broadcast("lut", np.frombuffer(lut_raw, dtype=np.uint8))

        report = launch_kernel(
            dpu_set, ebnn_conv_pool_kernel,
            n_tasklets=self.n_tasklets,
            opt_level=self.opt_level,
            model=self.model,
            layout=layout,
            use_lut=self.use_lut,
        )

        host_seconds = HOST_SECONDS_PER_IMAGE * n_images
        predictions = np.zeros(n_images, dtype=np.int64)
        profile = SubroutineProfile()
        for d, dpu in enumerate(dpu_set):
            if dpu.last_result is not None:
                profile = profile.merged_with(dpu.last_result.profile)
            for i in range(counts[d]):
                raw = dpu.read_symbol(
                    "results",
                    layout.result_bytes_per_image,
                    offset=i * layout.result_bytes_per_image,
                )
                bits = unpack_bits(raw, self.model.config.feature_count)
                cfg = self.model.config
                features = bits.reshape(cfg.filters, cfg.pooled_out, cfg.pooled_out)
                label, _ = self.model.classify_features(features)
                predictions[d * per_dpu + i] = label
        dpu_set.clock.advance(host_seconds)
        return EbnnRunResult(
            predictions=predictions,
            dpu_report=report,
            n_dpus=len(dpu_set),
            n_images=n_images,
            profile=profile,
            host_seconds=host_seconds,
        )


class OldBackend(EbnnBackend):
    """The backend as it was: the warm image hand-set on each wave's
    set, a late wave launched and then cancelled, and results read image
    by image.  Its service time is the clock's advance, as the new
    backend's is.  ``waited`` collects the report of every launch it
    kept, and ``shed_metrics`` what each cancelled launch recorded."""

    def __init__(self, model):
        super().__init__(model)
        self.waited, self.shed_metrics = [], []

    def run_batch(self, members, attributes, requests, now, fault_policy):
        per_dpu = self.layout.images_per_dpu
        capacity = len(members) * per_dpu
        execution = BatchExecution()
        clock = members[0].clock
        start = clock.now
        for first in range(0, len(requests), capacity):
            wave = requests[first : first + capacity]
            self._old_wave(
                members, attributes, wave, now + (clock.now - start),
                fault_policy, execution,
            )
        execution.seconds = clock.now - start
        return execution

    def _old_wave(self, members, attributes, wave, now, fault_policy, execution):
        layout = self.layout
        per_dpu = layout.images_per_dpu
        n_active = min(len(members), -(-len(wave) // per_dpu))
        view = DpuSet(list(members[:n_active]), attributes)
        view.image = self.image

        chunks = [wave[d * per_dpu : (d + 1) * per_dpu] for d in range(n_active)]
        blocks = []
        for chunk in chunks:
            packed = b"".join(
                pack_image(np.asarray(r.payload)).ljust(
                    layout.image_bytes, b"\0"
                )
                for r in chunk
            )
            blocks.append(
                np.frombuffer(
                    packed.ljust(layout.images_bytes, b"\0"), dtype=np.uint8
                )
            )
        view.scatter("images", blocks)
        view.scatter(
            "meta",
            [np.array([len(c), 0], dtype=np.uint32) for c in chunks],
        )

        # The asynchronous launch: every DPU checkpointed at issue, and
        # the kernel run and charged without moving the clock.
        checkpoints = [dpu.checkpoint() for dpu in view]
        registry = telemetry.GLOBAL_METRICS
        saved, before = registry.delta_since({}), registry.snapshot()
        kernel = functools.partial(
            ebnn_conv_pool_kernel, n_tasklets=EBNN_TASKLETS,
            opt_level=OptLevel.O3, model=self.model, layout=layout,
            use_lut=True,
        )
        try:
            decision = view.decide(EBNN_TASKLETS, OptLevel.O3, fault_policy)
            report = view._charged(decision, len(view), 1, kernel)
        except LaunchError:
            execution.failed.extend(wave)
            execution.failed_dpu_ids.update(d.dpu_id for d in view)
            return

        host_seconds = HOST_SECONDS_PER_IMAGE * len(wave)
        completion = now + report.seconds + host_seconds
        if wave and all(
            r.deadline_s is not None and completion > r.deadline_s
            for r in wave
        ):
            # Cancelled: the DPUs, and here the metrics, rolled back.
            for dpu, checkpoint in zip(view, checkpoints):
                dpu.restore(checkpoint)
                dpu.last_result = None
            view.last_report = None
            self.shed_metrics.append(registry.delta_since(before))
            registry.reset()
            registry.merge_delta(saved)
            registry.counter("launch.cancelled").inc()
            execution.shed.extend(wave)
            return

        view.clock.advance(report.seconds)  # the wait
        self.waited.append(vars(report))
        ok_indices = (
            {o.index for o in report.outcomes if o.ok}
            if report.outcomes else set(range(n_active))
        )
        n_classified = 0
        for d, dpu in enumerate(view):
            if d not in ok_indices:
                execution.failed.extend(chunks[d])
                execution.failed_dpu_ids.add(dpu.dpu_id)
                continue
            for i, request in enumerate(chunks[d]):
                raw = dpu.read_symbol(
                    "results",
                    layout.result_bytes_per_image,
                    offset=i * layout.result_bytes_per_image,
                )
                bits = unpack_bits(raw, self.model.config.feature_count)
                cfg = self.model.config
                features = bits.reshape(
                    cfg.filters, cfg.pooled_out, cfg.pooled_out
                )
                label, _ = self.model.classify_features(features)
                execution.outputs[request.request_id] = int(label)
                n_classified += 1
        view.clock.advance(HOST_SECONDS_PER_IMAGE * n_classified)


def _plan(scenario):
    """The fault plan of a scenario (None: no plan)."""
    if scenario == "clean":
        return None
    targets = {BAD: "fault"}
    if scenario == "all-failed":
        targets = {dpu_id: "fault" for dpu_id in range(8)}
    return FaultPlan(
        seed=3,
        fault_rate=0.05 if scenario == "retry" else 0.0,
        targets=targets,
        target_attempts=1 if scenario == "retry" else 10,
        default_policy={"all-failed": "isolate"}.get(scenario, scenario),
    )


@contextmanager
def _fresh_metrics():
    """Run on a zeroed ``GLOBAL_METRICS``; yields a dict that receives
    the final snapshot, and restores the registry afterwards."""
    registry = telemetry.GLOBAL_METRICS
    saved = registry.delta_since({})
    registry.reset()
    out = {}
    try:
        yield out
    finally:
        out["metrics"] = registry.snapshot()
        registry.reset()
        registry.merge_delta(saved)


def _observe(run, dpus_of, scenario, monkeypatch):
    """Run ``run()`` under the scenario's plan; returns what it returned
    (or raised), every charged launch's report, the gathers and the
    memory."""
    reports, gathers = [], []
    charge, gather = runtime.DpuSet.charge, runtime.DpuSet.gather

    def recording_charge(dpu_set, decision, rows, run):
        charged = charge(dpu_set, decision, rows, run)
        reports.extend(vars(report) for report in charged)
        return charged

    def recording_gather(dpu_set, symbol, length):
        gathers.append(len(dpu_set) * length)
        return gather(dpu_set, symbol, length)

    monkeypatch.setattr(runtime.DpuSet, "charge", recording_charge)
    monkeypatch.setattr(runtime.DpuSet, "gather", recording_gather)
    with _fresh_metrics() as registry, faults.fault_injection(_plan(scenario)):
        try:
            outcome = run()
        except (DpuError, LaunchError) as exc:
            outcome = (type(exc), str(exc))
    monkeypatch.undo()
    memory = [
        [dpu.mram.read(dpu.symbol(s).mram_addr, dpu.symbol(s).size)
         for s in SYMBOLS]
        for dpu in dpus_of()
    ]
    return outcome, reports, gathers, registry["metrics"], memory


def _counter(metrics, name, child):
    node = metrics[name]
    if child is not None:
        node = node["children"].get(child, {"state": 0})
    return node["state"]


def _without_extras(metrics):
    metrics = {name: dict(node) for name, node in metrics.items()}
    for name, child in EXTRA_COUNTERS:
        if child is None:
            del metrics[name]
        else:
            children = dict(metrics[name]["children"])
            children.pop(child, None)
            metrics[name]["children"] = children
    return metrics


def _touched(delta):
    """The names of the metrics a delta moves."""

    def moved(node):
        state = node["state"]
        count = state["count"] if isinstance(state, dict) else state
        return bool(count) or any(map(moved, node["children"].values()))

    return {name for name, node in delta.items() if moved(node)}


def _check_extras(got, want, gathers, extra_loads):
    """The new routine differs by its gathers and loads, nothing else."""
    assert _without_extras(got) == _without_extras(want)
    extra = {
        name: _counter(got, name, child) - _counter(want, name, child)
        for name, child in EXTRA_COUNTERS
    }
    assert extra == {
        "dpu.loads": extra_loads,
        "transfer.pushes": len(gathers),
        "transfer.bytes": sum(gathers),
    }


RUNNER_SCENARIOS = ["clean", "raise", "isolate", "retry", "all-failed"]


@pytest.mark.parametrize("scenario", RUNNER_SCENARIOS)
def test_runner_matches_old_wave(scenario, monkeypatch):
    n_images = 56  # four DPUs, the last with 8 images

    def observe(runner_cls):
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(4))
        runner = runner_cls(system, MODEL)
        return _observe(
            lambda: runner.run(IMAGES[:n_images]),
            lambda: [system._dpu(i) for i in range(4)],
            scenario, monkeypatch,
        )

    got, _, gathers, got_metrics, got_memory = observe(EbnnPimRunner)
    want, _, _, want_metrics, want_memory = observe(OldRunner)
    assert got_memory == want_memory
    if isinstance(want, tuple):  # raised
        assert got == want
        assert gathers == []
        _check_extras(got_metrics, want_metrics, gathers, 1)
        return
    assert vars(got.dpu_report) == vars(want.dpu_report)
    assert got.profile == want.profile
    assert (got.n_dpus, got.n_images) == (want.n_dpus, want.n_images)
    failed = {o.index for o in got.dpu_report.failed}
    assert len(failed) == (scenario == "isolate")
    on_failed = np.repeat(np.arange(4), 16)[:n_images]
    on_failed = np.isin(on_failed, list(failed))
    assert np.array_equal(
        got.predictions, np.where(on_failed, -1, want.predictions)
    )
    assert got.host_seconds == HOST_SECONDS_PER_IMAGE * int(
        np.count_nonzero(~on_failed)
    )
    assert want.host_seconds == HOST_SECONDS_PER_IMAGE * n_images
    _check_extras(got_metrics, want_metrics, gathers, 1)


def _requests(n, deadline_s=None):
    return [
        InferenceRequest(i, "ebnn", IMAGES[i], deadline_s=deadline_s)
        for i in range(n)
    ]


#: Simulated seconds of one full wave's launch.
WAVE_SECONDS = UPMEM_ATTRIBUTES.cycles_to_seconds(
    ebnn_dpu_cycles(MODEL.config)
)

#: (id, fault scenario, every request's deadline, waves shed).
BACKEND_SCENARIOS = [
    ("clean", "clean", None, 0),
    ("raise", "raise", None, 0),
    ("isolate", "isolate", None, 0),
    ("retry", "retry", None, 0),
    ("all-failed", "all-failed", None, 0),
    ("cancel-all", "clean", 0.0, 2),
    # The first wave runs and the second is cancelled.
    ("cancel-second", "clean", 1.5 * WAVE_SECONDS, 1),
    ("isolate-cancel-second", "isolate", 1.5 * WAVE_SECONDS, 1),
    # Every request is late, yet a launch that raises, or that fails
    # every DPU, fails as it would have, rather than being shed.
    ("raise-late", "raise", 0.0, 0),
    ("all-failed-late", "all-failed", 0.0, 0),
]


@pytest.mark.parametrize(
    "scenario,deadline_s,n_shed", [row[1:] for row in BACKEND_SCENARIOS],
    ids=[row[0] for row in BACKEND_SCENARIOS],
)
def test_backend_matches_old_wave(scenario, deadline_s, n_shed, monkeypatch):
    n_requests, n_dpus = 100, 4  # waves of 64 and 36 images

    def observe(backend_cls):
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(n_dpus))
        members = system.allocate(n_dpus)
        backend = backend_cls(MODEL)
        backend.warm(members)
        return backend, *_observe(
            lambda: backend.run_batch(
                members.dpus, system.attributes,
                _requests(n_requests, deadline_s), 0.0, None,
            ),
            lambda: members.dpus,
            scenario, monkeypatch,
        )

    _, got, got_reports, gathers, got_metrics, got_memory = observe(
        EbnnBackend
    )
    old, want, _, _, want_metrics, want_memory = observe(OldBackend)
    assert got_memory == want_memory
    assert got_reports == old.waited
    assert len(gathers) == len(old.waited)
    assert len(old.shed_metrics) == n_shed
    for shed in old.shed_metrics:
        touched = _touched(shed)
        assert "dpu.launches" in touched and touched <= SHED_METRICS
    if isinstance(want, tuple):  # raised in the first wave
        assert got == want
        _check_extras(got_metrics, want_metrics, gathers, 1)
        return
    _check_extras(got_metrics, want_metrics, gathers, 2)
    assert got.outputs == want.outputs
    # The gathers are also the only simulated time the new routine adds.
    assert got.seconds == pytest.approx(
        want.seconds + sum(transfer_seconds(g) for g in gathers),
        rel=0, abs=1e-15,
    )
    for name in ("shed", "failed"):
        ids = [r.request_id for r in getattr(got, name)]
        assert ids == [r.request_id for r in getattr(want, name)], name
    assert got.failed_dpu_ids == want.failed_dpu_ids
    assert len(got.shed) == [0, 36, 100][n_shed]
