"""Differential tests of the shared YOLO layer routine.

:func:`repro.core.mapping_yolo.run_gemm_layer` stages a layer's image, B
and metadata once and keeps B resident across the layer's waves.  These
tests hold it to the per-wave procedure it replaced, kept here as the
oracle: stage, scatter, launch and gather on every wave.  Group sizes 1,
3, 8 and 64 each run a short last wave where the group allows one, with
no fault plan and under the retry, isolate and raise policies.  Both
callers, the offline :class:`YoloPimRunner` and the serving
:class:`YoloBackend`, are then checked end to end.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import faults, telemetry
from repro.core.mapping_yolo import (
    YOLO_TASKLETS,
    AccumulatorPolicy,
    LayerFailedError,
    YoloDpuLayout,
    YoloLayerTiming,
    YoloPimRunner,
    accumulator_divisor,
    column_split,
    run_gemm_layer,
    weight_bound,
    yolo_gemm_row_kernel,
)
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.errors import DpuFaultError, LaunchError
from repro.faults import FaultPlan
from repro.host.runtime import DpuSet, DpuSystem
from repro.host.transfer import scatter_rows, transfer_seconds
from repro.nn.gemm import GemmShape
from repro.nn.im2col import im2col
from repro.nn.models.darknet import Yolov3Model
from repro.nn.quantize import QuantParams
from repro.serve import InferenceRequest, YoloBackend, default_payloads
from tests.conftest import launch_kernel

OPT = OptLevel.O3

#: Layer cycles of :func:`_model` on 16 DPUs, as the per-DPU-launch
#: runner reported them, layer 0 (M, N, K) = (2, 4096, 27) tiled into
#: two column slices whose accumulators fit WRAM.
PINNED_TOTAL_CYCLES = 3625644.0
PINNED_MAX_CYCLES = 722359.0

#: Layer 0's cycles untiled (Algorithm 2, accumulator in MRAM), as on a
#: group of 3 DPUs, too few for two slices of 2 rows.
PINNED_ALGORITHM2_LAYER0_CYCLES = 12058786.0

#: (DPUs in the group, rows of A): every group but the single DPU ends
#: in a short wave.
GROUPS = [(1, 3), (3, 8), (8, 20), (64, 150)]

#: Fault policies under test; ``None`` is a layer with no fault plan.
POLICIES = [None, "retry", "isolate", "raise"]


def _per_wave_oracle(
    dpus, attributes, plan, a_q, b_q, divisor, alpha, *, fault_policy=None
):
    """The layer as the serving backend ran it before staging once."""
    shape = plan.gemm
    layout = YoloDpuLayout(shape)
    image = layout.build_image(f"yolo_layer_{plan.layer_index}")
    n_dpus = min(shape.m, len(dpus))
    b_flat = np.ascontiguousarray(b_q.reshape(-1), dtype=np.int16)
    meta = np.array(
        [shape.m, shape.n, shape.k, alpha, divisor, 0], dtype=np.int32
    )
    c_rows = np.zeros((shape.m, shape.n), dtype=np.int32)
    reports = []
    for start in range(0, shape.m, n_dpus):
        rows = list(range(start, min(start + n_dpus, shape.m)))
        view = DpuSet(list(dpus[: len(rows)]), attributes)
        view.load(image)
        view.broadcast("b", b_flat)
        view.broadcast("meta", meta)
        view.scatter(
            "a_row",
            [np.ascontiguousarray(a_q[r], dtype=np.int16) for r in rows],
        )
        try:
            report = launch_kernel(
                view, yolo_gemm_row_kernel,
                n_tasklets=YOLO_TASKLETS, opt_level=OPT,
                fault_policy=fault_policy, layout=layout,
            )
        except LaunchError:
            raise LayerFailedError({d.dpu_id for d in view}) from None
        reports.append(report)
        if report.degraded:
            raise LayerFailedError(
                {o.dpu_id for o in report.outcomes if not o.ok}
            )
        for dpu, row_index in zip(view, rows):
            c_rows[row_index] = dpu.read_symbol_array(
                "c_row", np.int32, shape.n
            )
    return c_rows, reports


def _plan(policy, bad_dpu_id):
    """Fail ``bad_dpu_id``: its first attempt under retry, always otherwise."""
    if policy is None:
        return None
    return FaultPlan(
        seed=0,
        targets={bad_dpu_id: "fault"},
        target_attempts=1 if policy == "retry" else 10,
        default_policy=policy,
    )


def _operands(m, *, n=24, k=40, seed=5, alpha=1):
    rng = np.random.default_rng(seed)
    a_q = rng.integers(-127, 128, size=(m, k)).astype(np.int16)
    b_q = rng.integers(-127, 128, size=(k, n)).astype(np.int16)
    plan = SimpleNamespace(gemm=GemmShape(m=m, n=n, k=k), layer_index=7)
    return plan, a_q, b_q, accumulator_divisor(a_q, b_q, alpha)


def _run(layer_fn, n_dpus, m, policy):
    """Run one layer on a fresh group; returns everything to compare."""
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(max(n_dpus, 8)))
    dpus = system.allocate(n_dpus).dpus
    plan, a_q, b_q, divisor = _operands(m)
    fault_plan = _plan(policy, dpus[len(dpus) // 2].dpu_id)
    before = telemetry.GLOBAL_METRICS.snapshot()
    with faults.fault_injection(fault_plan):
        try:
            outcome = layer_fn(
                dpus, system.attributes, plan, a_q, b_q, divisor, 1,
                fault_policy=policy,
            )
        except (DpuFaultError, LayerFailedError) as exc:
            outcome = exc
    delta = telemetry.GLOBAL_METRICS.delta_since(before)
    counters = {
        "dpu.launches": delta["dpu.launches"]["state"],
        "launch.degraded": delta["launch.degraded"]["state"],
        "dpu.execs": delta["dpu.execs"]["state"],
        "launch.cycles": delta["launch.cycles"]["state"],
        "launch.retries": delta["launch.retries"]["state"],
        "dpu.faults": {
            kind: child["state"]
            for kind, child in delta["dpu.faults"].get("children", {}).items()
        },
    }
    memory = [
        {
            name: dpu.read_symbol(name, dpu.symbol(name).size)
            for name in ("a_row", "b", "c_row", "meta")
        }
        for dpu in dpus
    ]
    return outcome, counters, [d.last_result for d in dpus], memory


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n_dpus,m", GROUPS)
def test_layer_matches_per_wave_oracle(n_dpus, m, policy):
    got, got_counters, got_results, got_memory = _run(
        run_gemm_layer, n_dpus, m, policy
    )
    want, want_counters, want_results, want_memory = _run(
        _per_wave_oracle, n_dpus, m, policy
    )
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]  # every wave's cycles, outcomes, attempts
        assert [r.cycles for r in got[1]] == [r.cycles for r in want[1]]
        assert len(got[1]) == -(-m // n_dpus)
    elif isinstance(want, LayerFailedError):
        # The launches that ran before the loss show in the counters.
        assert got.failed_dpu_ids == want.failed_dpu_ids
    else:
        assert str(got) == str(want)
    assert got_results == want_results
    assert got_counters == want_counters
    assert got_memory == want_memory


@pytest.mark.parametrize("n_dpus,m", GROUPS)
def test_policies_reach_the_layer(n_dpus, m):
    """Each policy does what it promises inside the layer routine."""
    runs = {p: _run(run_gemm_layer, n_dpus, m, p) for p in POLICIES}
    outcomes = {p: run[0] for p, run in runs.items()}
    rows, reports = outcomes[None]
    assert all(r.outcomes == [] for r in reports)
    retried_rows, retried = outcomes["retry"]
    assert np.array_equal(retried_rows, rows)
    assert sum(r.n_retried for r in retried) >= 1
    assert isinstance(outcomes["raise"], DpuFaultError)
    isolated = outcomes["isolate"]
    assert isinstance(isolated, LayerFailedError)
    assert len(isolated.failed_dpu_ids) == 1
    # A single DPU failing leaves no launch; otherwise the degraded wave
    # is the last launch.
    counters = runs["isolate"][1]
    if n_dpus == 1:
        assert counters["dpu.launches"] == 0
    else:
        assert counters["launch.degraded"] == 1


def test_tail_wave_reuses_the_staged_image():
    """B, meta and the image are staged once; per wave A moves in, C out."""
    plan, a_q, b_q, divisor = _operands(20)
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(8))
    dpus = system.allocate(8).dpus
    with telemetry.tracing() as tracer, faults.fault_injection(None):
        rows, reports = run_gemm_layer(
            dpus, system.attributes, plan, a_q, b_q, divisor, 1
        )
    assert [r.n_dpus for r in reports] == [8, 8, 4]
    assert len(tracer.find("host.load")) == 1
    assert len(tracer.find("transfer.broadcast")) == 2
    pushes = [s.attributes["direction"] for s in tracer.find("transfer.push")]
    assert pushes == ["to_dpu", "from_dpu"] * 3
    assert len(tracer.find("dpu.launch")) == 3
    assert len({id(d.image) for d in dpus}) == 1


# ---------------------------------------------------------------------- #
# the two callers
# ---------------------------------------------------------------------- #


def _model():
    return Yolov3Model(64, width_scale=0.05, seed=21)


def _image():
    return np.random.default_rng(4).random((3, 64, 64)).astype(np.float32)


def _parent_runner_layer(system, timings, alpha=1):
    """The offline runner's layer before the shared routine.

    One allocation per layer, B staged once, and one one-DPU
    :func:`yolo_gemm_row_kernel` call per row of work: a row of A against the
    layer's :func:`column_split` slice of B, each DPU pushed its slice
    (Algorithm 2's one row per DPU and broadcast B when the system has
    no DPUs to spare).  It lowers the float input first and quantizes
    the im2col matrix, the order :func:`lower_layer_input` replaced, so
    it is the bit-identity oracle for that too.
    """

    def conv(plan, a, x):
        shape = plan.gemm
        b = im2col(x, plan.geometry)
        a_params = QuantParams.from_tensor(a, bits=8)
        b_params = QuantParams.from_tensor(b, bits=8)
        a_q = a_params.quantize(a).astype(np.int16)
        b_q = b_params.quantize(b).astype(np.int16)
        divisor = accumulator_divisor(a_q, b_q, alpha)
        splits, tile = column_split(shape, system.n_dpus)
        width = tile.n
        b_pad = np.zeros((shape.k, splits * width), np.int16)
        b_pad[:, : shape.n] = b_q
        # (A row, slice of B) of each row of work, slice by slice.
        work = [(r, j) for j in range(splits) for r in range(shape.m)]
        n_dpus = min(len(work), system.n_dpus)
        layout = YoloDpuLayout(tile)
        dpu_set = system.allocate(n_dpus)
        try:
            dpu_set.load(layout.build_image())
            if splits == 1:
                dpu_set.broadcast("b", b_q.reshape(-1))
            else:  # one wave: DPU i holds row i's slice
                scatter_rows(dpu_set.dpus, "b", [
                    b_pad[:, j * width : (j + 1) * width] for _, j in work
                ])
            dpu_set.broadcast(
                "meta",
                np.array(
                    [shape.m, width, shape.k, alpha, divisor, 0],
                    dtype=np.int32,
                ),
            )
            c_pad = np.zeros((shape.m, splits * width), dtype=np.int32)
            cycles = 0.0
            for start in range(0, len(work), n_dpus):
                rows = work[start : start + n_dpus]
                wave = [dpu_set[i] for i in range(len(rows))]
                scatter_rows(wave, "a_row", [a_q[r] for r, _ in rows])
                wave_cycles = 0.0
                for dpu in wave:
                    (result,) = yolo_gemm_row_kernel(
                        [dpu], n_tasklets=YOLO_TASKLETS, opt_level=OPT,
                        layout=layout,
                    )
                    wave_cycles = max(wave_cycles, float(result.cycles))
                cycles += wave_cycles
                for dpu, (r, j) in zip(wave, rows):
                    c_pad[r, j * width : (j + 1) * width] = (
                        dpu.read_symbol_array("c_row", np.int32, width)
                    )
            timings.append(
                YoloLayerTiming(
                    layer_index=plan.layer_index,
                    shape=shape,
                    n_dpus=n_dpus,
                    cycles=cycles,
                    seconds=system.attributes.cycles_to_seconds(cycles),
                    policy=AccumulatorPolicy.for_shape(tile),
                )
            )
        finally:
            system.free(dpu_set)
        scale = a_params.scale * b_params.scale * divisor / alpha
        return c_pad[:, : shape.n].astype(np.float32) * np.float32(scale)

    return conv


@pytest.mark.parametrize("n_dpus", [16, 4, 3])
def test_runner_unchanged_from_per_dpu_launches(n_dpus):
    """Outputs and per-layer cycles equal the per-DPU-launch runner's;
    on 3 DPUs, too few to tile layer 0, that runner is Algorithm 2."""
    want_timings = []
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(n_dpus))
    with faults.fault_injection(None):
        want = _model().forward(
            _image(), conv_fn=_parent_runner_layer(system, want_timings)
        )
        runner = YoloPimRunner(DpuSystem(UPMEM_ATTRIBUTES.scaled(n_dpus)), _model())
        got = runner.run(_image())
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert runner.layer_reports == want_timings
    assert len(runner.layer_reports) == 75


def test_runner_layer_cycles_pinned():
    """The per-layer cycles of the tests' reduced network, as committed."""
    runner = YoloPimRunner(DpuSystem(UPMEM_ATTRIBUTES.scaled(16)), _model())
    untiled = YoloPimRunner(DpuSystem(UPMEM_ATTRIBUTES.scaled(3)), _model())
    with faults.fault_injection(None):
        runner.run(_image())
        untiled.run(_image())
    cycles = [t.cycles for t in runner.layer_reports]
    assert len(cycles) == 75
    assert sum(cycles) == pytest.approx(PINNED_TOTAL_CYCLES, rel=0, abs=1e-6)
    assert max(cycles) == pytest.approx(PINNED_MAX_CYCLES, rel=0, abs=1e-6)
    assert untiled.layer_reports[0].cycles == pytest.approx(
        PINNED_ALGORITHM2_LAYER0_CYCLES, rel=0, abs=1e-6
    )


def test_runner_raises_on_a_degraded_layer():
    """A lost DPU aborts the offline run instead of returning zero rows."""
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(16))
    plan = FaultPlan(
        targets={3: "fault"}, target_attempts=10, default_policy="isolate"
    )
    runner = YoloPimRunner(system, _model())
    with faults.fault_injection(plan), pytest.raises(LayerFailedError) as info:
        runner.run(_image())
    assert info.value.failed_dpu_ids == {3}
    assert system.n_free == system.n_dpus  # the layer's set was freed


def test_runner_launches_through_the_set():
    """The offline runner gets launch spans, metrics and one cost per launch."""
    runner = YoloPimRunner(DpuSystem(UPMEM_ATTRIBUTES.scaled(16)), _model())
    before = telemetry.GLOBAL_METRICS.snapshot()
    with telemetry.tracing() as tracer, faults.fault_injection(None):
        runner.run(_image())
    delta = telemetry.GLOBAL_METRICS.delta_since(before)
    launches = tracer.find("dpu.launch")
    assert len(launches) == delta["dpu.launches"]["state"]
    assert len(launches) == sum(
        -(-t.shape.m // t.n_dpus) for t in runner.layer_reports
    )
    assert len(tracer.find("host.load")) == 75


def test_backend_equals_runner(transfers):
    """Serving and the offline runner compute the same detections, in
    the same simulated time: the layers' DPU time plus their transfers."""
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(24))
    backend = YoloBackend(_model())
    dpu_set = system.allocate(8)
    backend.warm(dpu_set)
    request = InferenceRequest(request_id=1, model="yolo", payload=_image())
    with faults.fault_injection(None):
        execution = backend.run_batch(
            dpu_set.dpus, system.attributes, [request], 0.0, None
        )
        moved = transfers()
        # The same group size, so the same waves.
        runner = YoloPimRunner(DpuSystem(UPMEM_ATTRIBUTES.scaled(8)), _model())
        offline = runner.run(_image())
    served = execution.outputs[1]
    assert len(served) == len(offline) == 3
    for s, o in zip(served, offline):
        assert s.dtype == o.dtype and np.array_equal(s, o)
    assert execution.seconds == runner.system.clock.now
    assert execution.seconds == pytest.approx(
        runner.timing().total_seconds
        + transfer_seconds(moved["to_dpu"] + moved["from_dpu"]),
        rel=1e-12,
    )


def test_warm_bound_keeps_every_served_divisor():
    """The weights-only bound the backend hoists into ``warm`` gives every
    layer of the served model, on a served payload, the divisor
    :func:`accumulator_divisor` computes from scratch."""
    backend = YoloBackend()
    backend.warm(DpuSystem(UPMEM_ATTRIBUTES.scaled(8)).allocate(8))
    divisors = []

    def check(plan, a, x):
        a_q, _, a_bound = backend._weights[plan.layer_index]
        b = im2col(x, plan.geometry)
        b_q = QuantParams.from_tensor(b, bits=8).quantize(b).astype(np.int16)
        assert a_bound == weight_bound(a_q)
        for alpha in (backend.alpha, -9, 250):  # the last two widen it
            divisor = accumulator_divisor(a_q, b_q, alpha)
            assert accumulator_divisor(
                a_q, b_q, alpha, a_bound=a_bound
            ) == divisor
            divisors.append(divisor)
        return a @ b

    payload = default_payloads(ebnn_pool=1, yolo_pool=1, seed=3)["yolo"](0)
    backend.model.forward(np.asarray(payload, np.float32), conv_fn=check)
    assert len(divisors) == 3 * len(backend.model.plans) == 3 * 75
    assert max(divisors) > 32
