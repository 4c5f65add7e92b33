"""A YOLO layer whose columns are tiled across idle DPUs.

:func:`repro.core.mapping_yolo.column_split` tiles a layer's B into the
fewest column slices whose ``ctmp`` accumulator fits WRAM, when the
group has a DPU for every (row of A, slice) pair.
:func:`repro.core.mapping_yolo.run_gemm_layer` then runs the ``M * s``
rows as one launch.  These tests hold that launch to an oracle of real
per-slice launches: each slice's ``M`` DPUs hold their slice of B,
pushed with real bytes, and run the ``yolo_gemm_row`` kernel through
:meth:`DpuSet.launch`.  They compare, with no fault plan and under the
retry, isolate and raise policies, traced and untraced:

* C, bit for bit, and Algorithm 2's C;
* every DPU's memory and ``last_result``;
* every ``GLOBAL_METRICS`` value but the per-launch ones, which count
  one launch where the oracle counts one per slice;
* the clock against the slice's closed form plus the host-link time of
  the bytes moved.
"""

from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest

from repro import faults, telemetry
from repro.core.mapping_yolo import (
    CTMP_WRAM_BUDGET_BYTES,
    YOLO_TASKLETS,
    AccumulatorPolicy,
    LayerFailedError,
    YoloDpuLayout,
    accumulator_divisor,
    column_split,
    gemm_layer_cycles,
    run_gemm_layer,
    yolo_gemm_row_kernel,
)
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.errors import DpuError, DpuFaultError, LaunchError
from repro.faults import FaultPlan
from repro.host.runtime import DpuSet, DpuSystem
from repro.host.transfer import transfer_seconds
from repro.nn.gemm import GemmShape, gemm_fast
from tests.conftest import launch_kernel
from tests.test_yolo_layer_walk import _fresh_metrics

OPT = OptLevel.O3

#: The served model's layer 0.
LAYER0 = GemmShape(m=2, n=4096, k=27)

#: Metrics counted once per launch: the oracle launches once per slice.
PER_LAUNCH = ("dpu.launches", "launch.seconds", "launch.degraded")

#: MRAM bytes per DPU filled with stale contents and compared afterwards.
REGION = 120 * 1024


def split_layer_cycles(model, n_dpus: int) -> list[float]:
    """Closed-form cycles of each layer of ``model`` as
    :func:`run_gemm_layer` runs it on a group of ``n_dpus`` DPUs: the
    waves of its ``M * s`` rows, each at the cost of its slice GEMM."""
    cycles = []
    for plan in model.plans:
        shape = plan.gemm
        splits, tile = column_split(shape, n_dpus)
        waves = -(-shape.m * splits // n_dpus)
        cycles.append(waves * gemm_layer_cycles(tile))
    return cycles


# ---------------------------------------------------------------------- #
# the split rule
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("shape,n_dpus,splits", [
    (LAYER0, 3, 1),                               # 2 * 2 rows > 3 DPUs
    (LAYER0, 4, 2),
    (LAYER0, 64, 2),                              # the fewest, not the most
    (GemmShape(m=2, n=2048, k=27), 64, 1),        # 4N == budget: WRAM
    (GemmShape(m=6, n=256, k=27), 64, 1),
    (GemmShape(m=13, n=64, k=54), 64, 1),
    (GemmShape(m=1, n=2049, k=3), 2, 2),
    (GemmShape(m=2, n=4097, k=27), 6, 3),         # 4 * 2049 > budget
    (GemmShape(m=2, n=4097, k=27), 5, 1),
    (GemmShape(m=65, n=4096, k=27), 64, 1),       # M > the group
    (GemmShape(m=40, n=4096, k=27), 64, 1),       # M * s > the group
])
def test_column_split(shape, n_dpus, splits):
    got, tile = column_split(shape, n_dpus)
    assert got == splits
    assert tile == GemmShape(m=shape.m, n=-(-shape.n // splits), k=shape.k)
    if splits > 1:  # the fewest slices whose accumulator fits WRAM
        fits = [4 * -(-shape.n // s) <= CTMP_WRAM_BUDGET_BYTES
                for s in (splits - 1, splits)]
        assert fits == [False, True]


def test_accumulator_policy_at_the_budget():
    """``4N == budget`` fits WRAM; layer 0's slice lands exactly there."""
    _, tile = column_split(LAYER0, 4)
    assert 4 * tile.n == CTMP_WRAM_BUDGET_BYTES
    assert AccumulatorPolicy.for_shape(tile) is AccumulatorPolicy.WRAM
    assert AccumulatorPolicy.for_shape(
        GemmShape(m=2, n=tile.n + 1, k=27)
    ) is AccumulatorPolicy.MRAM
    assert AccumulatorPolicy.for_shape(LAYER0) is AccumulatorPolicy.MRAM


# ---------------------------------------------------------------------- #
# the split layer against per-slice launches
# ---------------------------------------------------------------------- #


def _per_slice_layer(
    dpus, attributes, plan, a_q, b_q, divisor, alpha, *, fault_policy=None,
):
    """The split layer as ``s`` real launches: B's slices and A's rows
    pushed with real bytes, each slice's ``M`` DPUs launched through
    :meth:`DpuSet.launch`, and C gathered."""
    shape = plan.gemm
    splits, tile = column_split(shape, len(dpus))
    assert splits > 1
    width = tile.n
    layout = YoloDpuLayout(tile)
    staged = DpuSet(list(dpus[: shape.m * splits]), attributes)
    staged.load(layout.build_image(f"yolo_layer_{plan.layer_index}"))
    b_pad = np.zeros((shape.k, splits * width), np.int16)
    b_pad[:, : shape.n] = b_q
    staged.scatter("b", [
        b_pad[:, j * width : (j + 1) * width]
        for j in range(splits) for _ in range(shape.m)
    ])
    meta = [shape.m, width, shape.k, alpha, divisor, 0]
    staged.broadcast("meta", np.array(meta, dtype=np.int32))
    staged.scatter("a_row", list(a_q) * splits)
    reports, failed = [], set()
    for j in range(splits):
        view = DpuSet(staged.dpus[j * shape.m : (j + 1) * shape.m], attributes)
        view.image = staged.image
        try:
            report = launch_kernel(
                view, yolo_gemm_row_kernel,
                n_tasklets=YOLO_TASKLETS, opt_level=OPT,
                fault_policy=fault_policy, layout=layout,
            )
        except LaunchError:  # every DPU of the slice failed
            failed.update(d.dpu_id for d in view)
            continue
        reports.append(report)
        failed.update(o.dpu_id for o in report.failed)
    if failed:
        raise LayerFailedError(failed)
    raw = b"".join(staged.gather("c_row", layout.c_row_bytes))
    c = np.frombuffer(raw, np.int32).reshape(splits, shape.m, -1)[:, :, :width]
    return c.transpose(1, 0, 2).reshape(shape.m, -1)[:, : shape.n], reports


def _operands(shape, *, seed=5, alpha=1):
    rng = np.random.default_rng(seed)
    a_q = rng.integers(-127, 128, size=(shape.m, shape.k)).astype(np.int16)
    b_q = rng.integers(-127, 128, size=(shape.k, shape.n)).astype(np.int16)
    plan = SimpleNamespace(gemm=shape, layer_index=0)
    return plan, a_q, b_q, accumulator_divisor(a_q, b_q, alpha)


def _observe(layer_fn, shape, n_dpus, make_plan, *, policy, traced=False):
    """Run one layer on a fresh group of DPUs holding stale contents;
    returns everything to compare."""
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(max(n_dpus, 8)))
    dpus = system.allocate(n_dpus).dpus
    rng = np.random.default_rng(11)
    for dpu in dpus:
        dpu.mram.write(0, rng.integers(0, 256, REGION, np.uint8).tobytes())
        dpu.last_result = "stale"
    plan, a_q, b_q, divisor = _operands(shape)
    tracing = telemetry.tracing() if traced else nullcontext()
    with _fresh_metrics() as registry, \
            faults.fault_injection(make_plan(dpus)), tracing:
        try:
            outcome = layer_fn(
                dpus, system.attributes, plan, a_q, b_q, divisor, 1,
                fault_policy=policy,
            )
        except (DpuError, LaunchError) as exc:
            outcome = exc
    if isinstance(outcome, tuple):
        c, reports = outcome
        result = ("ok", c.dtype, c.shape, c.tobytes())
        assert np.array_equal(c, gemm_fast(1, a_q, b_q, divisor=divisor))
    else:
        reports = []
        result = (
            type(outcome), str(outcome),
            getattr(outcome, "failed_dpu_ids", None),
        )
    return {
        "result": result,
        "reports": reports,
        "metrics": registry["metrics"],
        "clock": system.clock.now,
        "memory": [dpu.mram.read(0, REGION) for dpu in dpus],
        "last_results": [dpu.last_result for dpu in dpus],
    }


def _targeted(policy, index):
    """Fail DPU ``index`` of the group: its first attempt under retry,
    always otherwise; no plan when ``policy`` is None."""

    def make(dpus):
        if policy is None:
            return None
        return FaultPlan(
            seed=6,
            targets={dpus[index].dpu_id: "fault"},
            target_attempts=1 if policy == "retry" else 10,
            default_policy=policy,
        )

    return make


def _moved(metrics) -> int:
    children = metrics["transfer.bytes"].get("children", {})
    return sum(child["state"] for child in children.values())


def _compare(shape, n_dpus, make_plan, policy):
    """The split layer, untraced and traced, against the oracle."""
    got = _observe(run_gemm_layer, shape, n_dpus, make_plan, policy=policy)
    traced = _observe(
        run_gemm_layer, shape, n_dpus, make_plan, policy=policy, traced=True
    )
    want = _observe(_per_slice_layer, shape, n_dpus, make_plan, policy=policy)
    for key in ("result", "metrics", "clock", "memory", "last_results"):
        assert got[key] == traced[key], key
    assert [vars(r) for r in got["reports"]] == [
        vars(r) for r in traced["reports"]
    ]
    for key in ("result", "memory", "last_results"):
        assert got[key] == want[key], key
    for name in got["metrics"]:
        if name not in PER_LAUNCH:
            assert got["metrics"][name] == want["metrics"][name], name
    # One launch of every slice's DPUs, where the oracle has one per slice.
    launches = got["metrics"]["dpu.launches"]["state"]
    assert launches <= 1
    if got["reports"]:
        assert launches == 1
        (report,) = got["reports"]
        assert report.per_dpu_cycles == [
            c for r in want["reports"] for c in r.per_dpu_cycles
        ]
        assert report.n_retried == sum(r.n_retried for r in want["reports"])
    # The clock: the slice's closed form, once per launch, plus transfers.
    _, tile = column_split(shape, n_dpus)
    launch_s = UPMEM_ATTRIBUTES.cycles_to_seconds(gemm_layer_cycles(tile))
    assert got["clock"] == pytest.approx(
        launches * launch_s + transfer_seconds(_moved(got["metrics"])),
        rel=0, abs=1e-12,
    )
    return got


#: (layer shape, DPUs in the group): the served layer 0 on exactly its
#: four DPUs, and a width that leaves the last slice one column short
#: on a group with two DPUs to spare.
CASES = [(LAYER0, 4), (GemmShape(m=2, n=4097, k=27), 8)]


@pytest.mark.parametrize("shape,n_dpus", CASES)
@pytest.mark.parametrize("policy,index,expected", [
    (None, 0, "ok"),
    ("retry", 3, "ok"),
    ("isolate", 3, LayerFailedError),
    ("raise", 3, DpuFaultError),
    ("raise", 0, DpuFaultError),
])
def test_split_layer_matches_per_slice_launches(
    shape, n_dpus, policy, index, expected
):
    got = _compare(shape, n_dpus, _targeted(policy, index), policy)
    assert got["result"][0] is expected or got["result"][0] == expected
    if policy == "isolate":
        assert got["result"][2] == {index}
    if expected == "ok":
        # DPUs past the slices' M * s stay as they were.
        staged = shape.m * column_split(shape, n_dpus)[0]
        assert got["last_results"][staged:] == ["stale"] * (n_dpus - staged)
        assert got["metrics"]["dpu.execs"]["state"] == staged


@pytest.mark.parametrize("shape,n_dpus", CASES)
def test_split_layer_matches_under_the_installed_plan(shape, n_dpus):
    """Under whatever plan ``REPRO_FAULT_*`` installed, or none."""
    installed = faults.current_plan()
    _compare(shape, n_dpus, lambda dpus: installed, None)


def test_split_layer_transfers():
    """B's slices are pushed, not broadcast: the layer moves M * |B|
    bytes of B, as Algorithm 2 does, and each A row goes to s DPUs."""
    plan, a_q, b_q, divisor = _operands(LAYER0)
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(64))
    dpus = system.allocate(64).dpus
    with telemetry.tracing() as tracer, faults.fault_injection(None):
        c, reports = run_gemm_layer(
            dpus, system.attributes, plan, a_q, b_q, divisor, 1
        )
    assert [r.n_dpus for r in reports] == [4]
    spans = tracer.find("transfer.push") + tracer.find("transfer.broadcast")
    kinds = [
        (s.name, s.attributes["direction"], s.attributes["bytes"])
        for s in spans
    ]
    assert sorted(kinds) == sorted([
        ("transfer.push", "to_dpu", LAYER0.m * 2 * LAYER0.k * LAYER0.n),
        ("transfer.push", "to_dpu", 4 * 56),          # A rows, 54 -> 56 B
        ("transfer.push", "from_dpu", 4 * 4 * 2048),  # C slices
        ("transfer.broadcast", "to_dpu", 4 * 24),     # metadata, N = w
    ])
    assert np.array_equal(c, gemm_fast(1, a_q, b_q, divisor=divisor))
