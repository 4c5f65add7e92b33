"""The YOLO layer walk against the per-wave loop it replaced.

:func:`repro.core.mapping_yolo.run_gemm_layer` decides a layer's launch
once, charges every wave from that decision and executes the layer once:
its transfers are accounted without moving bytes, one GEMM runs over
every row, and each DPU's layer image (``a_row | b | c_row | meta``) is
written with one MRAM write.  These tests keep the per-wave loop it
replaced (stage once, then scatter, launch and gather on every wave) as
the oracle and hold the walk to it bit for bit, over group sizes 1, 3,
8 and 64, no fault plan and the retry, isolate and raise policies,
traced and untraced, over waves that replay several fault events each,
and over an image that spans four MRAM pages:

* C and every wave's report, or the raised error and its DPU ids;
* every ``GLOBAL_METRICS`` value (launches, transfers, faults, ...) and
  the system's simulated clock;
* every staged DPU's memory and ``last_result``, starting from stale
  contents an earlier layer could have left;
* when traced, every span (name, category, track, attributes, simulated
  start and end, nesting) and the tracer's timeline.
"""

import functools
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import numpy as np
import pytest

from repro import faults, telemetry
from repro.core.mapping_yolo import (
    YOLO_TASKLETS,
    LayerFailedError,
    YoloDpuLayout,
    accumulator_divisor,
    run_gemm_layer,
    yolo_gemm_row_kernel,
)
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.errors import (
    DpuError,
    DpuFaultError,
    DpuHangError,
    LaunchError,
    MappingError,
)
from repro.faults import FaultPlan
from repro.host.runtime import DpuSet, DpuSystem
from repro.nn.gemm import GemmShape
from tests.conftest import launch_kernel

#: (DPUs in the group, rows of A): every group but the single DPU ends
#: in a short wave.
GROUPS = [(1, 3), (3, 8), (8, 20), (64, 150)]

#: Fault policies under test; ``None`` is a layer with no fault plan.
POLICIES = [None, "retry", "isolate", "raise"]

#: MRAM bytes per DPU filled with stale contents and compared afterwards.
REGION = 16 * 1024


def _per_wave_layer(
    dpus, attributes, plan, a_q, b_q, divisor, alpha, *,
    n_tasklets=YOLO_TASKLETS, opt_level=OptLevel.O3, fault_policy=None,
):
    """The layer routine before the walk: every wave scattered, launched
    through :meth:`DpuSet.launch` and gathered in turn."""
    shape = plan.gemm
    layout = YoloDpuLayout(shape)
    staged = DpuSet(list(dpus[: min(shape.m, len(dpus))]), attributes)
    staged.load(layout.build_image(f"yolo_layer_{plan.layer_index}"))
    staged.broadcast("b", b_q.reshape(-1))
    meta = [shape.m, shape.n, shape.k, alpha, divisor, 0]
    staged.broadcast("meta", np.array(meta, dtype=np.int32))
    c_rows = np.zeros((shape.m, shape.n), dtype=np.int32)
    reports = []
    for start in range(0, shape.m, len(staged)):
        stop = min(start + len(staged), shape.m)
        count = stop - start
        if count == len(staged):
            wave = staged
        else:
            # Loaded through ``staged`` already: a reload would count a
            # load the walk does not make.
            wave = DpuSet(list(staged.dpus[:count]), attributes)
            wave.image = staged.image
        wave.scatter("a_row", list(a_q[start:stop]))
        try:
            report = launch_kernel(
                wave, yolo_gemm_row_kernel,
                n_tasklets=n_tasklets,
                opt_level=opt_level,
                fault_policy=fault_policy,
                layout=layout,
            )
        except LaunchError:
            raise LayerFailedError({d.dpu_id for d in wave}) from None
        reports.append(report)
        if report.degraded:
            raise LayerFailedError({o.dpu_id for o in report.failed})
        raw = b"".join(wave.gather("c_row", layout.c_row_bytes))
        c = np.frombuffer(raw, np.int32).reshape(count, -1)
        c_rows[start:stop] = c[:, : shape.n]
    return c_rows, reports


@contextmanager
def _fresh_metrics():
    """Run on a zeroed ``GLOBAL_METRICS`` (float sums then start alike);
    yields a dict that receives the final snapshot, and restores the
    registry afterwards."""
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


def _spans(tracer):
    rows = []

    def walk(span, depth):
        rows.append((
            depth, span.name, span.category, span.track,
            dict(span.attributes), span.sim_start, span.sim_end,
        ))
        for child in span.children:
            walk(child, depth + 1)

    for root in tracer.roots:
        walk(root, 0)
    return rows


def _operands(m, *, n=24, k=40, seed=5, alpha=1):
    rng = np.random.default_rng(seed)
    a_q = rng.integers(-127, 128, size=(m, k)).astype(np.int16)
    b_q = rng.integers(-127, 128, size=(k, n)).astype(np.int16)
    plan = SimpleNamespace(gemm=GemmShape(m=m, n=n, k=k), layer_index=7)
    return plan, a_q, b_q, accumulator_divisor(a_q, b_q, alpha)


def _observe(
    layer_fn, n_dpus, m, make_plan, *, traced, fault_policy, first_id,
    n=24, k=40, region=REGION,
):
    """Run one layer on a fresh group of DPUs ``first_id`` onwards;
    returns everything to compare, memory up to byte ``region``."""
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(max(first_id + n_dpus, 8)))
    if first_id:
        system.allocate(first_id)
    dpus = system.allocate(n_dpus).dpus
    rng = np.random.default_rng(11)
    for dpu in dpus:
        # What an earlier layer could have left behind.
        dpu.mram.write(0, rng.integers(0, 256, region, np.uint8).tobytes())
        dpu.last_result = "stale"
    plan, a_q, b_q, divisor = _operands(m, n=n, k=k)
    fault_plan = make_plan(dpus)
    tracing = telemetry.tracing() if traced else nullcontext()
    with _fresh_metrics() as registry, faults.fault_injection(fault_plan), \
            tracing as tracer:
        try:
            outcome = layer_fn(
                dpus, system.attributes, plan, a_q, b_q, divisor, 1,
                fault_policy=fault_policy,
            )
        except (DpuError, LaunchError, MappingError) as exc:
            outcome = exc
    if isinstance(outcome, tuple):
        c_rows, reports = outcome
        result = ("ok", c_rows.dtype, c_rows.tobytes())
    else:
        reports = []
        result = (
            type(outcome), str(outcome),
            getattr(outcome, "failed_dpu_ids", None),
        )
    return {
        "result": result,
        "reports": [vars(r) for r in reports],
        "metrics": registry["metrics"],
        "clock": system.clock.now,
        "memory": [dpu.mram.read(0, region) for dpu in dpus],
        "last_results": [dpu.last_result for dpu in dpus],
        "spans": _spans(tracer) if traced else None,
        "sim_now": tracer.sim_now if traced else None,
    }


def _compare(
    n_dpus, m, make_plan, *, traced=False, fault_policy=None, first_id=0,
    **operands,
):
    got = _observe(
        run_gemm_layer, n_dpus, m, make_plan,
        traced=traced, fault_policy=fault_policy, first_id=first_id,
        **operands,
    )
    want = _observe(
        _per_wave_layer, n_dpus, m, make_plan,
        traced=traced, fault_policy=fault_policy, first_id=first_id,
        **operands,
    )
    for key in want:
        assert got[key] == want[key], key
    return got


def _matrix_plan(policy, kind="fault"):
    """Fail the group's middle DPU (its first attempt under retry,
    always otherwise); no plan when ``policy`` is None."""

    def make(dpus):
        if policy is None:
            return None
        bad = dpus[len(dpus) // 2].dpu_id
        return FaultPlan(
            seed=6,
            targets={bad: kind},
            target_attempts=1 if policy == "retry" else 10,
            default_policy=policy,
        )

    return make


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n_dpus,m", GROUPS)
def test_walk_matches_per_wave_layer(n_dpus, m, policy, traced):
    got = _compare(
        n_dpus, m, _matrix_plan(policy), traced=traced, fault_policy=policy,
    )
    expected = {
        None: "ok", "retry": "ok",
        "isolate": LayerFailedError, "raise": DpuFaultError,
    }[policy]
    assert got["result"][0] is expected or got["result"][0] == expected


def _replay_plan(policy):
    """Two targeted DPUs, one faulting and one hanging on their first
    two attempts, over a 3% fault rate that under seed 1 also fails
    DPUs 2-4 once."""

    def make(dpus):
        return FaultPlan(
            seed=1, fault_rate=0.03,
            targets={dpus[1].dpu_id: "fault", dpus[6].dpu_id: "hang"},
            target_attempts=2, default_policy=policy,
        )

    return make


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("policy", ["retry", "isolate"])
def test_replayed_multi_event_waves_match(policy, traced):
    """Four full waves and a short one of 3 rows: DPU 1 is in the short
    wave's prefix and DPU 6 is not, so every wave replays its own DPUs'
    fault events, in order and kind."""
    got = _compare(8, 35, _replay_plan(policy), traced=traced,
                   fault_policy=policy)
    retried = [report["n_retried"] for report in got["reports"]]
    if policy == "retry":
        assert got["result"][0] == "ok"
        assert retried == [2 + 2 + 3] * 4 + [2 + 1]
    else:
        assert got["result"][0] is LayerFailedError
        assert got["result"][2] == {1, 2, 3, 4, 6}
        # The first wave ran degraded, and no DPU was retried.
        metrics = got["metrics"]
        assert metrics["dpu.launches"]["state"] == 1
        assert metrics["launch.degraded"]["state"] == 1
        assert metrics["launch.retries"]["state"] == 0


@pytest.mark.parametrize("policy", ["retry", "isolate", "raise"])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_hung_dpu_matches_per_wave_layer(policy, traced):
    got = _compare(
        8, 20, _matrix_plan(policy, kind="hang"),
        traced=traced, fault_policy=policy,
    )
    expected = {
        "retry": "ok", "isolate": LayerFailedError,
        "raise": DpuHangError,
    }[policy]
    assert got["result"][0] is expected or got["result"][0] == expected


def test_all_failed_wave_matches_per_wave_layer():
    """A single-DPU group whose DPU always fails: no report, no launch."""
    got = _compare(1, 3, _matrix_plan("isolate"), fault_policy="isolate")
    assert got["result"][0] is LayerFailedError
    assert got["metrics"]["dpu.launches"]["state"] == 0


def test_env_style_rate_plan_matches_per_wave_layer():
    """Rate-drawn faults and hangs, as an environment plan injects them."""

    def make(dpus):
        return FaultPlan(
            seed=7, fault_rate=0.2, hang_rate=0.05, default_policy="retry",
        )

    _compare(8, 150, make)


@pytest.mark.parametrize("first_id", [0, 168])
@pytest.mark.parametrize("n_dpus,m", GROUPS)
def test_walk_matches_under_the_installed_plan(n_dpus, m, first_id):
    """Under whatever plan ``REPRO_FAULT_*`` installed, or none.  Rate
    faults are drawn per DPU id, so the groups also sit at ids 168
    onwards, where the smoke seeds 0 and 7 fail some DPUs."""
    installed = faults.current_plan()
    _compare(n_dpus, m, lambda dpus: installed, first_id=first_id)


def test_walk_counts_every_row_as_a_launch_of_its_own():
    """Shared bookkeeping the oracle cannot vouch for: each row is one
    execution, one ``launch.cycles`` observation and one last result,
    and a DPU that failed keeps no result."""
    plan, a_q, b_q, divisor = _operands(20)
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(8))
    dpus = system.allocate(8).dpus
    with _fresh_metrics() as registry, faults.fault_injection(None):
        _, reports = run_gemm_layer(
            dpus, system.attributes, plan, a_q, b_q, divisor, 1
        )
    metrics = registry["metrics"]
    cycles = reports[0].cycles
    assert [r.n_dpus for r in reports] == [8, 8, 4]
    assert metrics["dpu.launches"]["state"] == 3
    assert metrics["dpu.execs"]["state"] == 20
    observed = metrics["launch.cycles"]["state"]
    assert observed["count"] == 20 and observed["sum"] == 20 * cycles
    assert {d.last_result.cycles for d in dpus} == {cycles}

    failing = FaultPlan(targets={dpus[5].dpu_id: "hang"}, target_attempts=10)
    with faults.fault_injection(failing), pytest.raises(LayerFailedError):
        run_gemm_layer(
            dpus, system.attributes, plan, a_q, b_q, divisor, 1,
            fault_policy="isolate",
        )
    failed = [d.last_result is None for d in dpus]
    assert failed == [False] * 5 + [True] + [False] * 2


#: The served model's first layer, (M, N, K) = (2, 4096, 27): its image
#: spans 237,648 bytes, four 64 KB MRAM pages.
WIDE = {"n": 4096, "k": 27}


@pytest.mark.parametrize("n_dpus", [1, 2])
def test_walk_matches_across_mram_pages(n_dpus):
    meta = YoloDpuLayout(GemmShape(m=2, **WIDE)).build_image().symbols["meta"]
    region = meta.mram_addr + meta.size
    assert region == 237_648
    got = _compare(n_dpus, 2, _matrix_plan(None), region=region, **WIDE)
    assert got["result"][0] == "ok"


def _rejected_launch_layer(
    dpus, attributes, plan, a_q, b_q, divisor, alpha, *,
    n_tasklets, opt_level=OptLevel.O3, fault_policy=None,
):
    """The per-wave layer when its DPUs reject the launch: staged as
    the walk stages, then refused before any row of A is sent."""
    shape = plan.gemm
    staged = DpuSet(list(dpus[: min(shape.m, len(dpus))]), attributes)
    staged.load(YoloDpuLayout(shape).build_image(f"yolo_layer_{plan.layer_index}"))
    staged.broadcast("b", b_q.reshape(-1))
    meta = [shape.m, shape.n, shape.k, alpha, divisor, 0]
    staged.broadcast("meta", np.array(meta, dtype=np.int32))
    for dpu in staged:
        dpu.check_launch(n_tasklets)
    raise AssertionError(f"{n_tasklets} tasklets launched")


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("n_tasklets", [0, 25])
def test_rejected_launch_leaves_the_broadcasts(n_tasklets, traced):
    """A tasklet count the DPUs reject raises LaunchError once B and the
    metadata went out: they stay in MRAM, and the clock and metrics
    count them."""
    got, want = [
        _observe(
            functools.partial(layer_fn, n_tasklets=n_tasklets), 3, 8,
            _matrix_plan(None),
            traced=traced, fault_policy=None, first_id=0,
        )
        for layer_fn in (run_gemm_layer, _rejected_launch_layer)
    ]
    for key in want:
        assert got[key] == want[key], key
    assert got["result"][:2] == (
        LaunchError, f"tasklet count {n_tasklets} outside [1, 24]"
    )
    assert got["metrics"]["transfer.broadcasts"]["state"] == 2



def _retry_plan(dpus):
    """Rate-drawn faults that every retry recovers."""
    return FaultPlan(seed=1, fault_rate=0.03, default_policy="retry")


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("make_plan", [lambda dpus: None, _retry_plan],
                         ids=["no-plan", "retry-plan"])
@pytest.mark.parametrize("n_dpus,m", GROUPS)
def test_fault_free_layer_does_no_per_row_work(n_dpus, m, make_plan, traced):
    """A layer multiplies every row in one GEMM and leaves the staged
    images with one batched MRAM write and no other, and still equals
    the per-wave oracle."""
    from repro.core import mapping_yolo
    from repro.dpu import memory

    counted = [
        (mapping_yolo, "gemm_fast"), (mapping_yolo, "write_rows"),
        (memory.Mram, "write"),
    ]
    calls = dict.fromkeys([name for _, name in counted], 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def layer(*args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            for owner, name in counted:
                patch.setattr(owner, name, counting(name, getattr(owner, name)))
            return run_gemm_layer(*args, **kwargs)

    got, want = [
        _observe(
            layer_fn, n_dpus, m, make_plan,
            traced=traced, fault_policy="retry", first_id=0,
        )
        for layer_fn in (layer, _per_wave_layer)
    ]
    assert calls == {"gemm_fast": 1, "write_rows": 1, "write": 0}
    for key in want:
        assert got[key] == want[key], key
    assert got["result"][0] == "ok"
    if make_plan is _retry_plan and n_dpus >= 8:
        assert got["metrics"]["launch.retries"]["state"] > 0
