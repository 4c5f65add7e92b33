"""Differential tests of the set-wide mapping kernels.

A kernel image runs as one call of its kernel over every DPU of a
launch (:meth:`repro.host.runtime.DpuSet.charge`).  These tests hold that
path to
the per-DPU meaning it replaced, for sets of 1, 3, 16 and 64 DPUs, with
and without injected faults:

* YOLO: every DPU's C row equals :func:`repro.nn.gemm.gemm_row` on that
  DPU's own A row, B copy and metadata; every DPU reports the closed-form
  :func:`gemm_layer_cycles`.  B and the metadata are broadcasts: a
  launch whose DPUs hold different copies of them raises
  :class:`MappingError` and writes no C row.
* eBNN: every image's packed features equal
  :meth:`EbnnModel.features`; every DPU reports the closed-form
  :func:`ebnn_dpu_cycles` of its image count.
* Launch bookkeeping: outcomes, ``last_result``, the per-DPU metric
  deltas, and one ``dpu.exec`` span per DPU that ran.
"""

import numpy as np
import pytest

from repro import faults, telemetry
from repro.core.lut import create_lut
from repro.core.mapping_ebnn import (
    EBNN_TASKLETS,
    EbnnDpuLayout,
    ebnn_conv_pool_kernel,
    ebnn_dpu_cycles,
)
from repro.core import mapping_yolo
from repro.core.mapping_yolo import (
    YOLO_TASKLETS,
    YoloDpuLayout,
    accumulator_divisor,
    gemm_layer_cycles,
    yolo_gemm_row_kernel,
)
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.errors import DpuFaultError, LaunchError, MappingError
from repro.faults import FaultPlan
from repro.host.runtime import DpuSystem
from repro.nn.binary import pack_image, unpack_bits
from repro.nn.gemm import GemmShape, gemm_row
from repro.nn.models.ebnn import EbnnModel
from tests.conftest import launch_kernel

SIZES = [1, 3, 16, 64]

#: Fault policies under test; ``None`` is a launch with no fault plan.
POLICIES = [None, "isolate", "retry", "raise"]

OPT = OptLevel.O3

#: ``last_result`` of every DPU before the launch under test.
STALE = object()


def _plan(policy, bad_dpu_id):
    """A plan that fails ``bad_dpu_id``: once under retry, always otherwise.

    ``None`` for no policy: the launch then runs with injection disabled,
    even when a smoke plan is installed process-wide.
    """
    if policy is None:
        return None
    return FaultPlan(
        seed=0,
        targets={bad_dpu_id: "fault"},
        target_attempts=1 if policy == "retry" else 10,
        default_policy=policy,
    )


def _launch(dpu_set, kernel, policy, n_tasklets, **params):
    """Launch ``kernel`` under ``policy``'s plan, traced.

    Returns the report (or the exception), the metric deltas, the tracer
    and the id of the DPU the plan fails.
    """
    bad = dpu_set[len(dpu_set) // 2].dpu_id
    plan = _plan(policy, bad)
    for dpu in dpu_set:
        dpu.last_result = STALE
    before = telemetry.GLOBAL_METRICS.snapshot()
    with telemetry.tracing() as tracer, faults.fault_injection(plan):
        try:
            outcome = launch_kernel(
                dpu_set, kernel, n_tasklets=n_tasklets, opt_level=OPT,
                fault_policy=policy, **params,
            )
        except (DpuFaultError, LaunchError) as exc:
            outcome = exc
    delta = telemetry.GLOBAL_METRICS.delta_since(before)
    return outcome, delta, tracer, bad


def _ran(dpu_set, policy, bad):
    """Indices of the DPUs that must have run under ``policy``."""
    bad_index = next(i for i, d in enumerate(dpu_set) if d.dpu_id == bad)
    if policy in (None, "retry"):
        return list(range(len(dpu_set)))
    if policy == "isolate":
        return [i for i in range(len(dpu_set)) if i != bad_index]
    return list(range(bad_index))  # raise: the DPUs before the failure


def _check_bookkeeping(dpu_set, policy, outcome, delta, tracer, bad, cycles):
    """Report, ``last_result``, metric deltas and spans match ``cycles``."""
    ran = _ran(dpu_set, policy, bad)
    n = len(dpu_set)
    if policy == "raise":
        assert isinstance(outcome, DpuFaultError)
    elif policy == "isolate" and n == 1:
        assert isinstance(outcome, LaunchError)
        assert "all 1 DPUs" in str(outcome)
    else:
        report = outcome
        expected = [cycles[i] if i in ran else 0.0 for i in range(n)]
        assert report.per_dpu_cycles == expected
        assert report.cycles == max(expected)
        if policy is None:
            assert report.outcomes == []
        else:
            ids = [d.dpu_id for d in dpu_set]
            assert [o.dpu_id for o in report.outcomes] == ids
            for i, o in enumerate(report.outcomes):
                if o.dpu_id != bad:
                    assert (o.status, o.attempts) == ("ok", 1)
                elif policy == "retry":
                    assert (o.status, o.attempts) == ("ok", 2)
                else:
                    assert (o.status, o.attempts) == ("faulted", 1)
                    assert o.error_type == "DpuFaultError"
            assert report.n_retried == (1 if policy == "retry" else 0)
    for i, dpu in enumerate(dpu_set):
        if i in ran:
            assert dpu.last_result is not None
            assert dpu.last_result.cycles == cycles[i]
        elif policy == "raise":
            assert dpu.last_result is STALE  # the launch never reached it
        else:
            assert dpu.last_result is None  # failed: no result this launch
    slots = sum(dpu_set[i].last_result.issue_slots for i in ran)
    assert delta["dpu.execs"]["state"] == len(ran)
    assert delta["dpu.instructions"]["state"] == slots
    assert delta["launch.cycles"]["state"]["count"] == len(ran)
    assert delta["launch.cycles"]["state"]["sum"] == pytest.approx(
        sum(cycles[i] for i in ran)
    )
    fault_kinds = delta["dpu.faults"]["children"]
    n_faults = sum(c["state"] for c in fault_kinds.values())
    assert n_faults == (0 if policy is None else 1)
    retries = delta["launch.retries"]["state"]
    assert retries == (1 if policy == "retry" else 0)
    spans = tracer.find("dpu.exec")
    tracks = [("dpu", dpu_set[i].dpu_id) for i in ran]
    assert [s.track for s in spans] == tracks
    assert [s.attributes["cycles"] for s in spans] == [cycles[i] for i in ran]


# ---------------------------------------------------------------------- #
# YOLO: one GEMM row per DPU
# ---------------------------------------------------------------------- #


def _yolo_set(n_dpus, *, seed=3, alpha=1):
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(max(n_dpus, 8)))
    shape = GemmShape(m=n_dpus, n=24, k=40)
    layout = YoloDpuLayout(shape)
    dpu_set = system.allocate(n_dpus)
    dpu_set.load(layout.build_image())
    rng = np.random.default_rng(seed)
    a = rng.integers(-127, 128, size=(shape.m, shape.k)).astype(np.int16)
    b = rng.integers(-127, 128, size=(shape.k, shape.n)).astype(np.int16)
    divisor = accumulator_divisor(a, b, alpha)
    dpu_set.broadcast("b", b.reshape(-1))
    dpu_set.broadcast(
        "meta",
        np.array(
            [shape.m, shape.n, shape.k, alpha, divisor, 0], dtype=np.int32
        ),
    )
    dpu_set.scatter("a_row", list(a))
    return system, dpu_set, layout


def _yolo_reference(dpu, shape):
    """What the per-DPU kernel computes from this DPU's own MRAM."""
    meta = dpu.read_symbol_array("meta", np.int32, 6)
    a_row = dpu.read_symbol_array("a_row", np.int16, shape.k)
    b = dpu.read_symbol_array("b", np.int16, shape.k * shape.n)
    return gemm_row(
        int(meta[3]), a_row, b.reshape(shape.k, shape.n), divisor=int(meta[4])
    )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n_dpus", SIZES)
def test_yolo_rows_match_gemm_row(n_dpus, policy):
    system, dpu_set, layout = _yolo_set(n_dpus)
    shape = layout.shape
    references = [_yolo_reference(dpu, shape) for dpu in dpu_set]
    cycles = gemm_layer_cycles(shape, n_tasklets=YOLO_TASKLETS, opt_level=OPT)
    outcome, delta, tracer, bad = _launch(
        dpu_set, yolo_gemm_row_kernel, policy, YOLO_TASKLETS, layout=layout
    )
    ran = _ran(dpu_set, policy, bad)
    for i, dpu in enumerate(dpu_set):
        c_row = dpu.read_symbol_array("c_row", np.int32, shape.n)
        want = references[i] if i in ran else np.zeros(shape.n)
        assert np.array_equal(c_row, want)
    _check_bookkeeping(
        dpu_set, policy, outcome, delta, tracer, bad, [cycles] * n_dpus
    )
    # One cost charge per launch, not per DPU: every DPU shares it.
    assert len({id(dpu_set[i].last_result) for i in ran}) <= 1
    system.free(dpu_set)


def _count_groups(monkeypatch):
    """Record the row count of every ``gemm_fast`` the YOLO kernel makes."""
    calls = []
    real = mapping_yolo.gemm_fast

    def counted(alpha, a, b, **kwargs):
        calls.append(a.shape[0])
        return real(alpha, a, b, **kwargs)

    monkeypatch.setattr(mapping_yolo, "gemm_fast", counted)
    return calls


def test_yolo_c_row_garbage_keeps_one_group(monkeypatch):
    """c_row sits inside each DPU's read span but is not compared."""
    system, dpu_set, layout = _yolo_set(8)
    shape = layout.shape
    references = [_yolo_reference(dpu, shape) for dpu in dpu_set]
    for i in (2, 5):
        dpu_set[i].write_symbol("c_row", bytes([0xE0 + i]) * layout.c_row_bytes)
    calls = _count_groups(monkeypatch)
    with faults.fault_injection(None):
        launch_kernel(
            dpu_set, yolo_gemm_row_kernel, n_tasklets=YOLO_TASKLETS,
            opt_level=OPT, layout=layout,
        )
    assert calls == [8]
    for dpu, want in zip(dpu_set, references):
        assert np.array_equal(
            dpu.read_symbol_array("c_row", np.int32, shape.n), want
        )
    system.free(dpu_set)


@pytest.mark.parametrize("symbol, offset, victim", [
    ("b", 0, 5), ("b", 77, 5), ("b", 77, 0), ("meta", 4, 5),
    ("meta", 16, 5), ("meta", 20, 5),
], ids=["b-first", "b-inner", "b-first-dpu", "meta-n", "meta-divisor",
        "meta-pad"])
def test_yolo_launch_over_differing_broadcasts_raises(symbol, offset, victim):
    """B and the metadata are broadcasts, so a launch whose DPUs hold
    different copies of a byte of them raises and writes no C row."""
    system, dpu_set, layout = _yolo_set(8)
    dpu = dpu_set[victim]
    addr = dpu.symbol(symbol).mram_addr + offset
    dpu.mram.write(addr, bytes([dpu.mram.read(addr, 1)[0] ^ 0x01]))
    with faults.fault_injection(None), pytest.raises(
        MappingError, match="B or metadata differ"
    ):
        launch_kernel(
            dpu_set, yolo_gemm_row_kernel, n_tasklets=YOLO_TASKLETS,
            opt_level=OPT, layout=layout,
        )
    for dpu in dpu_set:
        assert dpu.read_symbol("c_row", layout.c_row_bytes) == bytes(
            layout.c_row_bytes
        )
    system.free(dpu_set)


def test_yolo_launch_over_mixed_images_raises():
    system, dpu_set, layout = _yolo_set(4)
    dpu_set[2].load(layout.build_image("another_yolo_image"))
    with faults.fault_injection(None), pytest.raises(
        MappingError, match="different images"
    ):
        launch_kernel(
            dpu_set, yolo_gemm_row_kernel, n_tasklets=YOLO_TASKLETS,
            opt_level=OPT, layout=layout,
        )
    for dpu in dpu_set:
        assert dpu.read_symbol("c_row", layout.c_row_bytes) == bytes(
            layout.c_row_bytes
        )
    system.free(dpu_set)


# ---------------------------------------------------------------------- #
# eBNN: several images per DPU
# ---------------------------------------------------------------------- #


MODEL = EbnnModel()


def _ebnn_set(n_dpus, use_lut, seed=7):
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(max(n_dpus, 8)))
    layout = EbnnDpuLayout(MODEL.config)
    dpu_set = system.allocate(n_dpus)
    dpu_set.load(layout.build_image())
    rng = np.random.default_rng(seed)
    side = MODEL.config.image_size
    # Counts cycle through 1..16, so a set sees several distinct costs.
    counts = [(5 * i) % layout.images_per_dpu + 1 for i in range(n_dpus)]
    images = [rng.random((count, side, side)) for count in counts]
    blocks = [
        np.frombuffer(
            b"".join(
                pack_image(image).ljust(layout.image_bytes, b"\0")
                for image in batch
            ).ljust(layout.images_bytes, b"\0"),
            dtype=np.uint8,
        )
        for batch in images
    ]
    dpu_set.scatter("images", blocks)
    dpu_set.scatter(
        "meta", [np.array([c, 0], dtype=np.uint32) for c in counts]
    )
    if use_lut:
        lut = create_lut(MODEL.bn, *MODEL.config.conv_range)
        raw = lut.to_bytes().ljust(layout.lut_bytes, b"\0")
        dpu_set.broadcast("lut", np.frombuffer(raw, dtype=np.uint8))
    return system, dpu_set, layout, images


@pytest.mark.parametrize("use_lut", [True, False])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n_dpus", SIZES)
def test_ebnn_features_match_model(n_dpus, policy, use_lut):
    system, dpu_set, layout, images = _ebnn_set(n_dpus, use_lut)
    cycles = [
        ebnn_dpu_cycles(
            MODEL.config, n_images=len(batch), n_tasklets=EBNN_TASKLETS,
            opt_level=OPT, use_lut=use_lut,
        )
        for batch in images
    ]
    outcome, delta, tracer, bad = _launch(
        dpu_set, ebnn_conv_pool_kernel, policy, EBNN_TASKLETS,
        model=MODEL, layout=layout, use_lut=use_lut,
    )
    ran = _ran(dpu_set, policy, bad)
    size = layout.result_bytes_per_image
    for i, (dpu, batch) in enumerate(zip(dpu_set, images)):
        for j, image in enumerate(batch):
            raw = dpu.read_symbol("results", size, offset=j * size)
            if i not in ran:
                assert raw == bytes(size)
                continue
            bits = unpack_bits(raw, MODEL.config.feature_count)
            want = MODEL.features(image).reshape(-1)
            assert np.array_equal(bits, want)
    _check_bookkeeping(dpu_set, policy, outcome, delta, tracer, bad, cycles)
    system.free(dpu_set)
