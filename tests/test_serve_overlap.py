"""Each model's DPU pool on its own timeline.

:class:`~repro.serve.server.InferenceServer` starts a batch of one model
as soon as that model's pool is free and its batcher says flush, even
while another model's batch runs.  These tests hold it to:

* an oracle, :class:`SerialServer`: the loop that ran every batch of
  every model on one serial timeline.  On a pool that serves one model
  the two must agree exactly, with no fault plan and under the retry and
  isolate policies with healing: every response field, the makespan,
  the quarantined DPUs and every ``GLOBAL_METRICS`` value;
* a property: in a mixed serve, each model's responses equal a serve of
  that model's requests alone on a pool of the same size;
* the overlap itself: a YOLO request that arrives during an eBNN batch
  completes before that batch ends.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import faults
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.errors import ServeError
from repro.host.runtime import DpuSystem
from repro.serve import (
    BatchPolicy,
    DpuPool,
    EbnnBackend,
    InferenceRequest,
    InferenceServer,
    LoadSpec,
    RejectReason,
    YoloBackend,
    default_payloads,
    generate_load,
)
from repro.serve import server as serving
from repro.serve.request import completed, rejected
from tests.test_yolo_layer_walk import _fresh_metrics

PAYLOADS = default_payloads()

BACKENDS = {"ebnn": EbnnBackend, "yolo": YoloBackend}


class SerialServer(InferenceServer):
    """The serial event loop: every model's batches on one timeline, the
    server busy for each batch's service time and each heal."""

    def run(self, requests):
        pending = sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )
        i, n = 0, len(pending)
        while True:
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
            while i < n and pending[i].arrival_s <= self.now:
                self.submit(pending[i])
                i += 1
            self._flush(flush_model)
        return self.result()

    def drain(self):
        while True:
            next_flush, flush_model = self._next_flush()
            if flush_model is None:
                return
            self.now = max(self.now, next_flush)
            self._flush(flush_model)

    def _next_flush(self):
        earliest, chosen = math.inf, None
        for model in sorted(self._batchers):
            due = self._batchers[model].flush_at(self.now)
            if due < earliest:
                earliest, chosen = due, model
        return earliest, chosen

    def _flush(self, model):
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
        serving._M_BATCHES.labels(model=model).inc()
        serving._M_BATCH_SIZE.observe(len(batch))
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
            clock = self.pool.system.clock
            start = clock.now
            self.pool.quarantine(model, execution.failed_dpu_ids)
            self.now += clock.now - start
        for request in execution.failed:
            if request.attempts <= self.max_request_retries:
                serving._M_RETRIES.inc()
                batcher.requeue(request)
            else:
                self._record(
                    rejected(request, RejectReason.DPU_FAILURE, self.now)
                )


def make_pool(sizes: dict[str, int], n_system: int) -> DpuPool:
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(n_system))
    return DpuPool(
        system, [BACKENDS[model]() for model in sorted(sizes)],
        dpus_per_model=sizes,
    )


def frozen(output):
    """An output as plain values: each array as its dtype, shape and
    bytes."""
    if isinstance(output, np.ndarray):
        return output.dtype.str, output.shape, output.tobytes()
    if isinstance(output, (list, tuple)):
        return tuple(frozen(item) for item in output)
    return output


def fields(response) -> tuple:
    """Every field of a response, its output frozen."""
    return (
        response.request_id, response.model, response.status,
        frozen(response.output),
        response.reason, response.arrival_s, response.completed_s,
        response.batch_size, response.attempts, response.deadline_missed,
    )


# ---------------------------------------------------------------------- #
# one model: the serial oracle
# ---------------------------------------------------------------------- #

EBNN_POLICY = BatchPolicy(max_batch=16, max_delay_s=1e-3, queue_cap=24)
YOLO_POLICY = BatchPolicy(max_batch=2, max_delay_s=2e-3, queue_cap=3)

#: name -> (pool sizes, DPUs in the system, load, batch policy).  The
#: eBNN loads overflow the queue, let deadlines pass in the queue and
#: shed waves; the spare DPUs let the pool heal.
SCENARIOS = {
    "ebnn-deadlines": (
        {"ebnn": 2}, 6,
        LoadSpec(rps=6000.0, duration_s=0.02, seed=4, deadline_s=0.03),
        EBNN_POLICY,
    ),
    "ebnn-no-deadline": (
        {"ebnn": 3}, 6, LoadSpec(rps=3000.0, duration_s=0.01, seed=9),
        EBNN_POLICY,
    ),
    "yolo": (
        {"yolo": 4}, 8,
        LoadSpec(rps=300.0, duration_s=0.03, seed=2, mix=(("yolo", 1.0),)),
        YOLO_POLICY,
    ),
}

#: (server fault policy, plan): none, and retried and isolated faults.
PLANS = {
    "clean": (None, None),
    "retry": ("retry", faults.FaultPlan(
        seed=1, fault_rate=0.3, default_policy="retry")),
    "isolate": ("isolate", faults.FaultPlan(
        seed=1, fault_rate=0.3, default_policy="isolate")),
}


def _observe(server_cls, scenario, plan, how):
    """Serve one scenario on a fresh pool; everything to compare."""
    sizes, n_system, spec, policy = SCENARIOS[scenario]
    fault_policy, fault_plan = PLANS[plan]
    with _fresh_metrics() as registry, faults.fault_injection(fault_plan):
        pool = make_pool(sizes, n_system)
        server = server_cls(pool, policy=policy, fault_policy=fault_policy)
        requests = generate_load(spec, PAYLOADS)
        if how == "run":
            result = server.run(requests)
        else:  # everything submitted at time 0, then drained
            for request in requests:
                server.submit(request)
            getattr(server, how)()
            late = InferenceRequest(10**6, spec.mix[0][0], None)
            server.submit(late)
            result = server.result()
    return {
        "responses": [fields(r) for r in result.responses],
        "finished_s": result.finished_s,
        "quarantined": {
            model: sorted(entry.quarantined)
            for model, entry in pool._entries.items()
        },
        "metrics": registry["metrics"],
    }


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("how", ["run", "drain", "shutdown"])
def test_one_model_matches_the_serial_loop(scenario, plan, how):
    got = _observe(InferenceServer, scenario, plan, how)
    want = _observe(SerialServer, scenario, plan, how)
    assert got["responses"] == want["responses"]
    for key in ("finished_s", "quarantined", "metrics"):
        assert got[key] == want[key], key


def test_the_scenarios_reach_every_path():
    """The comparisons above see queue overflow, deadline rejections,
    shed waves, retried launches, and requeued requests and healed DPUs
    on both models."""
    reasons, reached = set(), set()
    for scenario in SCENARIOS:
        model = next(iter(SCENARIOS[scenario][0]))
        for plan in PLANS:
            observed = _observe(InferenceServer, scenario, plan, "run")
            reasons |= {row[4] for row in observed["responses"]}
            metrics = observed["metrics"]
            for name in (
                "launch.cancelled", "launch.retries", "serve.request_retries",
            ):
                if metrics[name]["state"]:
                    reached.add((model, plan, name))
            healed = metrics["pool.healed"]["children"].values()
            if any(child["state"] for child in healed):
                reached.add((model, plan, "healed"))
    assert {
        RejectReason.QUEUE_FULL, RejectReason.DEADLINE_EXCEEDED,
    } <= reasons
    assert {
        ("ebnn", "clean", "launch.cancelled"),
        ("ebnn", "retry", "launch.retries"),
        ("yolo", "retry", "launch.retries"),
    } <= reached
    for model in BACKENDS:
        assert {
            (model, "isolate", "serve.request_retries"),
            (model, "isolate", "healed"),
        } <= reached


def test_one_model_matches_under_the_installed_plan():
    """Under whatever plan ``REPRO_FAULT_*`` installed, or none: the
    same responses, or the same error."""
    installed = faults.current_plan()
    outcomes = []
    for server_cls in (InferenceServer, SerialServer):
        with faults.fault_injection(installed):
            pool = make_pool({"ebnn": 2}, 4)
            server = server_cls(pool, policy=EBNN_POLICY)
            requests = generate_load(SCENARIOS["ebnn-deadlines"][2], PAYLOADS)
            try:
                result = server.run(requests)
            except Exception as exc:  # noqa: BLE001 - compared below
                outcomes.append((type(exc), str(exc)))
            else:
                outcomes.append(
                    ([fields(r) for r in result.responses], result.finished_s)
                )
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------- #
# two models: each as if it were alone
# ---------------------------------------------------------------------- #

MIXED_SIZES = {"ebnn": 3, "yolo": 2}
MIXED_POLICIES = {
    "ebnn": BatchPolicy(max_batch=8, max_delay_s=1e-3, queue_cap=8),
    "yolo": BatchPolicy(max_batch=2, max_delay_s=1e-3, queue_cap=2),
}

#: One request: model, arrival in tenths of a millisecond, deadline in
#: milliseconds after its arrival (or none).
_request = st.tuples(
    st.sampled_from(["ebnn", "ebnn", "ebnn", "yolo"]),
    st.integers(0, 400),
    st.one_of(st.none(), st.integers(5, 200)),
)


def _requests(drawn, model=None):
    return [
        InferenceRequest(
            request_id, kind, PAYLOADS[kind](request_id),
            arrival_s=tenths * 1e-4,
            deadline_s=None if deadline is None else tenths * 1e-4
            + deadline * 1e-3,
        )
        for request_id, (kind, tenths, deadline) in enumerate(drawn)
        if model is None or kind == model
    ]


@settings(max_examples=12, deadline=None)
@given(st.lists(_request, min_size=1, max_size=14))
def test_each_model_serves_as_if_alone(drawn):
    """Field for field, the simulated times to 1 ps: the system's clock
    is shared, so a batch's service time, read as the difference of two
    float readings, rounds differently when the other model's work moved
    the clock in between."""
    with faults.fault_injection(None):
        mixed = InferenceServer(
            make_pool(MIXED_SIZES, 8), policies=MIXED_POLICIES
        ).run(_requests(drawn))
        for model, size in MIXED_SIZES.items():
            requests = _requests(drawn, model)
            if not requests:
                continue
            alone = InferenceServer(
                make_pool({model: size}, 8), policies=MIXED_POLICIES
            ).run(requests)
            got = [fields(r) for r in mixed.responses if r.model == model]
            want = [fields(r) for r in alone.responses]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g[:6] + g[7:] == w[:6] + w[7:]
                assert g[6] == pytest.approx(w[6], rel=0, abs=1e-12)


def test_a_yolo_request_overlaps_an_ebnn_batch():
    """A YOLO request that arrives during an eBNN batch starts at its
    arrival and completes at that start plus its own service time,
    before the eBNN batch ends."""
    policies = {
        "ebnn": BatchPolicy(max_batch=64, max_delay_s=1e-3, queue_cap=64),
        "yolo": BatchPolicy(max_batch=1, max_delay_s=0.0, queue_cap=4),
    }
    pool = make_pool({"ebnn": 2, "yolo": 8}, 12)
    batches = []
    backend = pool.backend("yolo")
    run_batch = backend.run_batch

    def recorded(members, attributes, requests, now, fault_policy):
        execution = run_batch(members, attributes, requests, now, fault_policy)
        batches.append((now, execution.seconds))
        return execution

    backend.run_batch = recorded
    requests = [
        InferenceRequest(i, "ebnn", PAYLOADS["ebnn"](i)) for i in range(64)
    ]
    requests.append(
        InferenceRequest(64, "yolo", PAYLOADS["yolo"](64), arrival_s=2e-3)
    )
    with faults.fault_injection(None):
        result = InferenceServer(pool, policies=policies).run(requests)
    *ebnn, yolo = result.responses
    assert all(r.ok and r.batch_size == 64 for r in ebnn)
    ebnn_end = ebnn[0].completed_s
    assert yolo.ok
    ((start, seconds),) = batches
    assert start == yolo.arrival_s == 2e-3 > 1e-3  # the eBNN batch started
    assert yolo.completed_s == start + seconds < ebnn_end
    assert result.finished_s == ebnn_end


# ---------------------------------------------------------------------- #
# the fault policy is checked where it is configured
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("model", sorted(BACKENDS))
def test_an_unknown_fault_policy_is_rejected_at_construction(model):
    pool = make_pool({model: 2}, 4)
    leases = []
    pool.lease = leases.append
    with pytest.raises(ServeError, match="unknown fault_policy 'bogus'"):
        InferenceServer(pool, fault_policy="bogus")
    assert leases == []
    assert pool.active_dpus(model) == 2
    assert not pool._entries[model].quarantined
