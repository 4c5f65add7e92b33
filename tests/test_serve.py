"""Tests for the online serving layer (repro.serve)."""

import math
from contextlib import nullcontext

import numpy as np
import pytest

from repro import faults, telemetry
from repro.core.mapping_ebnn import HOST_SECONDS_PER_IMAGE, ebnn_dpu_cycles
from repro.core.mapping_yolo import yolo_network_timing
from repro.datasets.mnist import generate_batch
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.errors import ServeError
from repro.host.runtime import DpuSystem
from repro.host.transfer import transfer_seconds
from repro.serve import (
    BatchPolicy,
    DpuPool,
    DynamicBatcher,
    EbnnBackend,
    InferenceRequest,
    InferenceServer,
    LoadSpec,
    RejectReason,
    YoloBackend,
    default_payloads,
    generate_load,
    run_offline,
)
from tests.test_yolo_split import split_layer_cycles

PAYLOADS = default_payloads()


def ebnn_pool(n_system: int = 4, n_pool: int = 2) -> DpuPool:
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(n_system))
    return DpuPool(system, [EbnnBackend()], dpus_per_model=n_pool)


def mixed_pool(n_system: int = 8) -> DpuPool:
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(n_system))
    return DpuPool(
        system,
        [EbnnBackend(), YoloBackend()],
        dpus_per_model={"ebnn": 3, "yolo": 2},
    )


def ebnn_request(request_id: int, arrival_s: float = 0.0, **kwargs):
    return InferenceRequest(
        request_id=request_id,
        model="ebnn",
        payload=PAYLOADS["ebnn"](request_id),
        arrival_s=arrival_s,
        **kwargs,
    )


def outputs_equal(got, want) -> bool:
    if isinstance(got, (int, np.integer)):
        return got == want
    return all(np.array_equal(a, b) for a, b in zip(got, want))


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ServeError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ServeError):
            BatchPolicy(max_delay_s=-1.0)
        with pytest.raises(ServeError):
            BatchPolicy(queue_cap=0, max_batch=1)
        with pytest.raises(ServeError):
            BatchPolicy(max_batch=32, queue_cap=16)

    def test_from_env_reads_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "4")
        monkeypatch.setenv("REPRO_SERVE_MAX_DELAY_MS", "5")
        monkeypatch.setenv("REPRO_SERVE_QUEUE_CAP", "9")
        policy = BatchPolicy.from_env()
        assert policy.max_batch == 4
        assert policy.max_delay_s == pytest.approx(5e-3)
        assert policy.queue_cap == 9

    def test_explicit_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "4")
        policy = BatchPolicy.from_env(max_batch=2)
        assert policy.max_batch == 2

    def test_env_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "lots")
        with pytest.raises(ServeError):
            BatchPolicy.from_env()


class TestDynamicBatcher:
    def test_empty_queue_never_schedules_a_flush(self):
        batcher = DynamicBatcher("ebnn", BatchPolicy())
        assert batcher.flush_at(0.0) == math.inf
        assert batcher.flush_at(123.0) == math.inf
        batch, expired = batcher.pop_batch(0.0)
        assert batch == [] and expired == []

    def test_single_request_waits_exactly_max_delay(self):
        policy = BatchPolicy(max_batch=8, max_delay_s=2e-3)
        batcher = DynamicBatcher("ebnn", policy)
        batcher.offer(ebnn_request(0, arrival_s=1.0))
        assert batcher.flush_at(1.0) == pytest.approx(1.0 + 2e-3)

    def test_full_queue_flushes_immediately(self):
        policy = BatchPolicy(max_batch=2, max_delay_s=1.0)
        batcher = DynamicBatcher("ebnn", policy)
        batcher.offer(ebnn_request(0))
        batcher.offer(ebnn_request(1))
        assert batcher.flush_at(5e-4) == 5e-4

    def test_overdue_queue_does_not_move_clock_backwards(self):
        policy = BatchPolicy(max_batch=8, max_delay_s=1e-3)
        batcher = DynamicBatcher("ebnn", policy)
        batcher.offer(ebnn_request(0, arrival_s=0.0))
        assert batcher.flush_at(0.5) == 0.5

    def test_deadline_pulls_flush_earlier(self):
        policy = BatchPolicy(max_batch=8, max_delay_s=10e-3)
        batcher = DynamicBatcher("ebnn", policy)
        batcher.note_service(1e-3)
        batcher.offer(ebnn_request(0, arrival_s=0.0, deadline_s=4e-3))
        assert batcher.flush_at(0.0) == pytest.approx(3e-3)

    def test_bounded_queue_rejects_then_force_bypasses(self):
        policy = BatchPolicy(max_batch=2, max_delay_s=1e-3, queue_cap=2)
        batcher = DynamicBatcher("ebnn", policy)
        assert batcher.offer(ebnn_request(0)) is None
        assert batcher.offer(ebnn_request(1)) is None
        assert batcher.offer(ebnn_request(2)) is RejectReason.QUEUE_FULL
        assert batcher.offer(ebnn_request(3), force=True) is None
        assert len(batcher) == 3

    def test_pop_splits_expired_requests(self):
        batcher = DynamicBatcher("ebnn", BatchPolicy())
        batcher.offer(ebnn_request(0, deadline_s=1e-3))
        batcher.offer(ebnn_request(1))
        batch, expired = batcher.pop_batch(2e-3)
        assert [r.request_id for r in batch] == [1]
        assert [r.request_id for r in expired] == [0]

    def test_requeue_goes_to_the_head(self):
        batcher = DynamicBatcher("ebnn", BatchPolicy())
        batcher.offer(ebnn_request(0))
        batcher.requeue(ebnn_request(7))
        batch, _ = batcher.pop_batch(0.0)
        assert [r.request_id for r in batch] == [7, 0]


class TestServerBasics:
    def test_single_request_serves_after_max_delay(self):
        pool = ebnn_pool()
        policy = BatchPolicy(max_batch=8, max_delay_s=3e-3)
        server = InferenceServer(pool, policy=policy)
        result = server.run([ebnn_request(0, arrival_s=1e-3)])
        response = result.responses[0]
        assert response.ok
        assert response.batch_size == 1
        # The flush waited the full delay hoping for batch-mates.
        assert response.completed_s >= 1e-3 + 3e-3

    def test_unknown_model_raises(self):
        server = InferenceServer(ebnn_pool())
        with pytest.raises(ServeError, match="unknown model"):
            server.submit(
                InferenceRequest(request_id=0, model="bert", payload=None)
            )

    def test_duplicate_request_id_raises(self):
        server = InferenceServer(ebnn_pool())
        server.submit(ebnn_request(3))
        with pytest.raises(ServeError, match="duplicate"):
            server.submit(ebnn_request(3))

    def test_backpressure_rejects_exact_overflow_count(self):
        pool = ebnn_pool()
        policy = BatchPolicy(max_batch=4, max_delay_s=1e-3, queue_cap=8)
        server = InferenceServer(pool, policy=policy)
        requests = [ebnn_request(i, arrival_s=0.0) for i in range(20)]
        result = server.run(requests)
        reasons = result.rejects_by_reason()
        assert reasons == {"queue_full": 12}
        assert len(result.completed) == 8
        assert len(result.completed) + len(result.rejected) == 20

    def test_shutdown_finishes_in_flight_then_rejects(self):
        pool = ebnn_pool()
        server = InferenceServer(
            pool, policy=BatchPolicy(max_batch=8, max_delay_s=1e-3)
        )
        for i in range(3):
            assert server.submit(ebnn_request(i)) is None
        server.shutdown()
        result = server.result()
        assert len(result.completed) == 3  # in-flight work finished
        late = server.submit(ebnn_request(99))
        assert late is not None
        assert late.reason is RejectReason.SHUTTING_DOWN
        assert len(server.result().responses) == 4

    def test_drain_empties_every_queue(self):
        server = InferenceServer(
            ebnn_pool(), policy=BatchPolicy(max_batch=16, max_delay_s=1e-3)
        )
        for i in range(5):
            server.submit(ebnn_request(i))
        server.drain()
        assert len(server.result().completed) == 5

    def test_deadline_shedding_cancels_the_launch(self):
        """A hopeless batch is abandoned before its launch: no launch,
        no launch time."""
        pool = ebnn_pool()
        server = InferenceServer(
            pool, policy=BatchPolicy(max_batch=8, max_delay_s=1e-3)
        )
        before = telemetry.GLOBAL_METRICS.snapshot()
        # eBNN service time is ~ tens of ms simulated; a 2 ms deadline
        # cannot be met, so the wave is shed instead of launched.
        result = server.run([ebnn_request(0, deadline_s=2e-3)])
        delta = telemetry.GLOBAL_METRICS.delta_since(before)
        response = result.responses[0]
        assert not response.ok
        assert response.reason is RejectReason.DEADLINE_EXCEEDED
        assert delta["launch.cancelled"]["state"] == 1
        assert delta["dpu.launches"]["state"] == 0

    def test_every_request_resolves_exactly_once(self):
        pool = mixed_pool()
        spec = LoadSpec(
            rps=2000.0, duration_s=0.008, seed=3,
            mix=(("ebnn", 3.0), ("yolo", 1.0)),
        )
        requests = generate_load(spec, PAYLOADS)
        server = InferenceServer(
            pool, policy=BatchPolicy(max_batch=8, max_delay_s=1e-3)
        )
        result = server.run(requests)
        assert sorted(r.request_id for r in result.responses) == sorted(
            r.request_id for r in requests
        )
        assert len(result.completed) + len(result.rejected) == len(requests)


class TestBatchingEquivalence:
    """Batched outputs must be bit-identical to one-at-a-time runs."""

    SPEC = LoadSpec(
        rps=2500.0, duration_s=0.006, seed=17,
        mix=(("ebnn", 3.0), ("yolo", 1.0)),
    )

    def _serve(self, policy: BatchPolicy):
        requests = generate_load(self.SPEC, PAYLOADS)
        server = InferenceServer(mixed_pool(), policy=policy)
        return requests, server.run(requests)

    @pytest.mark.parametrize(
        "max_batch,max_delay_s",
        [(1, 0.0), (4, 1e-3), (16, 5e-3)],
    )
    def test_outputs_identical_at_every_policy(self, max_batch, max_delay_s):
        policy = BatchPolicy(
            max_batch=max_batch, max_delay_s=max_delay_s, queue_cap=64
        )
        requests, result = self._serve(policy)
        assert len(result.completed) == len(requests)
        reference = run_offline(mixed_pool(), requests)
        for response in result.completed:
            assert outputs_equal(
                response.output, reference[response.request_id]
            ), f"request {response.request_id} diverged under batching"

    def test_latencies_deterministic_across_runs(self):
        policy = BatchPolicy(max_batch=8, max_delay_s=1e-3)
        _, first = self._serve(policy)
        _, second = self._serve(policy)
        assert [r.completed_s for r in first.responses] == [
            r.completed_s for r in second.responses
        ]


class TestFaultTolerance:
    def test_graceful_degradation_under_isolate(self):
        """Injected DPU faults shrink the pool but lose no requests."""
        pool = mixed_pool(n_system=10)
        spec = LoadSpec(
            rps=1500.0, duration_s=0.01, seed=11,
            mix=(("ebnn", 3.0), ("yolo", 1.0)),
        )
        requests = generate_load(spec, PAYLOADS)
        server = InferenceServer(
            pool,
            policy=BatchPolicy(max_batch=8, max_delay_s=1e-3),
            fault_policy="isolate",
        )
        plan = faults.FaultPlan(
            seed=5, fault_rate=0.35, default_policy="isolate"
        )
        with faults.fault_injection(plan):
            result = server.run(requests)
        assert len(result.completed) + len(result.rejected) == len(requests)
        # The injected faults really happened and were retried around.
        retried = [r for r in result.completed if r.attempts > 1]
        assert retried, "expected at least one completed-via-retry request"
        assert pool.active_dpus("ebnn") >= 1
        assert pool.active_dpus("yolo") >= 1

    def test_faulty_outputs_match_clean_outputs(self):
        """Retried requests produce the same bits as a fault-free run."""
        spec = LoadSpec(rps=1200.0, duration_s=0.008, seed=11)
        requests = generate_load(spec, PAYLOADS)
        clean = InferenceServer(
            ebnn_pool(n_system=6, n_pool=3),
            policy=BatchPolicy(max_batch=8, max_delay_s=1e-3),
        ).run(requests)
        server = InferenceServer(
            ebnn_pool(n_system=6, n_pool=3),
            policy=BatchPolicy(max_batch=8, max_delay_s=1e-3),
            fault_policy="isolate",
        )
        plan = faults.FaultPlan(
            seed=5, fault_rate=0.35, default_policy="isolate"
        )
        with faults.fault_injection(plan):
            faulty = server.run(requests)
        clean_outputs = clean.outputs()
        for response in faulty.completed:
            assert outputs_equal(
                response.output, clean_outputs[response.request_id]
            )


class TestSimulatedClock:
    """Served times come from the system's clock, which counts every
    transfer, launch and host charge whether or not tracing is on."""

    def test_a_shed_wave_leaves_no_launch_spans(self):
        """A wave shed for its deadline never launches, so the traced
        ``dpu.launch`` spans last what the clock charged for launches:
        its advance less the transfers and the host's classification."""
        server = InferenceServer(
            ebnn_pool(), policy=BatchPolicy(max_batch=32, max_delay_s=1e-3)
        )
        # 2 DPUs take 32 images a wave: the first wave ends ~38 ms in,
        # so the second, of 8 images, cannot end by 50 ms.
        requests = [ebnn_request(i, deadline_s=0.05) for i in range(40)]
        with faults.fault_injection(None), telemetry.tracing() as tracer:
            result = server.run(requests)
        assert len(result.completed) == 32
        assert all(
            r.reason is RejectReason.DEADLINE_EXCEEDED
            for r in result.responses if not r.ok
        )
        launches = tracer.find("dpu.launch")
        assert len(launches) == 1 and len(tracer.find("dpu.exec")) == 2
        other = sum(
            s.sim_seconds for s in tracer.all_spans()
            if s.category == "transfer" or s.name == "ebnn.host_classify"
        )
        assert launches[0].sim_seconds == pytest.approx(
            tracer.sim_now - other, rel=0, abs=1e-12
        )

    def test_traced_and_untraced_serve_alike(self):
        """Under faults and retries, with YOLO layers charged wave by
        wave when traced and at once when not."""
        spec = LoadSpec(
            rps=2000.0, duration_s=0.008, seed=3,
            mix=(("ebnn", 3.0), ("yolo", 1.0)),
        )

        def serve(traced):
            pool = mixed_pool()
            server = InferenceServer(
                pool, policy=BatchPolicy(max_batch=8, max_delay_s=1e-3),
                fault_policy="retry",
            )
            # Rate faults the retry policy absorbs, and one eBNN DPU that
            # fails every attempt: it is quarantined and healed (the
            # replacement's LUT staging is charged), and its requests
            # retried on the server.
            dead = pool.lease("ebnn")[0][0].dpu_id
            plan = faults.FaultPlan(
                seed=5, fault_rate=0.2, default_policy="retry",
                targets={dead: "fault"},
                target_attempts=faults.DEFAULT_MAX_RETRIES + 1,
            )
            tracing = telemetry.tracing() if traced else nullcontext()
            with faults.fault_injection(plan), tracing:
                result = server.run(generate_load(spec, PAYLOADS))
            return result, pool.system.clock.now

        (untraced, clock), (traced, traced_clock) = serve(False), serve(True)
        assert traced.finished_s == untraced.finished_s
        assert traced_clock == clock
        assert len(traced.responses) == len(untraced.responses)
        assert any(r.attempts > 1 for r in untraced.completed)
        assert {r.model for r in untraced.completed} == {"ebnn", "yolo"}
        for got, want in zip(traced.responses, untraced.responses):
            assert (got.request_id, got.status, got.reason) == (
                want.request_id, want.status, want.reason
            )
            assert (got.completed_s, got.attempts) == (
                want.completed_s, want.attempts
            )
            if want.ok:
                assert outputs_equal(got.output, want.output)

    def test_uncontended_yolo_matches_the_closed_form(self, transfers):
        """One request alone on an N-DPU pool: the layers' closed-form
        DPU time plus the host-link time of the bytes it moved.  On 8
        DPUs layer 0's columns are tiled across idle DPUs; 3 DPUs are
        too few to tile it, so there the closed form is Algorithm 2's."""
        for n_dpus in (3, 8):
            attributes = UPMEM_ATTRIBUTES.scaled(n_dpus)
            system = DpuSystem(attributes)
            backend = YoloBackend()
            pool = DpuPool(system, [backend], dpus_per_model=n_dpus)
            server = InferenceServer(pool, policy=BatchPolicy(max_batch=1))
            before = transfers()
            request = InferenceRequest(
                0, "yolo", PAYLOADS["yolo"](0), arrival_s=1e-3
            )
            (response,) = server.run([request]).responses
            after = transfers()
            moved = sum(
                after[d] - before[d] for d in ("to_dpu", "from_dpu")
            )
            closed_form = sum(map(
                attributes.cycles_to_seconds,
                split_layer_cycles(backend.model, n_dpus),
            ))
            algorithm2 = yolo_network_timing(
                backend.model, attributes=attributes
            ).total_seconds
            assert (closed_form == algorithm2) is (n_dpus == 3)
            assert response.ok and moved > 0
            assert response.latency_s == pytest.approx(
                closed_form + transfer_seconds(moved), rel=0, abs=1e-12
            )

    def test_single_ebnn_latency_adds_up(self, transfers):
        """The batcher's delay, the launch, the transfers and one image's
        host classify."""
        pool = ebnn_pool()
        policy = BatchPolicy(max_batch=8, max_delay_s=3e-3)
        server = InferenceServer(pool, policy=policy)
        before = transfers()
        (response,) = server.run([ebnn_request(0, arrival_s=1e-3)]).responses
        after = transfers()
        moved = sum(
            after[d] - before[d] for d in ("to_dpu", "from_dpu")
        )
        launch = pool.system.attributes.cycles_to_seconds(
            ebnn_dpu_cycles(pool.backend("ebnn").model.config, n_images=1)
        )
        assert response.ok and moved > 0
        assert response.latency_s == pytest.approx(
            policy.max_delay_s + launch + transfer_seconds(moved)
            + HOST_SECONDS_PER_IMAGE,
            rel=0, abs=1e-12,
        )


class TestLoadgen:
    def test_same_seed_same_workload(self):
        spec = LoadSpec(rps=3000.0, duration_s=0.004, seed=9,
                        mix=(("ebnn", 1.0), ("yolo", 1.0)))
        a = generate_load(spec, PAYLOADS)
        b = generate_load(spec, PAYLOADS)
        assert [(r.request_id, r.model, r.arrival_s) for r in a] == [
            (r.request_id, r.model, r.arrival_s) for r in b
        ]

    def test_uniform_process_spaces_arrivals_evenly(self):
        spec = LoadSpec(
            rps=1000.0, duration_s=0.005, seed=0,
            arrival_process="uniform",
        )
        requests = generate_load(spec, PAYLOADS)
        gaps = np.diff([r.arrival_s for r in requests])
        assert np.allclose(gaps, 1e-3)

    def test_relative_deadline_is_applied(self):
        spec = LoadSpec(
            rps=1000.0, duration_s=0.003, seed=0, deadline_s=5e-3
        )
        for request in generate_load(spec, PAYLOADS):
            assert request.deadline_s == pytest.approx(
                request.arrival_s + 5e-3
            )

    def test_validation(self):
        with pytest.raises(ServeError):
            LoadSpec(rps=0.0, duration_s=1.0)
        with pytest.raises(ServeError):
            LoadSpec(rps=1.0, duration_s=1.0, mix=())
        with pytest.raises(ServeError):
            LoadSpec(rps=1.0, duration_s=1.0, arrival_process="bursts")
        with pytest.raises(ServeError):
            generate_load(
                LoadSpec(rps=1.0, duration_s=1.0, mix=(("bert", 1.0),)),
                PAYLOADS,
            )

    def test_requests_carry_no_instance_dict(self):
        request = ebnn_request(0)
        assert not hasattr(request, "__dict__")
        request.attempts += 1
        assert request.attempts == 1
        with pytest.raises(AttributeError):
            request.note = "no such field"

    def test_equal_indices_share_one_payload(self):
        payloads = default_payloads(ebnn_pool=3, yolo_pool=2, seed=4)
        for model, pool in (("ebnn", 3), ("yolo", 2)):
            for i in range(2 * pool):
                assert payloads[model](i) is payloads[model](i + pool)
            assert payloads[model](0) is not payloads[model](1)

    def test_load_matches_the_per_request_view_factory(self):
        """The shared payloads change nothing a workload holds: the old
        factory indexed the image batch anew for every request."""
        ebnn_images = generate_batch(8, seed=123).normalized()
        old = dict(PAYLOADS, ebnn=lambda i: ebnn_images[i % len(ebnn_images)])
        spec = LoadSpec(rps=3000.0, duration_s=0.01, seed=9, deadline_s=2e-3,
                        mix=(("ebnn", 3.0), ("yolo", 1.0)))
        got, want = generate_load(spec, PAYLOADS), generate_load(spec, old)
        assert len(got) == len(want) > 20
        for g, w in zip(got, want):
            assert (g.request_id, g.model, g.arrival_s, g.deadline_s) == (
                w.request_id, w.model, w.arrival_s, w.deadline_s
            )
            assert g.payload.dtype == w.payload.dtype
            assert np.array_equal(g.payload, w.payload)
