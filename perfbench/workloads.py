"""The benchmark's workloads, one repetition of each, and its checks.

Each workload is an open loop on the simulated clock: seeded Poisson
arrivals from :func:`repro.serve.generate_load`, served at a nominal rate
below simulated saturation and at an overload rate above it, each rate
on a freshly warmed pool.  A *repetition* serves both rates; the
benchmark repeats it until its time is up, and every repetition must
produce bit-identical simulated results.

Outputs are checked against :func:`repro.serve.run_offline` on a fresh
pool, computed once per distinct payload before timing starts.  The
simulated latencies have no reference in the paper: they are checked for
determinism, not for accuracy, and no error figure is claimed for them.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro import faults, telemetry
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.host.runtime import DpuSystem
from repro.serve import (
    BatchPolicy,
    DpuPool,
    EbnnBackend,
    InferenceRequest,
    InferenceServer,
    LoadSpec,
    YoloBackend,
    default_payloads,
    generate_load,
    run_offline,
)

from perfbench.layers import LayerProbe, counter_totals, tail_value

BACKENDS = {"ebnn": EbnnBackend, "yolo": YoloBackend}

#: Distinct payloads per model class (the loadgen's stock pool sizes).
PAYLOADS = {"ebnn": 8, "yolo": 4}


@dataclass(frozen=True)
class RatePoint:
    """One offered-load point: Poisson rate and the number of requests."""

    rps: float
    requests: int


@dataclass(frozen=True)
class Workload:
    """A traffic mix, the pools that serve it and what it must show."""

    name: str
    mix: tuple[tuple[str, float], ...]
    dpus: dict[str, int]
    policies: dict[str, BatchPolicy]
    nominal: RatePoint
    overload: RatePoint
    limit_ms: float
    system_dpus: int
    deadline_s: float | None = None
    fault_policy: str = "raise"
    #: Per-(DPU, attempt) fault rate of the injected plan (0 = no plan).
    fault_rate: float = 0.0
    #: Seed of the plan's fault decisions.  It is part of the workload,
    #: not of ``--seed``: the decisions are a fixed property of each
    #: (DPU, attempt), so a seed-dependent plan would change how many
    #: launches retry, and with it the wall time, from seed to seed.
    fault_seed: int = 0
    #: Model whose first pool DPU fails every attempt, so it exhausts its
    #: retries and the pool quarantines and heals it.
    dead_dpu_model: str | None = None
    #: Behaviours every repetition must show (see :func:`_expectations`).
    expect: tuple[str, ...] = ()
    #: Request counts of the ``--tiny`` variant the tests run.
    tiny: tuple[int, int] = field(default=(0, 0), compare=False)

    def models(self) -> list[str]:
        return [model for model, _ in self.mix]

    def tiny_variant(self) -> "Workload":
        return replace(
            self,
            nominal=replace(self.nominal, requests=self.tiny[0]),
            overload=replace(self.overload, requests=self.tiny[1]),
        )


# On a 2-CPU host at the default worker count, a YOLO request on 64 DPUs
# costs 1.3-1.5 s of wall time (launches of >= 16 DPUs fan out through
# the process pool), so the YOLO workload keeps few of them: 20 at a low
# nominal rate, where most latencies equal the service time and a few
# queue behind another request, and a short burst at 24x saturation that
# fills the queue and is refused at its bound.
YOLO_SERVE = Workload(
    name="yolo-serve",
    mix=(("yolo", 1.0),),
    dpus={"yolo": 64},
    policies={"yolo": BatchPolicy(max_batch=1, max_delay_s=2e-3, queue_cap=4)},
    nominal=RatePoint(rps=7.0, requests=20),
    overload=RatePoint(rps=600.0, requests=16),
    limit_ms=250.0,
    system_dpus=128,
    tiny=(2, 6),
)

# eBNN batches up to 256 images: 16 per DPU, so a full wave spans all 16
# DPUs and takes the same ~38 ms of simulated time as a single image.
# The overload fills the 512-request queue, so waves whose every request
# would finish past the 100 ms deadline are shed through cancel().
EBNN_SERVE = Workload(
    name="ebnn-serve",
    mix=(("ebnn", 1.0),),
    dpus={"ebnn": 16},
    policies={"ebnn": BatchPolicy(max_batch=256, max_delay_s=2e-3, queue_cap=512)},
    nominal=RatePoint(rps=3000.0, requests=2000),
    overload=RatePoint(rps=20000.0, requests=6000),
    limit_ms=100.0,
    system_dpus=32,
    deadline_s=0.1,
    expect=("shed", "queue_full"),
    tiny=(40, 2000),
)

# Both model classes on one system and one server loop, every launch on
# the tolerant retry path.  The YOLO pool stays under 16 DPUs so its
# launches run in-process, at a third of the wall time a 64-DPU request
# costs; at the overload rate eBNN waves fill all 16 DPUs and fan out
# through the process pool and its worker-side retry loop.
MIXED_FAULTS = Workload(
    name="mixed-faults",
    mix=(("ebnn", 3.0), ("yolo", 1.0)),
    dpus={"ebnn": 16, "yolo": 8},
    policies={
        "ebnn": BatchPolicy(max_batch=256, max_delay_s=2e-3, queue_cap=512),
        "yolo": BatchPolicy(max_batch=1, max_delay_s=2e-3, queue_cap=4),
    },
    nominal=RatePoint(rps=10.0, requests=160),
    overload=RatePoint(rps=12000.0, requests=600),
    limit_ms=250.0,
    system_dpus=64,
    fault_policy="retry",
    fault_rate=0.03,
    # Under this seed DPU 23, a YOLO pool member, faults on every first
    # attempt, so every YOLO launch takes the retry path once.
    fault_seed=4,
    dead_dpu_model="yolo",
    expect=("retried", "quarantined", "healed"),
    tiny=(8, 40),
)

WORKLOADS = {w.name: w for w in (YOLO_SERVE, EBNN_SERVE, MIXED_FAULTS)}


def payload_key(model: str, payload) -> tuple[str, bytes]:
    raw = np.ascontiguousarray(payload).tobytes()
    return model, hashlib.blake2b(raw, digest_size=16).digest()


def same_output(got, want) -> bool:
    """Bit-for-bit equality of two model outputs (labels or arrays)."""
    if isinstance(want, np.ndarray):
        return (
            isinstance(got, np.ndarray)
            and got.dtype == want.dtype
            and np.array_equal(got, want)
        )
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(want)
            and all(same_output(g, w) for g, w in zip(got, want))
        )
    return type(got) is type(want) and got == want


def fingerprint(result) -> tuple:
    """Every simulated quantity of a served rate point."""
    return (result.finished_s,) + tuple(
        (
            r.request_id, r.status, r.reason and r.reason.value,
            r.arrival_s, r.completed_s, r.batch_size, r.attempts,
        )
        for r in result.responses
    )


def _serial_launches():
    """Run the reference computation without the worker pool.

    Only the references use this; the served runs keep the program's
    default worker count.  Outputs are the same either way, which the
    comparison then also checks.
    """
    try:
        from repro.host.parallel import worker_scope
    except ImportError:
        return nullcontext()
    return worker_scope(1)


@dataclass
class Prepared:
    """One rate point ready to serve: a warm pool and its requests."""

    point: str
    pool: DpuPool
    requests: list[InferenceRequest]
    plan: object | None


@dataclass
class Repetition:
    """What serving both rate points once produced."""

    results: dict
    wall_s: float
    #: ``GLOBAL_METRICS`` counter deltas per rate point.
    counters: dict[str, dict[str, float]]
    problems: list[str]
    bad_outputs: int
    traced: dict | None = None

    @property
    def offered(self) -> int:
        return sum(r.offered for r in self.results.values())

    def fingerprint(self) -> tuple:
        return tuple(fingerprint(self.results[p]) for p in sorted(self.results))


class Bench:
    """One workload at one seed: set-up, references and repetitions."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        rng = np.random.default_rng(seed)
        self._nominal_seed, self._overload_seed, payload_seed = (
            int(x) for x in rng.integers(0, 2**31 - 1, size=3)
        )
        self.payloads = default_payloads(
            ebnn_pool=PAYLOADS["ebnn"], yolo_pool=PAYLOADS["yolo"],
            seed=payload_seed,
        )
        self._prepared = self._prepare()

    # ------------------------------------------------------------------ #
    # set-up
    # ------------------------------------------------------------------ #

    def _requests(self, point: RatePoint, seed: int) -> list[InferenceRequest]:
        """``point.requests`` arrivals, split over the mix in fixed counts.

        Each model class is its own seeded Poisson stream at its share of
        the rate, so a mixed workload's superposed arrivals are Poisson
        too, while its per-class counts, and with them its work, do not
        vary with the seed.
        """
        w = self.workload
        total = sum(weight for _, weight in w.mix)
        requests: list[InferenceRequest] = []
        for index, (model, weight) in enumerate(w.mix):
            count = round(point.requests * weight / total)
            rps = point.rps * weight / total
            duration = (count + 10) / rps
            while True:
                spec = LoadSpec(
                    rps=rps, duration_s=duration, seed=seed + index,
                    mix=((model, 1.0),), deadline_s=w.deadline_s,
                    first_id=index * 1_000_000,
                )
                stream = generate_load(spec, self.payloads)
                if len(stream) >= count:
                    break
                duration *= 2
            requests.extend(stream[:count])
        return sorted(requests, key=lambda r: (r.arrival_s, r.request_id))

    def _pool(self, models: list[str]) -> DpuPool:
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(self.workload.system_dpus))
        return DpuPool(
            system,
            [BACKENDS[model]() for model in models],
            dpus_per_model={m: self.workload.dpus[m] for m in models},
        )

    def _plan(self, pool: DpuPool):
        w = self.workload
        if not w.fault_rate and w.dead_dpu_model is None:
            return None
        targets = {}
        if w.dead_dpu_model is not None:
            members, _ = pool.lease(w.dead_dpu_model)
            targets[members[0].dpu_id] = faults.FaultKind.FAULT
        return faults.FaultPlan(
            seed=w.fault_seed,
            fault_rate=w.fault_rate,
            targets=targets,
            target_attempts=faults.DEFAULT_MAX_RETRIES + 1,
            default_policy="retry",
        )

    def _prepare(self) -> list[Prepared]:
        w = self.workload
        prepared = []
        for name, point, seed in (
            ("nominal", w.nominal, self._nominal_seed),
            ("overload", w.overload, self._overload_seed),
        ):
            pool = self._pool(w.models())
            prepared.append(
                Prepared(name, pool, self._requests(point, seed), self._plan(pool))
            )
        return prepared

    def references(self) -> dict:
        """Offline outputs of every distinct payload, on fresh pools."""
        references = {}
        with _serial_launches():
            for model in self.workload.models():
                pool = self._pool([model])
                requests = [
                    InferenceRequest(i, model, self.payloads[model](i))
                    for i in range(PAYLOADS[model])
                ]
                outputs = run_offline(pool, requests)
                pool.shutdown()
                for request in requests:
                    key = payload_key(model, request.payload)
                    references[key] = outputs[request.request_id]
        return references

    # ------------------------------------------------------------------ #
    # one repetition
    # ------------------------------------------------------------------ #

    def repetition(self, references: dict, *, traced: bool = False) -> Repetition:
        """Serve both rate points once and check what came back.

        The first repetition serves the pools built during set-up; later
        ones build fresh pools first, outside the timed region.
        """
        prepared = self._prepared or self._prepare()
        self._prepared = None
        w = self.workload
        probe = tracer = None
        if traced:
            probe, tracer = LayerProbe(), telemetry.Tracer()
        results, counters, wall, traced_sim_s = {}, {}, 0.0, 0.0
        if traced:
            # Installed directly: ``telemetry.tracing(tracer)`` swaps an
            # empty tracer (falsy through ``__len__``) for a fresh one.
            probe.install()
            telemetry.install_tracer(tracer)
        try:
            for item in prepared:
                server = InferenceServer(
                    item.pool, policies=w.policies, fault_policy=w.fault_policy,
                )
                cursor = tracer.sim_now if traced else 0.0
                injection = (
                    faults.fault_injection(item.plan) if item.plan else nullcontext()
                )
                before = counter_totals()
                with injection:
                    start = time.perf_counter()
                    result = server.run(item.requests)
                    wall += time.perf_counter() - start
                counters[item.point] = {
                    key: value - before[key]
                    for key, value in counter_totals().items()
                }
                if traced:
                    traced_sim_s += tracer.sim_now - cursor
                item.pool.shutdown()
                results[item.point] = result
        finally:
            if traced:
                telemetry.uninstall_tracer()
                probe.uninstall()
        problems, bad = self._check(prepared, results, references, counters)
        rep = Repetition(results, wall, counters, problems, bad)
        if traced:
            rep.traced = {
                "probe": probe, "tracer": tracer, "traced_sim_s": traced_sim_s,
            }
        return rep

    def _check(self, prepared, results, references, counters):
        problems: list[str] = []
        bad = 0
        for item in prepared:
            result = results[item.point]
            by_id = {r.request_id: r for r in item.requests}
            ids = [r.request_id for r in result.responses]
            if sorted(ids) != sorted(by_id):
                problems.append(
                    f"{item.point}: {len(ids)} responses for "
                    f"{len(by_id)} offered requests"
                )
                bad += abs(len(by_id) - len(set(ids)))
            if len(result.completed) + len(result.rejected) != len(by_id):
                problems.append(f"{item.point}: completed + rejected != offered")
            for response in result.completed:
                request = by_id.get(response.request_id)
                want = references.get(
                    payload_key(request.model, request.payload)
                ) if request is not None else None
                if want is None or not same_output(response.output, want):
                    bad += 1
        if bad:
            problems.append(f"{bad} outputs differ from the offline reference")
        for expectation in self.workload.expect:
            if not _expectations[expectation](results["overload"], counters["overload"]):
                problems.append(
                    f"expected behaviour missing at the overload rate: {expectation}"
                )
        return problems, bad


_expectations = {
    "shed": lambda result, c: c["launch.cancelled"] > 0,
    "queue_full": lambda result, c: result.rejects_by_reason().get("queue_full", 0) > 0,
    "retried": lambda result, c: c["launch.retries"] > 0,
    "quarantined": lambda result, c: c["pool.quarantined"] > 0,
    "healed": lambda result, c: c["pool.healed"] > 0,
}


def simulated_metrics(workload: Workload, results: dict) -> dict[str, float]:
    """The simulated-clock end-to-end metrics of one repetition."""
    limit_s = workload.limit_ms / 1e3
    nominal, overload = results["nominal"], results["overload"]
    latencies = sorted(r.latency_s * 1e3 for r in nominal.completed)
    within = {
        name: sum(1 for r in result.completed if r.latency_s <= limit_s)
        for name, result in results.items()
    }
    offered = sum(r.offered for r in results.values())
    failed = sum(len(r.rejected) for r in results.values())
    tail, percentile = tail_value(latencies)
    return {
        "sim_p50_ms": statistics.median(latencies),
        "sim_tail_ms": tail,
        "sim_goodput_rps": within["overload"] / overload.finished_s,
        "slo_ratio": sum(within.values()) / offered,
        "fail_ratio": failed / offered,
        "tail_percentile": percentile,
        "tail_samples": len(latencies),
    }
