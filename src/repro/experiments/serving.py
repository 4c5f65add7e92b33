"""Online-serving experiments: latency/throughput under offered load.

The thesis evaluates both networks offline (fixed batches, Section 4.x);
this driver asks the serving question the PIM measurement studies pose
for deployment: what does the simulated system sustain *online*, when
requests arrive over time, batches assemble dynamically, and admission
is bounded?  A seeded open-loop workload sweeps offered rates over a
mixed eBNN/YOLO request stream; every number is simulated-clock and
deterministic.
"""

from __future__ import annotations

from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.experiments.base import ExperimentResult, register

#: Offered request rates (per simulated second) for the sweep.
SWEEP_RATES = (500.0, 2000.0, 8000.0)

WORKLOAD_SEED = 42
DURATION_S = 0.01


@register("serving_load_sweep")
def serving_load_sweep() -> ExperimentResult:
    """Mixed eBNN/YOLO serving sweep: latency percentiles vs offered load.

    A 3:1 eBNN:YOLO request mix arrives at each offered rate for 10
    simulated milliseconds; the server batches dynamically (flush at 8
    requests or 1 ms) over a warm 4+3-DPU pool.  As load grows, eBNN
    batches fill toward ``max_batch`` (multi-image-per-DPU amortization)
    while YOLO requests — each occupying the whole lease — queue behind
    other YOLO requests (each pool runs on its own timeline), which is
    exactly the p99 growth the table shows.
    """
    from repro.host.runtime import DpuSystem
    from repro.serve import (
        BatchPolicy,
        DpuPool,
        EbnnBackend,
        InferenceServer,
        LoadSpec,
        YoloBackend,
        default_payloads,
        generate_load,
    )

    result = ExperimentResult(
        "serving_load_sweep",
        "online serving: throughput and latency vs offered load",
        [
            "offered_rps", "offered", "completed", "rejected",
            "throughput_rps", "p50_ms", "p95_ms", "p99_ms", "mean_batch",
        ],
    )
    payloads = default_payloads()
    for rps in SWEEP_RATES:
        system = DpuSystem(UPMEM_ATTRIBUTES.scaled(8))
        pool = DpuPool(
            system,
            [EbnnBackend(), YoloBackend()],
            dpus_per_model={"ebnn": 4, "yolo": 3},
        )
        spec = LoadSpec(
            rps=rps,
            duration_s=DURATION_S,
            seed=WORKLOAD_SEED,
            mix=(("ebnn", 3.0), ("yolo", 1.0)),
        )
        requests = generate_load(spec, payloads)
        server = InferenceServer(
            pool,
            policy=BatchPolicy(max_batch=8, max_delay_s=1e-3, queue_cap=32),
        )
        served = server.run(requests)
        completed = served.completed
        batch_sizes = [r.batch_size for r in completed]
        mean_batch = (
            sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
        )
        result.add_row(
            rps,
            len(requests),
            len(completed),
            len(served.rejected),
            served.throughput_rps(),
            _ms(served.latency_quantile(0.50)),
            _ms(served.latency_quantile(0.95)),
            _ms(served.latency_quantile(0.99)),
            mean_batch,
        )
        pool.shutdown()
    result.notes.append(
        "open-loop Poisson arrivals, 3:1 ebnn:yolo mix, max_batch=8, "
        "max_delay=1 ms, queue_cap=32; latencies are simulated time"
    )
    result.notes.append(
        "every request resolves: completed + rejected == offered at "
        "every load point (bounded queues reject explicitly, never drop)"
    )
    return result


def _ms(seconds: float | None) -> float:
    return 0.0 if seconds is None else seconds * 1e3
