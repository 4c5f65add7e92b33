"""Deterministic load generation for the serving layer.

Arrivals are drawn from a *seeded* process at a fixed offered rate, so a
``(LoadSpec, payload set)`` pair names one exact workload: the same
request ids, models, payloads, and simulated arrival timestamps every
run, on every machine.  That determinism is what lets the CI smoke job
assert exact completed/rejected counts and lets the benchmark's latency
percentiles be compared across commits.

Two arrival processes are supported:

* ``"poisson"`` — exponential inter-arrival gaps (the open-loop model
  serving benchmarks default to; bursts exercise the queue bounds),
* ``"uniform"`` — evenly spaced arrivals at exactly ``1/rps`` (useful in
  tests that reason about flush timing edge cases).

Payloads come from small pre-generated pools (seeded MNIST-style digit
batches for eBNN, synthetic scenes for YOLO) cycled per model, so a
10 000-request workload does not hold 10 000 distinct images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.datasets.images import generate_scene
from repro.datasets.mnist import generate_batch
from repro.errors import ServeError
from repro.serve.request import InferenceRequest

#: Supported arrival processes.
ARRIVAL_PROCESSES = ("poisson", "uniform")


@dataclass(frozen=True)
class LoadSpec:
    """One offered-load point: rate, duration, mix, and deadlines.

    ``mix`` weights route requests across model classes; weights are
    normalized, so ``(("ebnn", 3), ("yolo", 1))`` is 75/25.
    ``deadline_s`` is *relative* to each request's arrival (None = no
    deadline).
    """

    rps: float
    duration_s: float
    seed: int = 0
    mix: tuple[tuple[str, float], ...] = (("ebnn", 1.0),)
    arrival_process: str = "poisson"
    deadline_s: float | None = None
    start_s: float = 0.0
    first_id: int = 0

    def __post_init__(self) -> None:
        if self.rps <= 0:
            raise ServeError(f"rps must be positive, got {self.rps}")
        if self.duration_s <= 0:
            raise ServeError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        if not self.mix:
            raise ServeError("the model mix cannot be empty")
        for model, weight in self.mix:
            if weight <= 0:
                raise ServeError(
                    f"mix weight for {model!r} must be positive, got {weight}"
                )
        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise ServeError(
                f"unknown arrival process {self.arrival_process!r}; "
                f"use one of {ARRIVAL_PROCESSES}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServeError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )


def default_payloads(
    *,
    ebnn_pool: int = 8,
    yolo_pool: int = 4,
    yolo_size: int = 64,
    seed: int = 123,
) -> dict[str, Callable[[int], np.ndarray]]:
    """Payload factories for the stock model classes.

    Each factory maps a per-model sequence number to a payload, cycling
    a small deterministic pool: (28, 28) float images for ``ebnn``,
    (3, size, size) CHW scenes for ``yolo``.
    """
    # One view per image, shared by every request that cycles onto it.
    ebnn_images = list(generate_batch(ebnn_pool, seed=seed).normalized())
    yolo_scenes = [
        generate_scene(yolo_size, seed=seed + i) for i in range(yolo_pool)
    ]
    return {
        "ebnn": lambda i: ebnn_images[i % len(ebnn_images)],
        "yolo": lambda i: yolo_scenes[i % len(yolo_scenes)],
    }


def generate_load(
    spec: LoadSpec,
    payloads: dict[str, Callable[[int], np.ndarray]],
) -> list[InferenceRequest]:
    """Materialize one workload from a spec and payload factories."""
    models = [model for model, _ in spec.mix]
    for model in models:
        if model not in payloads:
            raise ServeError(
                f"no payload factory for model {model!r}; "
                f"have {sorted(payloads)}"
            )
    weights = np.array([w for _, w in spec.mix], dtype=np.float64)
    probabilities = weights / weights.sum()

    rng = np.random.default_rng(spec.seed)
    requests: list[InferenceRequest] = []
    per_model_count = {model: 0 for model in models}
    end = spec.start_s + spec.duration_s
    t = spec.start_s
    while True:
        if spec.arrival_process == "poisson":
            t += rng.exponential(1.0 / spec.rps)
        else:
            t += 1.0 / spec.rps
        if t > end:
            break
        model = models[int(rng.choice(len(models), p=probabilities))]
        sequence = per_model_count[model]
        per_model_count[model] += 1
        requests.append(
            InferenceRequest(
                request_id=spec.first_id + len(requests),
                model=model,
                payload=payloads[model](sequence),
                arrival_s=t,
                deadline_s=(
                    t + spec.deadline_s
                    if spec.deadline_s is not None else None
                ),
            )
        )
    return requests
