"""Request and response types of the online serving layer.

A request names the model class it wants (the backend key — ``"ebnn"``
or ``"yolo"`` in the stock pool), carries its payload, and is stamped
with a *simulated-time* arrival.  The serving layer runs entirely on the
simulated clock, like every latency the repo reports: arrivals come from
the seeded load generator, service times from the DPU system's clock,
and a request's latency is ``completed_s - arrival_s`` on that clock.

Every submitted request ends in exactly one :class:`InferenceResponse`,
either ``completed`` (with the model output) or ``rejected`` (with a
:class:`RejectReason`) — the admission-control contract is that nothing
is ever dropped silently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class RejectReason(str, enum.Enum):
    """Why the server refused to complete a request."""

    #: The model's bounded queue was full at arrival (backpressure).
    QUEUE_FULL = "queue_full"
    #: The deadline passed before the request could be served.
    DEADLINE_EXCEEDED = "deadline_exceeded"
    #: The server was shutting down when the request arrived.
    SHUTTING_DOWN = "shutting_down"
    #: Every retry landed on faulted DPUs (or none survive).
    DPU_FAILURE = "dpu_failure"


@dataclass(slots=True)
class InferenceRequest:
    """One unit of online work.

    ``deadline_s`` is an *absolute* simulated time; ``None`` means the
    request waits however long it takes.  ``attempts`` counts executions
    the server spent on it (1 + retries after DPU faults).
    """

    request_id: int
    model: str
    payload: Any
    arrival_s: float = 0.0
    deadline_s: float | None = None
    attempts: int = field(default=0, compare=False)

    def expired(self, now: float) -> bool:
        return self.deadline_s is not None and now > self.deadline_s


@dataclass(slots=True)
class InferenceResponse:
    """The terminal outcome of one request."""

    request_id: int
    model: str
    status: str                      # "completed" | "rejected"
    output: Any = None
    reason: RejectReason | None = None
    arrival_s: float = 0.0
    completed_s: float = 0.0
    batch_size: int = 0
    attempts: int = 0
    deadline_missed: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "completed"

    @property
    def latency_s(self) -> float:
        return self.completed_s - self.arrival_s


def completed(
    request: InferenceRequest,
    output: Any,
    now: float,
    *,
    batch_size: int,
) -> InferenceResponse:
    """A completion response for ``request`` finishing at ``now``."""
    return InferenceResponse(
        request_id=request.request_id,
        model=request.model,
        status="completed",
        output=output,
        arrival_s=request.arrival_s,
        completed_s=now,
        batch_size=batch_size,
        attempts=request.attempts,
        deadline_missed=request.expired(now),
    )


def rejected(
    request: InferenceRequest, reason: RejectReason, now: float
) -> InferenceResponse:
    """A rejection response carrying the explicit reason."""
    return InferenceResponse(
        request_id=request.request_id,
        model=request.model,
        status="rejected",
        reason=reason,
        arrival_s=request.arrival_s,
        completed_s=now,
        attempts=request.attempts,
    )
