"""End-to-end latency assembly for the CNN mappings.

Combines the three cost components of a PIM-accelerated inference:

* host<->DPU transfer time over the memory link,
* DPU execution time (from the simulator's cycle accounting), and
* host-side compute (the layers kept off the PIM).

The thesis reports DPU completion times; the transfer/host components here
let the examples and ablations show full-pipeline numbers and are
documented model constants, not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.dpu.attributes import UPMEM_ATTRIBUTES, UpmemAttributes
from repro.errors import MappingError
from repro.host.transfer import HOST_LINK_BYTES_PER_SECOND, transfer_seconds

_M_BREAKDOWN_TOTAL = telemetry.GLOBAL_METRICS.histogram(
    "breakdown.total_seconds",
    "end-to-end seconds per assembled LatencyBreakdown",
    buckets=tuple(10.0 ** e for e in range(-9, 3)),
)


@dataclass(frozen=True)
class LatencyBreakdown:
    """One inference's latency decomposed by pipeline stage."""

    transfer_seconds: float
    dpu_seconds: float
    host_seconds: float

    def __post_init__(self) -> None:
        for name, value in (
            ("transfer", self.transfer_seconds),
            ("dpu", self.dpu_seconds),
            ("host", self.host_seconds),
        ):
            if value < 0:
                raise MappingError(f"negative {name} time: {value}")

    @property
    def total_seconds(self) -> float:
        return self.transfer_seconds + self.dpu_seconds + self.host_seconds

    @property
    def dpu_fraction(self) -> float:
        total = self.total_seconds
        return self.dpu_seconds / total if total else 0.0

    def scaled_frequency(
        self,
        new_frequency_hz: float,
        attributes: UpmemAttributes = UPMEM_ATTRIBUTES,
    ) -> "LatencyBreakdown":
        """What-if: rescale the DPU component to a different clock.

        Models the Section 4.3.4 improvement of raising the DPU clock to
        the originally announced 600 MHz.
        """
        if new_frequency_hz <= 0:
            raise MappingError(f"bad frequency: {new_frequency_hz}")
        factor = attributes.frequency_hz / new_frequency_hz
        return LatencyBreakdown(
            transfer_seconds=self.transfer_seconds,
            dpu_seconds=self.dpu_seconds * factor,
            host_seconds=self.host_seconds,
        )

    def emit(self) -> "LatencyBreakdown":
        """Record this breakdown on the active span (chainable).

        The stage-wise decomposition lands as attributes of the innermost
        open span, so any traced pipeline gets per-phase numbers for free.
        """
        _M_BREAKDOWN_TOTAL.observe(self.total_seconds)
        tracer = telemetry.current_tracer()
        if tracer is not None and tracer.current is not None:
            tracer.current.set(
                transfer_seconds=self.transfer_seconds,
                dpu_seconds=self.dpu_seconds,
                host_seconds=self.host_seconds,
                total_seconds=self.total_seconds,
                dpu_fraction=self.dpu_fraction,
            )
        return self


def breakdown_from_cycles(
    dpu_cycles: float,
    *,
    transfer_bytes: int = 0,
    host_seconds: float = 0.0,
    attributes: UpmemAttributes = UPMEM_ATTRIBUTES,
) -> LatencyBreakdown:
    """Assemble a breakdown from simulator cycles plus host-side costs."""
    return LatencyBreakdown(
        transfer_seconds=transfer_seconds(transfer_bytes),
        dpu_seconds=attributes.cycles_to_seconds(dpu_cycles),
        host_seconds=host_seconds,
    ).emit()


def speedup(baseline_seconds: float, accelerated_seconds: float) -> float:
    """Conventional speedup ratio with guarding."""
    if baseline_seconds < 0 or accelerated_seconds <= 0:
        raise MappingError(
            f"bad speedup inputs: {baseline_seconds} / {accelerated_seconds}"
        )
    return baseline_seconds / accelerated_seconds
