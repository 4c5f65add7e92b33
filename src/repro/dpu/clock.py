"""The simulated clock of one PIM system.

A :class:`~repro.host.runtime.DpuSystem` owns one :class:`SimClock`, and
every DPU it creates holds it, so whatever moves data or work through
those DPUs reaches the same clock: host<->DPU transfers, launches and
host compute advance it, traced or not.  A DPU built on its own gets a
clock of its own.

The clock sums in exact fixed point (2**-128 s ticks), so a total does
not depend on the order or grouping of its advances: a layer charged
wave by wave and one charged all at once read the same time.  When a
tracer is installed, each advance also moves :attr:`Tracer.sim_now` by
the same amount; nothing else moves it.
"""

from __future__ import annotations

from repro import telemetry

_SCALE = 2.0 ** 128
_ONE = 1 << 128


class SimClock:
    """Simulated seconds since the system was built (:attr:`now`)."""

    __slots__ = ("now", "_ticks")

    def __init__(self) -> None:
        self.now = 0.0
        self._ticks = 0

    def advance(self, seconds: float, times: int = 1) -> None:
        """Move forward by ``times`` spans of ``seconds`` each; a span
        that is not positive leaves the clock where it is."""
        instant = self._ticks + times * int(seconds * _SCALE)
        if instant <= self._ticks:
            return
        before, self._ticks = self.now, instant
        self.now = instant / _ONE
        tracer = telemetry.current_tracer()
        if tracer is not None:
            tracer.sim_now += self.now - before
