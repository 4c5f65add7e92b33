"""Spans and the dual-clock tracer.

A :class:`Span` is one timed region of work with a name, a track (which
timeline it renders on), and free-form attributes.  Spans nest: entering a
span while another is open makes it a child, so one inference becomes a
tree — ``ebnn.run`` over ``dpu.launch`` over per-DPU ``dpu.exec`` spans.

Every span carries **two clocks**:

* *wall time* (``time.perf_counter``) — how long the host Python actually
  took, useful for finding slow spots in the simulator itself, and
* *simulated time* — seconds on the modeled hardware's clock (DPU cycles
  at 350 MHz, host-link transfer time), the axis the paper's figures are
  drawn on.

Spans are stamped on the tracer's simulated timeline
(:attr:`Tracer.sim_now`), which only the systems' simulated clocks move
(:class:`repro.dpu.clock.SimClock`): serial host work (transfers, host
compute, a synchronous launch) advances it, while parallel DPU work is
recorded with :meth:`Tracer.add_span` at the current instant without
moving it — the SIMD-across-DIMMs timing model of Section 3.1.

Tracing is off by default.  :func:`current_tracer` returns ``None`` when
disabled, and the module-level :func:`span` helper degrades to a shared
no-op object, so instrumented code pays one global read per call site
when telemetry is off.
"""

from __future__ import annotations

import time
from typing import Iterator

#: The default track serial host-side work renders on.
HOST_TRACK: tuple = ("host",)


class Span:
    """One timed region: name, track, attributes, wall + simulated clocks."""

    __slots__ = (
        "name", "category", "track", "attributes",
        "wall_start", "wall_end", "sim_start", "sim_end",
        "children", "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        *,
        category: str = "host",
        track: tuple = HOST_TRACK,
        **attributes,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.track = track
        self.attributes = attributes
        self.wall_start: float | None = None
        self.wall_end: float | None = None
        self.sim_start: float | None = None
        self.sim_end: float | None = None
        self.children: list[Span] = []

    #: Live spans belong to an installed tracer (the no-op span says False).
    live = True

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attributes.update(attributes)
        return self

    @property
    def wall_seconds(self) -> float:
        if self.wall_start is None:
            return 0.0
        end = self.wall_end if self.wall_end is not None else self.wall_start
        return end - self.wall_start

    @property
    def sim_seconds(self) -> float:
        if self.sim_start is None:
            return 0.0
        end = self.sim_end if self.sim_end is not None else self.sim_start
        return end - self.sim_start

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, track={self.track}, "
            f"sim={self.sim_seconds:.3e}s, wall={self.wall_seconds:.3e}s)"
        )


class _NoopSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()
    live = False

    def set(self, **attributes) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The singleton no-op span; instrumented sites share it, so the disabled
#: path allocates nothing.
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects a forest of spans on one simulated timeline."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        #: The timeline's current instant; only SimClock advances move it.
        self.sim_now: float = 0.0

    # ------------------------------------------------------------------ #
    # span creation
    # ------------------------------------------------------------------ #

    def span(
        self,
        name: str,
        *,
        category: str = "host",
        track: tuple = HOST_TRACK,
        **attributes,
    ) -> Span:
        """A new span to use as a context manager (nests under the current)."""
        return Span(self, name, category=category, track=track, **attributes)

    def add_span(
        self,
        name: str,
        *,
        category: str = "dpu",
        track: tuple = HOST_TRACK,
        sim_duration: float = 0.0,
        parent: Span | None = None,
        **attributes,
    ) -> Span:
        """Record an already-complete span at the current simulated instant.

        Used for work that ran *in parallel* on another track (a DPU, a
        tasklet): the span starts at ``sim_now`` and lasts
        ``sim_duration`` simulated seconds, but the timeline does not
        move — the system's clock advances once by the slowest member.
        """
        span = Span(self, name, category=category, track=track, **attributes)
        now = time.perf_counter()
        span.wall_start = span.wall_end = now
        span.sim_start = self.sim_now
        span.sim_end = self.sim_now + sim_duration
        self._attach(span, parent)
        return span

    # ------------------------------------------------------------------ #
    # stack discipline
    # ------------------------------------------------------------------ #

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def _attach(self, span: Span, parent: Span | None = None) -> None:
        parent = parent if parent is not None else self.current
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)

    def _open(self, span: Span) -> None:
        span.wall_start = time.perf_counter()
        span.sim_start = self.sim_now
        self._attach(span)
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        span.wall_end = time.perf_counter()
        if span.sim_end is None:
            span.sim_end = self.sim_now
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def all_spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first in recording order."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find(self, name: str) -> list[Span]:
        """All spans with the given name."""
        return [s for s in self.all_spans() if s.name == name]

    def __len__(self) -> int:
        return sum(1 for _ in self.all_spans())


#: The installed tracer (None = tracing disabled, the default).
_ACTIVE: Tracer | None = None


def current_tracer() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


def install_tracer(tracer: Tracer) -> Tracer:
    """Enable tracing through the given tracer (returned for chaining)."""
    global _ACTIVE
    _ACTIVE = tracer
    return tracer


def uninstall_tracer() -> Tracer | None:
    """Disable tracing; returns the tracer that was active, if any."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


class tracing:
    """Context manager enabling tracing for a block::

        with telemetry.tracing() as tracer:
            runner.run(images)
        write_chrome_trace(tracer, "trace.json")
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        # Not ``tracer or Tracer()``: an empty tracer is falsy (__len__).
        self._tracer = tracer if tracer is not None else Tracer()
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._previous = _ACTIVE
        install_tracer(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False


def span(name: str, **kwargs) -> Span | _NoopSpan:
    """A span on the active tracer, or the shared no-op when disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **kwargs)
