"""Unified telemetry: spans, metrics, and trace exporters.

Three pieces, designed to be wired through every layer of the simulator:

* :mod:`repro.telemetry.spans` — a dual-clock (wall + simulated time)
  ``Span``/``Tracer`` API.  Tracing is opt-in; when disabled,
  instrumented code sees :data:`NOOP_SPAN` and pays one global read.
* :mod:`repro.telemetry.metrics` — an always-on process-wide
  :data:`GLOBAL_METRICS` registry of counters, gauges and histograms.
* :mod:`repro.telemetry.export` — Chrome trace-event JSON (open the file
  in ``chrome://tracing`` or Perfetto) and a plain-text tree renderer.

Typical use::

    from repro import telemetry

    with telemetry.tracing() as tracer:
        result = runner.run(images)
    telemetry.write_chrome_trace(tracer, "trace.json")
    print(telemetry.GLOBAL_METRICS.render_text())

This package deliberately imports nothing from the rest of ``repro``
except :mod:`repro.errors`, so any module may import it without cycles.
"""

from repro.telemetry.export import (
    chrome_trace,
    chrome_trace_events,
    render_tree,
    write_chrome_trace,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    GLOBAL_METRICS,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.telemetry.spans import (
    HOST_TRACK,
    NOOP_SPAN,
    Span,
    Tracer,
    current_tracer,
    install_tracer,
    span,
    tracing,
    uninstall_tracer,
)

__all__ = [
    "HOST_TRACK",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "current_tracer",
    "install_tracer",
    "span",
    "tracing",
    "uninstall_tracer",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "GLOBAL_METRICS",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "chrome_trace",
    "chrome_trace_events",
    "render_tree",
    "write_chrome_trace",
]
