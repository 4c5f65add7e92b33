"""Per-layer timing taken from outside the program.

A :class:`LayerProbe` wraps the public functions and methods each layer
of :mod:`repro` exposes, for the length of one traced repetition, and
restores them afterwards.  Every wrapped call is a frame on one stack, so
a layer's *self* time excludes the nested calls the probe also times,
and the self times of all frames add up to the wall time spent inside
them.  Each layer belongs to one of PrIM's four stages (CPU->DPU, DPU,
host, DPU->CPU), which gives the stage breakdown on the wall clock; the
simulated-clock side comes from launch reports, batch executions and the
transfer spans of the program's own tracer.

Targets that a later version of the program no longer has are skipped,
so their metrics read 0 instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from repro import telemetry

#: Stage of every timed layer name (PrIM's four-way breakdown).
STAGES = ("cpu_dpu", "dpu", "host", "dpu_cpu")

#: Per-layer metrics, by name: the layer measured, the end-to-end metric
#: a change to that layer should move, and the workloads on which it
#: should.  ``BENCHMARK.json`` lists the same names with units.
LAYER_MAP = {
    "serve.batches": ("serve", "sim_goodput_rps", "ebnn-serve"),
    "serve.batch_size.mean": ("serve", "sim_goodput_rps", "ebnn-serve"),
    "serve.queue_wait_ms.p50": ("serve", "sim_tail_ms", "yolo-serve"),
    "serve.queue_wait_ms.tail": ("serve", "sim_tail_ms", "yolo-serve"),
    "serve.service_ms.mean": ("serve", "sim_p50_ms", "all"),
    "serve.run_batch.wall_s": ("serve", "wall_s", "all"),
    "serve.shed": ("serve", "fail_ratio", "ebnn-serve mixed-faults"),
    "serve.retried": ("serve", "fail_ratio", "ebnn-serve mixed-faults"),
    "serve.rejected.queue_full": ("serve", "fail_ratio", "ebnn-serve mixed-faults"),
    "serve.rejected.deadline": ("serve", "fail_ratio", "ebnn-serve mixed-faults"),
    "host.launch.calls": ("host.runtime", "wall_s", "yolo-serve"),
    "host.launch.dpus": ("host.runtime", "wall_s", "yolo-serve"),
    "host.launch.wall_s": ("host.runtime", "wall_s", "yolo-serve"),
    "host.launch.sim_s": ("host.runtime", "wall_s", "yolo-serve"),
    "host.launch_async.wall_s": ("host.runtime", "wall_s", "ebnn-serve"),
    "host.cancel.calls": ("host.runtime", "wall_s", "ebnn-serve"),
    "host.cancel.wall_s": ("host.runtime", "wall_s", "ebnn-serve"),
    "host.load.calls": ("host.runtime", "wall_s", "yolo-serve"),
    "host.load.wall_s": ("host.runtime", "wall_s", "yolo-serve"),
    "host.xfer.to_dpu.calls": ("host.transfer", "wall_s", "yolo-serve"),
    "host.xfer.to_dpu.bytes": ("host.transfer", "wall_s", "yolo-serve"),
    "host.xfer.to_dpu.wall_s": ("host.transfer", "wall_s", "yolo-serve"),
    "host.xfer.from_dpu.calls": ("host.transfer", "wall_s", "yolo-serve"),
    "host.xfer.from_dpu.bytes": ("host.transfer", "wall_s", "yolo-serve"),
    "host.xfer.from_dpu.wall_s": ("host.transfer", "wall_s", "yolo-serve"),
    "host.xfer.sim_s": ("host.transfer", "sim_p50_ms", "all"),
    "host.parallel.launches": ("host.parallel", "wall_s", "yolo-serve ebnn-serve mixed-faults"),
    "host.parallel.wall_s": ("host.parallel", "wall_s", "yolo-serve ebnn-serve mixed-faults"),
    "dpu.exec.calls": ("dpu", "wall_s", "yolo-serve ebnn-serve"),
    "dpu.exec.wall_s": ("dpu", "wall_s", "yolo-serve ebnn-serve"),
    "dpu.exec.sim_cycles": ("dpu", "sim_p50_ms", "all"),
    "core.yolo.cost_charge.calls": ("core.mapping_yolo", "wall_s", "yolo-serve"),
    "core.yolo.cost_charge.wall_s": ("core.mapping_yolo", "wall_s", "yolo-serve"),
    "core.yolo.kernel.wall_s": ("core.mapping_yolo", "wall_s", "yolo-serve"),
    "core.ebnn.cost_charge.calls": ("core.mapping_ebnn", "wall_s", "ebnn-serve"),
    "core.ebnn.cost_charge.wall_s": ("core.mapping_ebnn", "wall_s", "ebnn-serve"),
    "core.ebnn.kernel.wall_s": ("core.mapping_ebnn", "wall_s", "ebnn-serve"),
    "nn.quantize.wall_s": ("nn", "wall_s", "yolo-serve"),
    "nn.im2col.wall_s": ("nn", "wall_s", "yolo-serve"),
    "nn.yolo.forward.wall_s": ("nn", "wall_s", "yolo-serve"),
    "nn.ebnn.pack.wall_s": ("nn", "wall_s", "ebnn-serve"),
    "nn.ebnn.classify.wall_s": ("nn", "wall_s", "ebnn-serve"),
    "faults.injected": ("faults", "fail_ratio", "mixed-faults"),
    "launch.retries": ("faults", "wall_s", "mixed-faults"),
    "launch.degraded": ("faults", "fail_ratio", "mixed-faults"),
    "pool.quarantined": ("faults", "fail_ratio", "mixed-faults"),
    "pool.healed": ("faults", "fail_ratio", "mixed-faults"),
    "telemetry.overhead": ("telemetry", "wall_s", "all"),
    "telemetry.spans": ("telemetry", "wall_s", "all"),
    "telemetry.sim_gap_ms": ("telemetry", "sim_p50_ms", "all"),
    **{
        f"stage.{stage}.{clock}": ("stages", "wall_s" if clock == "wall_s" else "sim_p50_ms", "all")
        for stage in STAGES
        for clock in ("wall_s", "sim_s")
    },
    "stage.coverage": ("stages", "wall_s", "all"),
}

#: ``GLOBAL_METRICS`` counters the benchmark reads as deltas over a run.
COUNTERS = {
    "faults.injected": "dpu.faults",
    "launch.retries": "launch.retries",
    "launch.degraded": "launch.degraded",
    "pool.quarantined": "pool.quarantined",
    "pool.healed": "pool.healed",
    "serve.retried": "serve.request_retries",
    "launch.cancelled": "launch.cancelled",
}

_KERNEL_LAYER = {
    "yolo_gemm_row": "core.yolo.kernel",
    "ebnn_conv_pool": "core.ebnn.kernel",
}


def counter_total(name: str) -> float:
    """Sum of a ``GLOBAL_METRICS`` counter over its labels (0 if absent)."""
    try:
        metric = telemetry.GLOBAL_METRICS.get(name)
    except telemetry.MetricsError:
        return 0.0
    return float(sum(node.value for node in metric.walk()))


def counter_totals() -> dict[str, float]:
    return {key: counter_total(name) for key, name in COUNTERS.items()}


def _nbytes(data) -> int:
    return int(getattr(data, "nbytes", None) or len(data))


def _resolve(dotted: str):
    """``module:attr.attr`` -> (owner, attribute name), or None if gone."""
    module_name, _, path = dotted.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class LayerProbe:
    """Frames, counts and samples of one traced repetition."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.stage_of: dict[str, str] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.queue_wait_ms: list[float] = []
        self.service_ms: list[float] = []
        self.batch_sizes: list[int] = []
        self.layers: dict[int, dict] = {}
        self._layer: dict | None = None
        self._stack: list[list[float]] = []
        self._open: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # ------------------------------------------------------------------ #
    # frames
    # ------------------------------------------------------------------ #

    def _timed(self, fn, name, stage, *, before=None, after=None, name_of=None):
        """Wrap ``fn`` as one frame of layer ``name`` in ``stage``.

        Hooks receive the call's arguments by parameter name; ``before``
        may replace one of them.
        """
        probe = self
        signature = (
            inspect.signature(fn) if before or after or name_of else None
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call = signature.bind(*args, **kwargs) if signature else None
            label = name_of(call.arguments) if name_of else name
            if probe._open[label]:
                # A layer calling into itself (read_symbol_array ->
                # read_symbol) is one call of that layer.
                return fn(*args, **kwargs)
            if before is not None:
                before(call.arguments)
                args, kwargs = call.args, call.kwargs
            frame = [0.0]
            probe._stack.append(frame)
            probe._open[label] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                probe._stack.pop()
                probe._open[label] -= 1
                if probe._stack:
                    probe._stack[-1][0] += elapsed
                probe.calls[label] += 1
                probe.total_s[label] += elapsed
                probe.self_s[label] += elapsed - frame[0]
                probe.stage_of[label] = stage
            if after is not None:
                after(result, call.arguments)
            return result

        return wrapper

    def _patch_method(self, dotted, name, stage, **hooks) -> None:
        """Wrap a method, staticmethod or classmethod on its class."""
        target = _resolve(dotted)
        if target is None:
            return
        owner, attr = target
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            patched = type(raw)(self._timed(raw.__func__, name, stage, **hooks))
        else:
            patched = self._timed(raw, name, stage, **hooks)
        setattr(owner, attr, patched)
        self._undo.append((owner, attr, raw))

    def _patch_function(self, dotted, name, stage, **hooks) -> None:
        """Wrap a module function under every name ``repro`` binds it to."""
        target = _resolve(dotted)
        if target is None:
            return
        original = getattr(*target)
        patched = self._timed(original, name, stage, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, patched)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        c = self.counts
        m = self._patch_method
        f = self._patch_function

        def run_batch_before(a):
            self.batch_sizes.append(len(a["requests"]))
            self.queue_wait_ms.extend(
                (a["now"] - r.arrival_s) * 1e3 for r in a["requests"]
            )

        def run_batch_after(execution, a):
            self.service_ms.append(execution.seconds * 1e3)
            c["serve.shed"] += len(execution.shed)

        for backend in ("EbnnBackend", "YoloBackend"):
            m(f"repro.serve.pool:{backend}.run_batch", "serve.run_batch", "host",
              before=run_batch_before, after=run_batch_after)

        def launch_before(a):
            c["host.launch.dpus"] += len(a["self"])

        def launch_after(report, a):
            c["host.launch.sim_s"] += report.seconds
            self._note_report(report)
            if self._layer is not None:
                self._layer["waves"] += 1
                self._layer["dpus_per_wave"] = max(
                    self._layer["dpus_per_wave"], len(a["self"])
                )
                self._layer["sim_cycles"] += report.cycles
                self._layer["sim_s"] += report.seconds

        m("repro.host.runtime:DpuSet.launch", "host.launch", "dpu",
          before=launch_before, after=launch_after)
        m("repro.host.runtime:DpuSet.launch_async", "host.launch_async", "dpu")
        m("repro.host.runtime:AsyncLaunch.wait", "host.wait", "dpu",
          after=lambda report, a: self._note_report(report))
        m("repro.host.runtime:AsyncLaunch.cancel", "host.cancel", "dpu")
        m("repro.host.runtime:DpuSet.load", "host.load", "cpu_dpu")
        f("repro.host.parallel:launch_parallel", "host.parallel", "dpu")

        def moved(direction, size):
            def before(a):
                c[f"host.xfer.{direction}.bytes"] += size(a)
            return before

        f("repro.host.transfer:copy_to", "host.xfer.to_dpu", "cpu_dpu",
          before=moved("to_dpu", lambda a: _nbytes(a["data"]) * len(a["dpus"])))
        f("repro.host.transfer:scatter_rows", "host.xfer.to_dpu", "cpu_dpu",
          before=moved("to_dpu", lambda a: sum(_nbytes(r) for r in a["rows"])))
        f("repro.host.transfer:gather_rows", "host.xfer.from_dpu", "dpu_cpu",
          before=moved("from_dpu", lambda a: a["length"] * len(a["dpus"])))
        f("repro.host.transfer:copy_from", "host.xfer.from_dpu", "dpu_cpu",
          before=moved("from_dpu", lambda a: a["n_bytes"]))
        m("repro.dpu.device:Dpu.read_symbol", "host.xfer.from_dpu", "dpu_cpu",
          before=moved("from_dpu", lambda a: a["n_bytes"]))
        m("repro.dpu.device:Dpu.read_symbol_array", "host.xfer.from_dpu", "dpu_cpu",
          before=moved(
              "from_dpu", lambda a: np.dtype(a["dtype"]).itemsize * a["count"]
          ))

        def kernel_layer(a):
            kernel = getattr(a["self"].image, "kernel_name", None)
            return _KERNEL_LAYER.get(kernel, "dpu.exec")

        m("repro.dpu.device:Dpu.launch", "dpu.exec", "dpu", name_of=kernel_layer)
        f("repro.core.mapping_yolo:charge_gemm_row_costs", "core.yolo.cost_charge", "dpu")
        f("repro.core.mapping_ebnn:charge_ebnn_costs", "core.ebnn.cost_charge", "dpu")

        m("repro.nn.quantize:QuantParams.from_tensor", "nn.quantize", "host")
        m("repro.nn.quantize:QuantParams.quantize", "nn.quantize", "host")
        f("repro.nn.im2col:im2col", "nn.im2col", "host")
        f("repro.nn.binary:pack_image", "nn.ebnn.pack", "host")
        m("repro.nn.models.ebnn:EbnnModel.classify_features", "nn.ebnn.classify", "host")

        def forward_before(a):
            if a.get("conv_fn") is not None:
                a["conv_fn"] = self._layer_rows(a["conv_fn"])

        m("repro.nn.models.darknet:Yolov3Model.forward", "nn.yolo.forward", "host",
          before=forward_before)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _note_report(self, report) -> None:
        # Cancelled launches never reach here: their work was rolled back.
        self.counts["stage.dpu.sim_s"] += report.seconds
        self.counts["dpu.exec.sim_cycles"] += float(sum(report.per_dpu_cycles))

    def _layer_rows(self, conv_fn):
        """Wrap ``forward``'s conv hook to keep one row per YOLO conv layer."""

        def conv(plan, a, b):
            row = self.layers.get(plan.layer_index)
            if row is None:
                gemm = plan.gemm
                row = self.layers[plan.layer_index] = {
                    "layer": plan.layer_index, "m": gemm.m, "n": gemm.n,
                    "k": gemm.k, "calls": 0, "waves": 0, "dpus_per_wave": 0,
                    "sim_cycles": 0.0, "sim_s": 0.0, "wall_s": 0.0,
                }
            outer, self._layer = self._layer, row
            start = time.perf_counter()
            try:
                return conv_fn(plan, a, b)
            finally:
                row["wall_s"] += time.perf_counter() - start
                row["calls"] += 1
                self._layer = outer

        return conv

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def layer_rows(self) -> list[dict]:
        """Per-request means of every YOLO conv layer the run executed."""
        rows = []
        for index in sorted(self.layers):
            row = dict(self.layers[index])
            calls = max(row.pop("calls"), 1)
            for key in ("waves", "sim_cycles", "sim_s", "wall_s"):
                row[key] = row[key] / calls
            row["requests"] = calls
            rows.append(row)
        return rows

    def metrics(
        self,
        *,
        traced_wall_s: float,
        untraced_wall_s: float,
        tracer,
        traced_sim_s: float,
        counter_deltas: dict[str, float],
        rejects: dict[str, int],
    ) -> dict[str, float]:
        """Every per-layer metric of :data:`LAYER_MAP`, by name."""
        calls, self_s, c = self.calls, self.self_s, self.counts
        xfer_sim_s = {"to_dpu": 0.0, "from_dpu": 0.0}
        for span in tracer.all_spans():
            if span.category == "transfer":
                direction = span.attributes.get("direction")
                if direction in xfer_sim_s:
                    xfer_sim_s[direction] += span.sim_seconds
        exec_names = ("dpu.exec", "core.yolo.kernel", "core.ebnn.kernel")
        waits = sorted(self.queue_wait_ms)
        values = {
            "serve.batches": calls["serve.run_batch"],
            "serve.batch_size.mean": _mean(self.batch_sizes),
            "serve.queue_wait_ms.p50": statistics.median(waits) if waits else 0.0,
            "serve.queue_wait_ms.tail": tail_value(waits)[0] if waits else 0.0,
            "serve.service_ms.mean": _mean(self.service_ms),
            "serve.run_batch.wall_s": self_s["serve.run_batch"],
            "serve.shed": c["serve.shed"],
            "serve.rejected.queue_full": rejects.get("queue_full", 0),
            "serve.rejected.deadline": rejects.get("deadline_exceeded", 0),
            "host.launch.calls": calls["host.launch"],
            "host.launch.dpus": c["host.launch.dpus"],
            "host.launch.wall_s": self_s["host.launch"],
            "host.launch.sim_s": c["host.launch.sim_s"],
            "host.launch_async.wall_s": self_s["host.launch_async"],
            "host.cancel.calls": calls["host.cancel"],
            "host.cancel.wall_s": self_s["host.cancel"],
            "host.load.calls": calls["host.load"],
            "host.load.wall_s": self_s["host.load"],
            "host.xfer.sim_s": xfer_sim_s["to_dpu"] + xfer_sim_s["from_dpu"],
            "host.parallel.launches": calls["host.parallel"],
            "host.parallel.wall_s": self_s["host.parallel"],
            "dpu.exec.calls": sum(calls[n] for n in exec_names),
            "dpu.exec.wall_s": sum(self.total_s[n] for n in exec_names),
            "dpu.exec.sim_cycles": c["dpu.exec.sim_cycles"],
            "core.yolo.cost_charge.calls": calls["core.yolo.cost_charge"],
            "core.yolo.cost_charge.wall_s": self_s["core.yolo.cost_charge"],
            "core.yolo.kernel.wall_s": self_s["core.yolo.kernel"],
            "core.ebnn.cost_charge.calls": calls["core.ebnn.cost_charge"],
            "core.ebnn.cost_charge.wall_s": self_s["core.ebnn.cost_charge"],
            "core.ebnn.kernel.wall_s": self_s["core.ebnn.kernel"],
            "nn.quantize.wall_s": self_s["nn.quantize"],
            "nn.im2col.wall_s": self_s["nn.im2col"],
            "nn.yolo.forward.wall_s": self_s["nn.yolo.forward"],
            "nn.ebnn.pack.wall_s": self_s["nn.ebnn.pack"],
            "nn.ebnn.classify.wall_s": self_s["nn.ebnn.classify"],
            "telemetry.overhead": traced_wall_s / untraced_wall_s,
            "telemetry.spans": len(tracer),
            # The server's busy time (its makespan minus idle time) against
            # the simulated time the tracer's cursor advanced.
            "telemetry.sim_gap_ms": abs(sum(self.service_ms) - traced_sim_s * 1e3),
        }
        for direction in ("to_dpu", "from_dpu"):
            key = f"host.xfer.{direction}"
            values[f"{key}.calls"] = calls[key]
            values[f"{key}.bytes"] = c[f"{key}.bytes"]
            values[f"{key}.wall_s"] = self_s[key]
        values.update(counter_deltas)
        stage_wall = {stage: 0.0 for stage in STAGES}
        for name, stage in self.stage_of.items():
            stage_wall[stage] += self_s[name]
        stage_sim = {
            "cpu_dpu": xfer_sim_s["to_dpu"],
            "dpu": c["stage.dpu.sim_s"],
            "host": sum(self.service_ms) / 1e3 - c["stage.dpu.sim_s"],
            "dpu_cpu": xfer_sim_s["from_dpu"],
        }
        for stage in STAGES:
            values[f"stage.{stage}.wall_s"] = stage_wall[stage]
            values[f"stage.{stage}.sim_s"] = stage_sim[stage]
        values["stage.coverage"] = sum(stage_wall.values()) / traced_wall_s
        return {name: float(values[name]) for name in LAYER_MAP}


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def tail_value(sorted_values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With ten samples or fewer no
    percentile qualifies, and the smallest sample stands in.
    """
    n = len(sorted_values)
    index = max(n - 11, 0)
    return sorted_values[index], 100.0 * (index + 1) / n
