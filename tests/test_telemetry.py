"""Tests for repro.telemetry (spans, metrics, exporters, CLI wiring)."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import metrics as metrics_mod
from repro.telemetry import spans as spans_mod
from repro.dpu.assembler import assemble
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.clock import SimClock
from repro.dpu.device import DpuImage
from repro.host.runtime import DpuSystem

SMALL = UPMEM_ATTRIBUTES.scaled(8)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing disabled."""
    telemetry.uninstall_tracer()
    yield
    telemetry.uninstall_tracer()


def program_image(n_nops: int = 10) -> DpuImage:
    return DpuImage(
        name=f"nops{n_nops}",
        program=assemble("nop\n" * n_nops + "halt"),
    )


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = telemetry.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner", "sibling"]

    def test_dual_clocks(self):
        clock = SimClock()
        with telemetry.tracing() as tracer, tracer.span("work") as sp:
            clock.advance(2e-3)
        assert sp.sim_seconds == pytest.approx(2e-3)
        assert sp.wall_seconds >= 0.0

    def test_add_span_records_parallel_work_without_advancing(self):
        clock = SimClock()
        with telemetry.tracing() as tracer, tracer.span("launch"):
            before = tracer.sim_now
            a = tracer.add_span("exec", track=("dpu", 0), sim_duration=5e-6)
            b = tracer.add_span("exec", track=("dpu", 1), sim_duration=7e-6)
            assert tracer.sim_now == before  # the timeline did not move
            clock.advance(7e-6)             # the clock moves by the slowest
        assert a.sim_start == b.sim_start == before
        assert b.sim_seconds == pytest.approx(7e-6)
        assert tracer.roots[0].sim_seconds == pytest.approx(7e-6)

    def test_attributes_and_find(self):
        tracer = telemetry.Tracer()
        with tracer.span("op", n=3) as sp:
            sp.set(status="ok")
        (found,) = tracer.find("op")
        assert found.attributes == {"n": 3, "status": "ok"}

    def test_module_helpers_noop_when_disabled(self):
        assert telemetry.current_tracer() is None
        sp = telemetry.span("anything", n=1)
        assert sp is telemetry.NOOP_SPAN
        clock = SimClock()
        with sp:
            clock.advance(1.0)  # must not raise
        assert clock.now == 1.0

    def test_tracing_context_restores_previous(self):
        outer = telemetry.install_tracer(telemetry.Tracer())
        with telemetry.tracing() as inner:
            assert telemetry.current_tracer() is inner
        assert telemetry.current_tracer() is outer

    def test_tracing_keeps_an_empty_tracer_passed_in(self):
        tracer = telemetry.Tracer()
        assert not tracer  # empty, so falsy through __len__
        with telemetry.tracing(tracer) as active:
            assert active is tracer
            with telemetry.span("work"):
                pass
        assert [s.name for s in tracer.find("work")] == ["work"]


class TestSimClock:
    def test_sum_does_not_depend_on_order_or_grouping(self):
        # As floats, 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ.
        assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
        forward, backward, grouped = SimClock(), SimClock(), SimClock()
        for seconds in (0.1, 0.2, 0.3):
            forward.advance(seconds)
        for seconds in (0.3, 0.2, 0.1):
            backward.advance(seconds)
        grouped.advance(0.2)
        grouped.advance(0.1)
        grouped.advance(0.3)
        assert forward.now == backward.now == grouped.now
        once, thrice = SimClock(), SimClock()
        once.advance(1e-4 / 3, 3)
        for _ in range(3):
            thrice.advance(1e-4 / 3)
        assert once.now == thrice.now

    def test_advance_never_moves_back(self):
        clock = SimClock()
        clock.advance(2e-6)
        with telemetry.tracing() as tracer:
            for seconds, times in ((-1e-6, 1), (1e-6, -2), (0.0, 5), (1e-6, 0)):
                clock.advance(seconds, times)
        assert clock.now == 2e-6
        assert tracer.sim_now == 0.0
        clock.advance(1e-6)
        assert clock.now == pytest.approx(3e-6)

    def test_moves_the_installed_tracer_by_each_delta(self):
        clock = SimClock()
        clock.advance(5.0)  # untraced: the clock moves alone
        with telemetry.tracing() as tracer:
            clock.advance(1e-3)
            clock.advance(1e-3, 2)
        clock.advance(1.0)
        assert tracer.sim_now == pytest.approx(3e-3)
        assert clock.now == pytest.approx(6.003)


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = telemetry.MetricsRegistry()
        c = reg.counter("c", "a counter")
        g = reg.gauge("g", "a gauge")
        c.inc()
        c.inc(4)
        g.set(10)
        g.dec(3)
        assert c.value == 5
        assert g.value == 7
        with pytest.raises(telemetry.MetricsError):
            c.inc(-1)

    def test_labels_cached_and_rendered(self):
        reg = telemetry.MetricsRegistry()
        c = reg.counter("transfer.bytes")
        c.labels(direction="to_dpu").inc(100)
        assert c.labels(direction="to_dpu") is c.labels(direction="to_dpu")
        text = reg.render_text()
        assert "transfer.bytes{direction=to_dpu} 100" in text

    def test_histogram_stats(self):
        reg = telemetry.MetricsRegistry()
        h = reg.histogram("h", buckets=(10, 100))
        for value in (5, 50, 500):
            h.observe(value)
        assert h.count == 3
        assert h.sum == 555
        assert h.mean == pytest.approx(185)
        assert h.min == 5 and h.max == 500
        assert h.bucket_counts == [1, 1, 1]

    @pytest.mark.parametrize(
        "value,count", [(7, 5), (0.1, 3), (1234.5678, 13)]
    )
    def test_histogram_observe_count(self, value, count):
        """observe(v, count=n) is n single observations, bit for bit."""
        reg = telemetry.MetricsRegistry()
        batched = reg.histogram("batched", buckets=(1, 10, 100))
        single = reg.histogram("single", buckets=(1, 10, 100))
        for h in (batched, single):
            h.observe(0.3)  # a non-trivial running sum to add onto
        batched.observe(value, count=count)
        for _ in range(count):
            single.observe(value)
        assert batched.count == single.count
        assert batched.sum == single.sum
        assert (batched.min, batched.max) == (single.min, single.max)
        assert batched.bucket_counts == single.bucket_counts
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert batched.quantile(q) == single.quantile(q)

    def test_histogram_observe_zero_or_negative_count(self):
        """count=0 observes nothing, min/max included; a negative count
        is refused and leaves the histogram as it was."""
        reg = telemetry.MetricsRegistry()
        h = reg.histogram("h", buckets=(1, 10))
        h.observe(5.0, count=0)
        assert (h.count, h.sum, h.min, h.max) == (0, 0.0, None, None)
        assert h.bucket_counts == [0, 0, 0] and h.quantile(0.5) is None
        h.observe(3.0)
        h.observe(50.0, count=0)
        assert (h.count, h.sum, h.min, h.max) == (1, 3.0, 3.0, 3.0)
        with pytest.raises(telemetry.MetricsError):
            h.observe(3.0, count=-2)
        assert (h.count, h.sum, h.min, h.max) == (1, 3.0, 3.0, 3.0)
        assert h.bucket_counts == [0, 1, 0]

    def test_kind_mismatch_rejected(self):
        reg = telemetry.MetricsRegistry()
        reg.counter("x")
        with pytest.raises(telemetry.MetricsError):
            reg.gauge("x")

    def test_reregistration_returns_existing(self):
        reg = telemetry.MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_reset_keeps_registrations(self):
        reg = telemetry.MetricsRegistry()
        c = reg.counter("x")
        c.labels(k="v").inc(9)
        c.inc(2)
        reg.reset()
        assert reg.get("x") is c
        assert c.value == 0
        assert c.labels(k="v").value == 0

    def test_json_dump(self, tmp_path):
        reg = telemetry.MetricsRegistry()
        reg.counter("x").inc(3)
        reg.histogram("h").observe(7)
        path = tmp_path / "metrics.json"
        reg.dump_json(str(path))
        doc = json.loads(path.read_text())
        assert doc["x"]["value"] == 3
        assert doc["h"]["value"]["count"] == 1


class TestHistogramQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        reg = telemetry.MetricsRegistry()
        h = reg.histogram("h", buckets=(1, 10, 100))
        assert h.quantile(0.5) is None
        assert h.p50 is None and h.p95 is None and h.p99 is None

    def test_single_observation_is_every_quantile(self):
        reg = telemetry.MetricsRegistry()
        h = reg.histogram("h", buckets=(1, 10, 100))
        h.observe(5.0)
        # min/max tightening beats bucket-edge interpolation here.
        assert h.p50 == 5.0
        assert h.p95 == 5.0
        assert h.p99 == 5.0

    def test_interpolation_inside_a_bucket(self):
        reg = telemetry.MetricsRegistry()
        h = reg.histogram("h", buckets=(10.0,))
        h.observe(0.0)
        h.observe(8.0)  # both in [0, 10): interpolate between min and max
        assert h.quantile(0.5) == pytest.approx(4.0)
        assert h.quantile(1.0) == pytest.approx(8.0)

    def test_quantiles_are_monotone_and_bounded(self):
        reg = telemetry.MetricsRegistry()
        h = reg.histogram("h", buckets=(1, 10, 100, 1000))
        for value in (0.5, 2, 3, 7, 20, 40, 80, 200, 600, 900):
            h.observe(value)
        quantiles = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.95, 0.99)]
        assert quantiles == sorted(quantiles)
        assert all(h.min <= q <= h.max for q in quantiles)

    def test_out_of_range_q_rejected(self):
        reg = telemetry.MetricsRegistry()
        h = reg.histogram("h")
        h.observe(1.0)
        with pytest.raises(telemetry.MetricsError):
            h.quantile(-0.1)
        with pytest.raises(telemetry.MetricsError):
            h.quantile(1.5)

    def test_rows_and_json_carry_percentiles(self, tmp_path):
        reg = telemetry.MetricsRegistry()
        h = reg.histogram("h", buckets=(10.0,))
        h.observe(0.0)
        h.observe(8.0)
        text = reg.render_text()
        assert "h.p50" in text and "h.p95" in text and "h.p99" in text
        path = tmp_path / "metrics.json"
        reg.dump_json(str(path))
        value = json.loads(path.read_text())["h"]["value"]
        assert value["p50"] == pytest.approx(4.0)
        assert set(value) >= {"p50", "p95", "p99"}


class TestMetricsDeltaProtocol:
    """snapshot/delta/merge must roundtrip every metric kind."""

    def test_counter_roundtrip(self):
        registry = telemetry.GLOBAL_METRICS
        counter = registry.counter("test.parallel.roundtrip", "test")
        before = registry.snapshot()
        counter.inc(5)
        counter.labels(kind="a").inc(2)
        delta = registry.delta_since(before)
        assert delta["test.parallel.roundtrip"]["state"] == 5
        counter.inc(1)  # activity after the delta was taken
        value = counter.value
        registry.merge_delta(delta)
        assert counter.value == value + 5
        assert counter.labels(kind="a").value == 4

    def test_histogram_roundtrip(self):
        registry = telemetry.GLOBAL_METRICS
        histogram = registry.histogram(
            "test.parallel.hist", "test", buckets=(1.0, 10.0)
        )
        histogram.observe(0.5)
        before = registry.snapshot()
        histogram.observe(20.0)
        histogram.observe(0.1)
        delta = registry.delta_since(before)
        state = delta["test.parallel.hist"]["state"]
        assert state["count"] == 2
        registry.merge_delta(delta)
        assert histogram.count == 5
        assert histogram.min == 0.1
        assert histogram.max == 20.0

    def test_empty_delta_merge_keeps_min_max(self):
        registry = telemetry.GLOBAL_METRICS
        histogram = registry.histogram("test.parallel.hist2", "test")
        histogram.observe(3.0)
        before = registry.snapshot()
        delta = registry.delta_since(before)
        registry.merge_delta(delta)
        assert histogram.count == 1
        assert histogram.min == 3.0
        assert histogram.max == 3.0

    def test_merge_one_metric_delta(self):
        registry = telemetry.GLOBAL_METRICS
        name = "test.parallel.fresh"
        counter = registry.counter(name, "test")
        before = registry.snapshot()
        counter.inc(3)
        delta = registry.delta_since(before)
        registry.merge_delta({name: delta[name]})
        assert counter.value == 6


class TestInstrumentedRun:
    def _traced_run(self):
        with telemetry.tracing() as tracer:
            system = DpuSystem(SMALL)
            dpu_set = system.allocate(2)
            dpu_set.load(program_image())
            dpu_set.launch(n_tasklets=2)
            system.free(dpu_set)
        return tracer

    def test_launch_produces_spans_and_advances_sim(self):
        tracer = self._traced_run()
        names = {s.name for s in tracer.all_spans()}
        assert {"dpu.alloc", "host.load", "dpu.launch", "dpu.exec",
                "tasklet", "dpu.free"} <= names
        (launch,) = tracer.find("dpu.launch")
        assert launch.attributes["cycles"] > 0
        assert launch.sim_seconds > 0
        assert tracer.sim_now == pytest.approx(launch.sim_seconds)

    def test_exec_spans_sit_on_dpu_tracks(self):
        tracer = self._traced_run()
        execs = tracer.find("dpu.exec")
        assert len(execs) == 2
        assert {s.track for s in execs} == {("dpu", 0), ("dpu", 1)}
        for s in execs:
            assert s.attributes["instructions"] > 0
            # parallel: both start when the launch starts
            assert s.sim_start == execs[0].sim_start

    def test_tasklet_spans_nest_under_exec(self):
        tracer = self._traced_run()
        (first_exec, _) = tracer.find("dpu.exec")
        tasklets = [c for c in first_exec.children if c.name == "tasklet"]
        assert len(tasklets) == 2
        assert tasklets[0].track == ("dpu", 0, 0)
        assert all(t.attributes["instructions"] > 0 for t in tasklets)

    def test_disabled_launch_allocates_no_spans(self, monkeypatch):
        calls = []
        original = spans_mod.Span.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(spans_mod.Span, "__init__", counting_init)
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(1)
        dpu_set.load(program_image())
        dpu_set.launch()
        system.free(dpu_set)
        assert calls == []  # tracing disabled -> zero Span instantiations
        with telemetry.tracing():
            dpu_set = system.allocate(1)
            dpu_set.load(program_image())
            dpu_set.launch()
            system.free(dpu_set)
        assert len(calls) > 0  # sanity: the counter does fire when enabled

    def test_transfer_spans_advance_the_clock(self):
        with telemetry.tracing() as tracer:
            system = DpuSystem(SMALL)
            dpu_set = system.allocate(2)
            dpu_set.load(
                DpuImage.from_symbol_layout(
                    "k", layout=[("data", 64)]
                )
            )
            dpu_set.broadcast("data", np.arange(4, dtype=np.int32))
            system.free(dpu_set)
        (bcast,) = tracer.find("transfer.broadcast")
        assert bcast.attributes["bytes"] == 32  # 16 bytes x 2 DPUs
        assert bcast.sim_seconds > 0
        assert tracer.sim_now >= bcast.sim_seconds

    def test_global_metrics_accumulate(self):
        launches = telemetry.GLOBAL_METRICS.get("dpu.launches")
        before = launches.value
        system = DpuSystem(SMALL)
        dpu_set = system.allocate(1)
        dpu_set.load(program_image())
        dpu_set.launch()
        system.free(dpu_set)
        assert launches.value == before + 1


class TestExporters:
    def _sample_tracer(self):
        clock = SimClock()
        with telemetry.tracing() as tracer, tracer.span("run", n=1):
            clock.advance(1e-6)
            tracer.add_span("exec", track=("dpu", 3), sim_duration=2e-6)
            tracer.add_span(
                "tasklet", track=("dpu", 3, 1), sim_duration=1e-6
            )
            clock.advance(2e-6)
        return tracer

    def test_chrome_trace_is_valid_json_with_tracks(self, tmp_path):
        tracer = self._sample_tracer()
        path = tmp_path / "trace.json"
        n_events = telemetry.write_chrome_trace(tracer, str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == n_events
        metas = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in metas if m["name"] == "process_name"} \
            == {"host", "dpu 3"}
        run = next(e for e in xs if e["name"] == "run")
        assert run["ts"] == pytest.approx(0.0)
        assert run["dur"] == pytest.approx(3.0)  # 3 us of simulated time
        exec_event = next(e for e in xs if e["name"] == "exec")
        assert exec_event["pid"] == 1003
        assert exec_event["tid"] == 0
        tasklet_event = next(e for e in xs if e["name"] == "tasklet")
        assert tasklet_event["pid"] == 1003
        assert tasklet_event["tid"] == 2  # tasklet 1 -> tid 1 + 1

    def test_zero_duration_spans_become_instants(self):
        tracer = telemetry.Tracer()
        tracer.add_span("marker", track=telemetry.HOST_TRACK)
        events = telemetry.chrome_trace_events(tracer)
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["name"] == "marker"

    def test_render_tree_shows_hierarchy_and_attrs(self):
        tracer = self._sample_tracer()
        text = telemetry.render_tree(tracer)
        lines = text.splitlines()
        assert lines[0].startswith("run")
        assert lines[1].startswith("  exec @dpu.3")
        assert "n=1" in lines[0]

    def test_render_tree_elides_wide_sibling_lists(self):
        tracer = telemetry.Tracer()
        with tracer.span("launch"):
            for i in range(40):
                tracer.add_span("exec", track=("dpu", i))
        text = telemetry.render_tree(tracer, max_children=8)
        assert "more spans" in text
        assert text.count("exec @dpu.") == 8


class TestCli:
    def test_trace_subcommand_writes_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(["trace", "ebnn_pim", "--out", str(out), "--tree"]) == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"dpu.launch", "dpu.exec", "transfer.push"} <= names
        stdout = capsys.readouterr().out
        assert "trace events" in stdout
        assert "ebnn.run" in stdout  # the --tree rendering

    def test_metrics_subcommand_dumps_registry(self, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "metrics.json"
        assert main(["metrics", "ebnn_pim", "--json", str(json_path)]) == 0
        stdout = capsys.readouterr().out
        assert "dpu.launches" in stdout
        doc = json.loads(json_path.read_text())
        assert doc["dpu.launches"]["value"] >= 1
