"""Process-wide metrics registry: counters, gauges, histograms with labels.

Prometheus-shaped but dependency-free and single-threaded like the rest of
the simulator.  Instruments register themselves once at module import and
keep a direct handle, so the hot path is a plain attribute increment::

    _LAUNCHES = GLOBAL_METRICS.counter("dpu.launches", "set-wide launches")
    ...
    _LAUNCHES.inc()

Labelled children are cached per label combination
(``counter.labels(direction="to_dpu")``), so repeated lookups allocate
nothing after the first.  ``render_text()`` gives a plain-text dump (the
``repro metrics`` CLI output) and ``as_dict()`` / ``dump_json()`` the
machine-readable form.

``snapshot()`` / ``delta_since(snapshot)`` measure what a block of work
added to every metric, and ``merge_delta(delta)`` adds such a delta back
(saving and restoring the registry around a replayed computation).
"""

from __future__ import annotations

import json
from bisect import bisect_right

from repro.errors import ReproError


class MetricsError(ReproError):
    """Invalid metric registration or observation."""


#: Default histogram bucket upper bounds: decades from 1 to 1e9, a range
#: that covers both per-launch cycle counts and per-transfer byte counts.
DEFAULT_BUCKETS = tuple(10.0 ** e for e in range(10))


class _Metric:
    """Shared naming/label plumbing of all metric kinds."""

    kind = "metric"

    def __init__(self, name: str, help: str = "", labels: dict | None = None) -> None:
        self.name = name
        self.help = help
        self.label_values = dict(labels or {})
        self._children: dict[tuple, "_Metric"] = {}

    def labels(self, **label_values) -> "_Metric":
        """The child metric for one label combination (cached)."""
        key = tuple(sorted(label_values.items()))
        child = self._children.get(key)
        if child is None:
            merged = {**self.label_values, **label_values}
            child = type(self)(self.name, self.help, merged)
            self._children[key] = child
        return child

    def _label_suffix(self) -> str:
        if not self.label_values:
            return ""
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.label_values.items()))
        return "{" + inner + "}"

    def walk(self):
        """This metric and every labelled child, parents first."""
        yield self
        for child in self._children.values():
            yield from child.walk()

    # -- snapshot/delta/merge protocol (overridden per kind) ----------- #

    def _snapshot_state(self):
        raise NotImplementedError

    @staticmethod
    def _delta_state(after, before):
        raise NotImplementedError

    def _merge_state(self, delta) -> None:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: dict | None = None) -> None:
        super().__init__(name, help, labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def _reset(self) -> None:
        self.value = 0

    def _rows(self):
        yield (self.name + self._label_suffix(), self.value)

    def _as_value(self):
        return self.value

    def _snapshot_state(self):
        return self.value

    @staticmethod
    def _delta_state(after, before):
        return after - (before or 0)

    def _merge_state(self, delta) -> None:
        self.value += delta


class Gauge(_Metric):
    """A value that can go up and down (e.g. DPUs currently allocated)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: dict | None = None) -> None:
        super().__init__(name, help, labels)
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def _reset(self) -> None:
        self.value = 0

    def _rows(self):
        yield (self.name + self._label_suffix(), self.value)

    def _as_value(self):
        return self.value

    def _snapshot_state(self):
        return self.value

    @staticmethod
    def _delta_state(after, before):
        return after - (before or 0)

    def _merge_state(self, delta) -> None:
        self.value += delta


class Histogram(_Metric):
    """A distribution: count, sum, min/max and bucketed counts.

    ``buckets`` are upper bounds (le); an implicit +inf bucket catches the
    rest.  The defaults span nine decades, enough for cycle counts and
    byte counts alike.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: dict | None = None,
        buckets: tuple = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise MetricsError(f"histogram {self.name!r} needs at least one bucket")
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum: float = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def labels(self, **label_values) -> "Histogram":
        key = tuple(sorted(label_values.items()))
        child = self._children.get(key)
        if child is None:
            merged = {**self.label_values, **label_values}
            child = Histogram(self.name, self.help, merged, self.buckets)
            self._children[key] = child
        return child  # type: ignore[return-value]

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times; ``sum`` adds it ``count``
        times, bit-identical to as many calls.  ``count=0`` records
        nothing."""
        if count < 0:
            raise MetricsError(f"histogram {self.name!r} observed {count} times")
        if not count:
            return
        self.bucket_counts[bisect_right(self.buckets, value)] += count
        self.count += count
        total = self.sum
        for _ in range(count):
            total += value
        self.sum = total
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile from the bucket counts.

        Linear interpolation inside the bucket holding the target rank
        (the Prometheus ``histogram_quantile`` estimator), tightened by
        the exact observed ``min``/``max`` so single-observation and
        tail quantiles never extrapolate past real data.  Returns None
        when nothing has been observed.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError(
                f"quantile for {self.name!r} must be in [0, 1], got {q}"
            )
        if not self.count:
            return None
        rank = q * self.count
        cumulative = 0.0
        for i, n in enumerate(self.bucket_counts):
            if not n:
                continue
            previous = cumulative
            cumulative += n
            if cumulative >= rank:
                lower = self.buckets[i - 1] if i > 0 else self.min
                upper = (
                    self.buckets[i] if i < len(self.buckets) else self.max
                )
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return float(upper)
                fraction = (rank - previous) / n if n else 0.0
                return float(lower + (upper - lower) * fraction)
        return float(self.max)

    @property
    def p50(self) -> float | None:
        return self.quantile(0.50)

    @property
    def p95(self) -> float | None:
        return self.quantile(0.95)

    @property
    def p99(self) -> float | None:
        return self.quantile(0.99)

    def _reset(self) -> None:
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def _rows(self):
        suffix = self._label_suffix()
        yield (f"{self.name}{suffix}.count", self.count)
        if self.count:
            yield (f"{self.name}{suffix}.sum", self.sum)
            yield (f"{self.name}{suffix}.mean", self.mean)
            yield (f"{self.name}{suffix}.min", self.min)
            yield (f"{self.name}{suffix}.max", self.max)
            yield (f"{self.name}{suffix}.p50", self.p50)
            yield (f"{self.name}{suffix}.p95", self.p95)
            yield (f"{self.name}{suffix}.p99", self.p99)

    def _snapshot_state(self):
        return {
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @staticmethod
    def _delta_state(after, before):
        if before is None:
            return dict(after)
        # min/max carry the *after* values: the parent merges them with
        # min()/max(), which stays correct because the parent's own
        # min/max can only have moved further out since the snapshot.
        return {
            "bucket_counts": [
                a - b
                for a, b in zip(after["bucket_counts"], before["bucket_counts"])
            ],
            "count": after["count"] - before["count"],
            "sum": after["sum"] - before["sum"],
            "min": after["min"],
            "max": after["max"],
        }

    def _merge_state(self, delta) -> None:
        if not delta["count"]:
            return
        if len(delta["bucket_counts"]) != len(self.bucket_counts):
            raise MetricsError(
                f"histogram {self.name!r}: cannot merge a delta with "
                f"{len(delta['bucket_counts'])} buckets into "
                f"{len(self.bucket_counts)}"
            )
        for i, n in enumerate(delta["bucket_counts"]):
            self.bucket_counts[i] += n
        self.count += delta["count"]
        self.sum += delta["sum"]
        if delta["min"] is not None:
            self.min = delta["min"] if self.min is None else min(self.min, delta["min"])
        if delta["max"] is not None:
            self.max = delta["max"] if self.max is None else max(self.max, delta["max"])

    def _as_value(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {
                ("+inf" if i == len(self.buckets) else repr(self.buckets[i])): n
                for i, n in enumerate(self.bucket_counts)
                if n
            },
        }


class MetricsRegistry:
    """A named collection of metrics with text and JSON dumps."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _register(self, cls, name: str, help: str, **kwargs) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise MetricsError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Register (or fetch) a counter."""
        return self._register(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Register (or fetch) a gauge."""
        return self._register(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: tuple = DEFAULT_BUCKETS
    ) -> Histogram:
        """Register (or fetch) a histogram."""
        return self._register(Histogram, name, help, buckets=buckets)  # type: ignore[return-value]

    def get(self, name: str) -> _Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricsError(f"no metric registered under {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every metric (labelled children included); keep registrations."""
        for metric in self._metrics.values():
            for node in metric.walk():
                node._reset()

    # ------------------------------------------------------------------ #
    # snapshot / delta / merge
    # ------------------------------------------------------------------ #

    @staticmethod
    def _node_snapshot(metric: _Metric) -> dict:
        return {
            "state": metric._snapshot_state(),
            "children": {
                key: MetricsRegistry._node_snapshot(child)
                for key, child in metric._children.items()
            },
        }

    @staticmethod
    def _node_delta(metric: _Metric, before: dict | None) -> dict:
        before_children = before["children"] if before else {}
        return {
            "state": type(metric)._delta_state(
                metric._snapshot_state(),
                before["state"] if before else None,
            ),
            "children": {
                key: MetricsRegistry._node_delta(child, before_children.get(key))
                for key, child in metric._children.items()
            },
        }

    @staticmethod
    def _node_merge(metric: _Metric, delta: dict) -> None:
        metric._merge_state(delta["state"])
        for key, child_delta in delta["children"].items():
            MetricsRegistry._node_merge(metric.labels(**dict(key)), child_delta)

    def snapshot(self) -> dict:
        """A snapshot of every metric (labelled children included)."""
        return {
            name: self._node_snapshot(metric)
            for name, metric in self._metrics.items()
        }

    def delta_since(self, snapshot: dict) -> dict:
        """What changed since ``snapshot``, in a form :meth:`merge_delta`
        takes.

        Metrics registered after the snapshot appear with their full value.
        """
        return {
            name: self._node_delta(metric, snapshot.get(name))
            for name, metric in self._metrics.items()
        }

    def merge_delta(self, delta: dict) -> None:
        """Fold a :meth:`delta_since` result of this registry back in.

        Counters and gauges add; histograms add counts/sums per bucket and
        widen min/max.
        """
        for name, node in delta.items():
            self._node_merge(self._metrics[name], node)

    # ------------------------------------------------------------------ #
    # dumps
    # ------------------------------------------------------------------ #

    def _live_rows(self) -> list[tuple[str, float]]:
        rows: list[tuple[str, float]] = []
        for name in self.names():
            for node in self._metrics[name].walk():
                rows.extend(node._rows())
        return rows

    def render_text(self, *, include_zero: bool = False) -> str:
        """Plain-text dump, one ``name value`` row per line."""
        lines = []
        for key, value in self._live_rows():
            if not include_zero and not value:
                continue
            if isinstance(value, float) and not value.is_integer():
                lines.append(f"{key} {value:.6g}")
            else:
                lines.append(f"{key} {int(value)}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """Nested JSON-ready form: name -> {kind, help, value, labels}."""
        out: dict = {}
        for name in self.names():
            metric = self._metrics[name]
            entry: dict = {"kind": metric.kind, "help": metric.help,
                           "value": metric._as_value()}
            labelled = {}
            for node in metric.walk():
                if node is metric:
                    continue
                labelled[node._label_suffix()] = node._as_value()
            if labelled:
                entry["labels"] = labelled
            out[name] = entry
        return out

    def dump_json(self, path: str) -> None:
        """Write :meth:`as_dict` as indented JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


#: The process-wide registry every instrumented module records into.
GLOBAL_METRICS = MetricsRegistry()
