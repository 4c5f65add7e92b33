"""Experiment framework: structured results and text rendering.

Every table and figure of the paper's evaluation has a driver that returns
an :class:`ExperimentResult` — a typed grid of rows plus free-form notes —
so the CLI, the benchmarks and EXPERIMENTS.md all render from the same
data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ExperimentError


@dataclass
class ExperimentResult:
    """One regenerated paper artifact."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ExperimentError(
                f"{self.experiment_id}: row of {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        try:
            index = self.columns.index(name)
        except ValueError:
            raise ExperimentError(
                f"{self.experiment_id} has no column {name!r}"
            ) from None
        return [row[index] for row in self.rows]

    def render(self) -> str:
        """Fixed-width text table with the title and notes."""
        cells = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells))
            if cells else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


#: experiment id -> driver
REGISTRY: dict[str, Callable[[], ExperimentResult]] = {}


def register(experiment_id: str):
    """Decorator registering an experiment driver under its id."""

    def decorator(fn: Callable[[], ExperimentResult]):
        if experiment_id in REGISTRY:
            raise ExperimentError(f"duplicate experiment id {experiment_id!r}")
        REGISTRY[experiment_id] = fn
        return fn

    return decorator


def run(experiment_id: str) -> ExperimentResult:
    """Run one registered experiment."""
    try:
        driver = REGISTRY[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        ) from None
    return driver()


def available() -> list[str]:
    return sorted(REGISTRY)
