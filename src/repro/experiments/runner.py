"""Replicated, seeded execution of experiment sweeps.

For each x value and each seed, the scenario builder constructs one
platform (one sampled environment) and every variant runs on it
back-to-back -- identical load traces across competing strategies, the
property the paper's simulation methodology exists to provide.

Cell scheduling (serial, parallel, cached) lives in
:mod:`repro.experiments.executor`; this module owns the result model and
the public :func:`run_sweep` entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ExperimentError
from repro.experiments.scenarios import ExperimentSpec


@dataclass
class SeriesStats:
    """Per-x-value statistics of one variant's makespans."""

    mean: "list[float]" = field(default_factory=list)
    std: "list[float]" = field(default_factory=list)
    raw: "list[list[float]]" = field(default_factory=list)
    swap_counts: "list[float]" = field(default_factory=list)
    """Mean swaps (or restarts, for CR) per run at each x value."""


@dataclass
class SweepResult:
    """Everything a report or bench needs from one sweep."""

    name: str
    title: str
    xlabel: str
    x_values: "list[float]"
    series: "dict[str, SeriesStats]"
    seeds: "list[int]"
    paper_claim: str = ""

    def series_names(self) -> "list[str]":
        return list(self.series)

    def mean_of(self, name: str) -> "list[float]":
        if name not in self.series:
            raise ExperimentError(
                f"no series {name!r}; have {sorted(self.series)}")
        return self.series[name].mean

    def ratio_to(self, name: str, baseline: str = "nothing") -> "list[float]":
        """Per-x ratio of a series to the baseline (lower = better)."""
        base = self.mean_of(baseline)
        target = self.mean_of(name)
        return [t / b for t, b in zip(target, base)]

    def best_improvement(self, name: str,
                         baseline: str = "nothing") -> float:
        """Largest relative gain of ``name`` over the baseline across x."""
        return max(1.0 - r for r in self.ratio_to(name, baseline))

    # -- export -----------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serializable record of the whole sweep."""
        return {
            "name": self.name,
            "title": self.title,
            "xlabel": self.xlabel,
            "x_values": list(self.x_values),
            "seeds": list(self.seeds),
            "paper_claim": self.paper_claim,
            "series": {
                label: {
                    "mean": stats.mean,
                    "std": stats.std,
                    "raw": stats.raw,
                    "swap_counts": stats.swap_counts,
                }
                for label, stats in self.series.items()
            },
        }

    def to_json(self, path) -> None:
        """Write :meth:`to_dict` to ``path`` as JSON."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    def to_csv(self, path) -> None:
        """Write one row per x value: mean and std of every series."""
        import csv

        names = self.series_names()
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            header = ["x"]
            for name in names:
                header += [f"{name}_mean", f"{name}_std",
                           f"{name}_swaps"]
            writer.writerow(header)
            for i, x in enumerate(self.x_values):
                row = [x]
                for name in names:
                    stats = self.series[name]
                    row += [stats.mean[i], stats.std[i],
                            stats.swap_counts[i]]
                writer.writerow(row)

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepResult":
        """Inverse of :meth:`to_dict`."""
        series = {
            label: SeriesStats(mean=list(data["mean"]),
                               std=list(data["std"]),
                               raw=[list(r) for r in data["raw"]],
                               swap_counts=list(data["swap_counts"]))
            for label, data in payload["series"].items()
        }
        return cls(name=payload["name"], title=payload["title"],
                   xlabel=payload["xlabel"],
                   x_values=list(payload["x_values"]), series=series,
                   seeds=list(payload["seeds"]),
                   paper_claim=payload.get("paper_claim", ""))


def run_sweep(spec: ExperimentSpec,
              seeds: "Sequence[int] | int | None" = None,
              on_point: "Callable[[float, int], None] | None" = None,
              *,
              jobs: int = 1,
              cache_dir=None,
              obs_session=None,
              ) -> SweepResult:
    """Run a full sweep and aggregate makespans per (x, series): the
    result of :func:`repro.experiments.executor.execute_sweep`, which
    documents the parameters, bit-identical for any ``jobs`` / cache
    configuration."""
    from repro.experiments.executor import execute_sweep

    result, _timing = execute_sweep(spec, seeds=seeds, jobs=jobs,
                                    cache_dir=cache_dir, on_point=on_point,
                                    obs_session=obs_session)
    return result
