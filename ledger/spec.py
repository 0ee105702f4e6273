"""``BENCHMARK.json`` is the one place metric names, units and bounds
are declared; everything else reads them from there."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from . import ROOT


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the median by which the metric may worsen; ``None`` for
    #: per-layer metrics, which have no bound.
    bound: float | None = None


@dataclass(frozen=True)
class Spec:
    run_seconds: int
    workloads: list[str]
    end_to_end: list[Metric]
    per_layer: list[Metric]

    def metrics(self, traced: bool) -> list[Metric]:
        return self.per_layer if traced else self.end_to_end


def load_spec() -> Spec:
    raw: dict[str, Any] = json.loads((ROOT / "BENCHMARK.json").read_text())
    return Spec(
        run_seconds=raw["run_seconds"],
        workloads=[entry["name"] for entry in raw["workloads"]],
        end_to_end=[Metric(**entry) for entry in raw["end_to_end"]],
        per_layer=[Metric(**entry) for entry in raw["per_layer"]],
    )
