"""Strong-scaling sweeps (Figures 3 and 7).

A sweep runs one benchmark on one dataset across a range of GPU counts for
several systems.  Failed configurations — simulated OOM, or features the
real framework lacks — are recorded as ``None``, which the reporters render
as missing points exactly like the paper's figures ("The missing points
... indicate that the benchmarks failed either due to memory limits or
crashes").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.generators.datasets import Dataset
from repro.metrics.stats import RunStats
from repro.runtime.cells import CellSpec, SystemSpec
from repro.runtime.sweep import run_cells

__all__ = ["ScalingPoint", "ScalingResult", "strong_scaling"]

DEFAULT_GPU_COUNTS = (2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class ScalingPoint:
    """One (system, gpu-count) measurement; ``stats`` is None on failure."""

    system: str
    num_gpus: int
    stats: Optional[RunStats]
    failure: str = ""

    @property
    def time(self) -> Optional[float]:
        return self.stats.execution_time if self.stats else None


@dataclass
class ScalingResult:
    """All points of one benchmark x dataset sweep."""

    benchmark: str
    dataset: str
    gpu_counts: tuple[int, ...]
    points: dict[str, list[ScalingPoint]] = field(default_factory=dict)

    def times(self, system: str) -> list[Optional[float]]:
        return [p.time for p in self.points[system]]

    def series(self) -> dict[str, list[Optional[float]]]:
        return {s: self.times(s) for s in self.points}

    def best_system_at(self, num_gpus: int) -> Optional[str]:
        """Which system is fastest at a given scale (None if all failed)."""
        i = self.gpu_counts.index(num_gpus)
        best, best_t = None, None
        for s, pts in self.points.items():
            t = pts[i].time
            if t is not None and (best_t is None or t < best_t):
                best, best_t = s, t
        return best


def strong_scaling(
    systems: dict[str, SystemSpec],
    benchmark: str,
    dataset: Dataset,
    gpu_counts: Sequence[int] = DEFAULT_GPU_COUNTS,
    platform: str = "bridges",
    executor=None,
    **ctx_overrides,
) -> ScalingResult:
    """Sweep ``benchmark`` on ``dataset`` for each system over GPU counts.

    ``systems`` maps a display name to a picklable
    :class:`~repro.runtime.cells.SystemSpec`; the cells run through
    ``executor`` (a :class:`~repro.runtime.SweepExecutor`; ``None`` means
    serial in-process) and the points are assembled in nested-loop order,
    so the :class:`ScalingResult` is identical either way.  Of
    ``ctx_overrides``, ``check_memory`` and ``fault_plan`` are the
    :class:`~repro.runtime.cells.CellSpec` fields of those names; the
    rest reach the run context.
    """
    result = ScalingResult(
        benchmark=benchmark, dataset=dataset.name, gpu_counts=tuple(gpu_counts)
    )
    cell_fields = {
        k: ctx_overrides.pop(k)
        for k in ("check_memory", "fault_plan")
        if k in ctx_overrides
    }
    specs = [
        CellSpec(
            key=(name, n),
            system=spec,
            benchmark=benchmark,
            dataset=dataset.name,
            num_gpus=n,
            platform=platform,
            ctx_overrides=tuple(sorted(ctx_overrides.items())),
            **cell_fields,
        )
        for name, spec in systems.items()
        for n in gpu_counts
    ]
    outcomes = {o.key: o for o in run_cells(specs, executor)}
    for name in systems:
        result.points[name] = [
            ScalingPoint(name, n, outcomes[(name, n)].stats,
                         failure=outcomes[(name, n)].failure_label())
            for n in gpu_counts
        ]
    return result
