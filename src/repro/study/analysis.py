"""Regenerating the paper's *in-text* analysis numbers.

Beyond tables and figures, Section V quotes derived quantities in prose:
the average message size falling from ~2 MB to ~0.2 MB when switching AS to
UO on uk07/sssp, the minimum local round count rising from 1000 to 2141
under async bfs/uk14, and the per-policy replication/partner structure
behind CVC's win.  These helpers measure the same quantities on the
reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.generators.datasets import Dataset
from repro.runtime.cells import CellSpec, PartitionStatsSpec, SystemSpec
from repro.runtime.sweep import run_cells
from repro.study.report import format_table

__all__ = [
    "MessageSizeReduction",
    "message_size_reduction",
    "AsyncInflation",
    "async_work_inflation",
    "replication_table",
]


@dataclass(frozen=True)
class MessageSizeReduction:
    """Average wire message size under AS vs UO (Section V-B3's numbers)."""

    benchmark: str
    dataset: str
    num_gpus: int
    as_avg_bytes: float
    uo_avg_bytes: float
    as_time: float
    uo_time: float

    @property
    def reduction(self) -> float:
        return self.as_avg_bytes / max(self.uo_avg_bytes, 1.0)


def _run_cells(specs, executor):
    """Run cells, re-raising any failure (these drivers have no missing-
    point semantics: a failed run is a bug or a genuinely unsupported ask,
    and historically propagated to the caller)."""
    outcomes = {}
    for o in run_cells(specs, executor):
        o.raise_failure()
        outcomes[o.key] = o
    return outcomes


def message_size_reduction(
    benchmark: str, dataset: Dataset, num_gpus: int = 32, executor=None
) -> MessageSizeReduction:
    """Measure the AS->UO average-message-size drop for one workload."""
    specs = [
        CellSpec(
            key=name,
            system=SystemSpec.variant(name),
            benchmark=benchmark,
            dataset=dataset.name,
            num_gpus=num_gpus,
            check_memory=False,
        )
        for name in ("var2", "var3")
    ]
    outcomes = _run_cells(specs, executor)
    a, u = outcomes["var2"].stats, outcomes["var3"].stats
    return MessageSizeReduction(
        benchmark=benchmark,
        dataset=dataset.name,
        num_gpus=num_gpus,
        as_avg_bytes=a.comm_volume_bytes / max(a.num_messages, 1),
        uo_avg_bytes=u.comm_volume_bytes / max(u.num_messages, 1),
        as_time=a.execution_time,
        uo_time=u.execution_time,
    )


@dataclass(frozen=True)
class AsyncInflation:
    """Sync-vs-async round and work-item inflation (Section V-B4)."""

    benchmark: str
    dataset: str
    num_gpus: int
    sync_rounds: int
    async_min_rounds: int
    async_max_rounds: int
    sync_work: float
    async_work: float

    @property
    def work_inflation(self) -> float:
        return self.async_work / max(self.sync_work, 1.0)


def async_work_inflation(
    benchmark: str, dataset: Dataset, num_gpus: int = 64, executor=None
) -> AsyncInflation:
    """Measure the redundant work bulk-asynchronous execution performs."""
    specs = [
        CellSpec(
            key=name,
            system=SystemSpec.variant(name),
            benchmark=benchmark,
            dataset=dataset.name,
            num_gpus=num_gpus,
            check_memory=False,
        )
        for name in ("var3", "var4")
    ]
    outcomes = _run_cells(specs, executor)
    sync, asy = outcomes["var3"].stats, outcomes["var4"].stats
    return AsyncInflation(
        benchmark=benchmark,
        dataset=dataset.name,
        num_gpus=num_gpus,
        sync_rounds=sync.rounds,
        async_min_rounds=asy.local_rounds_min,
        async_max_rounds=asy.local_rounds_max,
        sync_work=sync.work_items,
        async_work=asy.work_items,
    )


def replication_table(
    dataset: Dataset, num_gpus: int = 32, executor=None
) -> tuple[list, str]:
    """Per-policy replication factor / partner structure / static balance —
    the structural facts behind the Section V-C discussion."""
    policies = ("cvc", "hvc", "iec", "oec")
    specs = [
        PartitionStatsSpec(
            key=pol, dataset=dataset.name, policy=pol, num_gpus=num_gpus
        )
        for pol in policies
    ]
    outcomes = _run_cells(specs, executor)
    rows = []
    for pol in policies:
        s = outcomes[pol].pstats
        rows.append([
            pol.upper(),
            round(s.replication_factor, 2),
            round(s.mean_comm_partners, 1),
            s.max_comm_partners,
            round(s.static_balance, 3),
            round(s.vertex_balance, 3),
        ])
    text = format_table(
        ["policy", "replication", "mean partners", "max partners",
         "static balance", "vertex balance"],
        rows,
        title=f"Partition structure: {dataset.name} at {num_gpus} partitions",
    )
    return rows, text
