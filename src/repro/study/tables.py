"""Reproductions of the paper's Tables I-IV.

Each ``tableN`` function returns structured rows plus a ready-to-print
string; its defaults are the paper's grid.  ``repro-study tableN`` prints
one, and the golden ``study`` table (tests/test_paper_claims.py) records
the cells of the reduced grid ``--quick`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.frameworks import DIrGL
from repro.generators.datasets import dataset_names, load_dataset
from repro.graph.properties import properties
from repro.runtime.cells import CellSpec, PartitionStatsSpec, SystemSpec
from repro.runtime.sweep import run_cells
from repro.study.report import format_table

__all__ = ["table1", "table2", "table3", "table4", "advisor_table"]


# --------------------------------------------------------------------------- #
# Table I — inputs and their key properties
# --------------------------------------------------------------------------- #
def table1(names: Optional[Sequence[str]] = None, diameter_sweeps: int = 4):
    """Input properties of every stand-in (|V|, |E|, degrees, diameter, GB).

    The size column is at paper scale (via each dataset's scale factor);
    the structural columns describe the stand-in itself.
    """
    names = list(names or dataset_names())
    rows = []
    for name in names:
        ds = load_dataset(name)
        p = properties(
            ds.graph,
            name=name,
            scale_factor=ds.scale_factor,
            diameter_sweeps=diameter_sweeps,
        )
        rows.append(p.row() + (ds.category,))
    headers = [
        "input", "|V|", "|E|", "|E|/|V|", "max Dout", "max Din",
        "approx diam", "size (GB, paper scale)", "category",
    ]
    return rows, format_table(headers, rows, title="Table I: inputs and key properties")


# --------------------------------------------------------------------------- #
# Table II — fastest single-host execution times
# --------------------------------------------------------------------------- #
_T2_BENCHMARKS = ("bfs", "cc", "pr", "sssp")
_T2_GPU_COUNTS = (1, 2, 4, 6)


@dataclass(frozen=True)
class BestRun:
    """One Table II cell: the best time over GPU counts (and policies)."""

    time: Optional[float]
    num_gpus: Optional[int]
    policy: str = ""

    def cell(self) -> Optional[str]:
        if self.time is None:
            return None
        pol = f" ({self.policy.upper()})" if self.policy else ""
        return f"{self.time:.3f}s @{self.num_gpus}gpu{pol}"


_T2_FRAMEWORKS = ("gunrock", "groute", "lux", "d-irgl")
_T2_DIRGL_POLICIES = ("oec", "iec", "hvc", "cvc")


def _t2_system(fw_name: str, policy: str) -> SystemSpec:
    if fw_name == "d-irgl":
        return SystemSpec.dirgl(policy=policy)
    return SystemSpec.framework(fw_name)


def table2(
    benchmarks: Sequence[str] = _T2_BENCHMARKS,
    datasets: Optional[Sequence[str]] = None,
    gpu_counts: Sequence[int] = _T2_GPU_COUNTS,
    executor=None,
):
    """Fastest execution time of all frameworks on Tuxedo (small graphs).

    D-IrGL searches its four policies (the paper annotates the winning
    policy per cell); the other frameworks have one fixed policy.  All
    (framework, policy, GPU count) candidates fan out through ``executor``
    and the per-cell minimum is taken in the fixed policy-major,
    count-minor order with a strict ``<``, so ties resolve exactly as the
    original serial search did.
    """
    datasets = list(datasets or dataset_names("small"))

    def candidates(fw_name):
        pols = _T2_DIRGL_POLICIES if fw_name == "d-irgl" else ("",)
        return [(pol, n) for pol in pols for n in gpu_counts]

    specs = [
        CellSpec(
            key=(bench, fw_name, ds_name, pol, n),
            system=_t2_system(fw_name, pol),
            benchmark=bench,
            dataset=ds_name,
            num_gpus=n,
            platform="tuxedo",
        )
        for bench in benchmarks
        for fw_name in _T2_FRAMEWORKS
        for ds_name in datasets
        for pol, n in candidates(fw_name)
    ]
    outcomes = {o.key: o for o in run_cells(specs, executor)}

    rows = []
    cells: dict[tuple[str, str, str], BestRun] = {}
    for bench in benchmarks:
        for fw_name in _T2_FRAMEWORKS:
            row = [bench, fw_name]
            for ds_name in datasets:
                best = BestRun(None, None)
                for pol, n in candidates(fw_name):
                    o = outcomes[(bench, fw_name, ds_name, pol, n)]
                    if not o.ok:
                        continue
                    t = o.stats.execution_time
                    if best.time is None or t < best.time:
                        best = BestRun(t, n, o.stats.policy)
                cells[(bench, fw_name, ds_name)] = best
                row.append(best.cell())
            rows.append(row)
    headers = ["benchmark", "framework"] + datasets
    return (
        cells,
        format_table(
            headers, rows,
            title="Table II: fastest execution time on Tuxedo (best GPU count)",
        ),
    )


# --------------------------------------------------------------------------- #
# Table III — memory usage of cc on 6 GPUs
# --------------------------------------------------------------------------- #
def table3(
    datasets: Optional[Sequence[str]] = None,
    num_gpus: int = 6,
    executor=None,
):
    """Maximum GPU memory (paper-scale GB) for cc on Tuxedo's 6 GPUs."""
    datasets = list(datasets or dataset_names("small"))
    specs = [
        CellSpec(
            key=(fw_name, ds_name),
            system=SystemSpec.framework(fw_name),
            benchmark="cc",
            dataset=ds_name,
            num_gpus=num_gpus,
            platform="tuxedo",
            check_memory=False,
        )
        for fw_name in _T2_FRAMEWORKS
        for ds_name in datasets
    ]
    outcomes = {o.key: o for o in run_cells(specs, executor)}
    rows = []
    cells: dict[tuple[str, str], Optional[float]] = {}
    for fw_name in _T2_FRAMEWORKS:
        row = [fw_name]
        for ds_name in datasets:
            o = outcomes[(fw_name, ds_name)]
            gb = o.stats.memory_max_gb if o.ok else None
            cells[(fw_name, ds_name)] = gb
            row.append(gb)
        rows.append(row)
    headers = ["framework"] + datasets
    return (
        cells,
        format_table(
            headers, rows,
            title=f"Table III: max memory (GB) for cc on {num_gpus} GPUs",
        ),
    )


# --------------------------------------------------------------------------- #
# Table IV — static / dynamic / memory load balance
# --------------------------------------------------------------------------- #
_T4_CONFIGS = (("uk07-s", 32), ("uk14-s", 64))
_T4_BENCHMARKS = ("bfs", "cc", "kcore", "pr", "sssp")
_T4_POLICIES = ("cvc", "hvc", "iec", "oec")


def table4(
    configs: Sequence[tuple[str, int]] = _T4_CONFIGS,
    benchmarks: Sequence[str] = _T4_BENCHMARKS,
    policies: Sequence[str] = _T4_POLICIES,
    executor=None,
):
    """Static (edges), dynamic (compute time), and memory balance ratios.

    Static balance comes from the partitioner alone; dynamic and memory
    balance from a D-IrGL run (no OOM enforcement so imbalanced
    configurations still report their ratios, as the paper's table does).
    The run is bulk-synchronous: per-device compute-time ratios are
    identical in structure under BASP but orders of magnitude cheaper to
    simulate at 64 partitions.
    """
    specs: list = []
    for bench in benchmarks:
        # resolve_app is cheap; whether the benchmark runs on the
        # symmetrized graph decides which partitioning is measured.
        needs_symmetric = DIrGL().resolve_app(bench).needs_symmetric
        for pol in policies:
            for ds_name, num_gpus in configs:
                specs.append(PartitionStatsSpec(
                    key=("pstats", bench, pol, ds_name),
                    dataset=ds_name,
                    policy=pol,
                    num_gpus=num_gpus,
                    symmetric=needs_symmetric,
                ))
                specs.append(CellSpec(
                    key=("run", bench, pol, ds_name),
                    system=SystemSpec.dirgl(policy=pol, execution="sync"),
                    benchmark=bench,
                    dataset=ds_name,
                    num_gpus=num_gpus,
                    check_memory=False,
                ))
    outcomes = {o.key: o for o in run_cells(specs, executor)}

    rows = []
    cells: dict[tuple, tuple] = {}
    for bench in benchmarks:
        for pol in policies:
            row = [bench, pol.upper()]
            for ds_name, num_gpus in configs:
                po = outcomes[("pstats", bench, pol, ds_name)]
                po.raise_failure()  # partitioner failures are bugs here
                pstats = po.pstats
                o = outcomes[("run", bench, pol, ds_name)]
                dyn = o.stats.dynamic_balance if o.ok else None
                mem = o.stats.memory_balance if o.ok else None
                cells[(bench, pol, ds_name)] = (
                    pstats.static_balance, dyn, mem,
                )
                row += [round(pstats.static_balance, 2),
                        None if dyn is None else round(dyn, 2),
                        None if mem is None else round(mem, 2)]
            rows.append(row)
    headers = ["benchmark", "policy"]
    for ds_name, n in configs:
        headers += [
            f"{ds_name}@{n} static", f"{ds_name}@{n} dynamic",
            f"{ds_name}@{n} memory",
        ]
    return (
        cells,
        format_table(
            headers, rows,
            title="Table IV: static/dynamic/memory load balance (max/mean)",
        ),
    )


# --------------------------------------------------------------------------- #
# Advisor accuracy — the repro.tune study table (not from the paper)
# --------------------------------------------------------------------------- #
def advisor_table(report):
    """Render an :class:`repro.tune.AdvisorReport` as a study table.

    One row per (shape, app): the advisor's pick, the measured best, the
    predicted rank the measured best landed at, and the top-1/top-3
    regret ratios (measured time of the pick over the measured best).
    """
    rows = [
        [
            r.shape,
            r.app,
            r.cells,
            r.predicted_best,
            r.measured_best,
            r.best_rank,
            round(r.regret1, 3),
            round(r.regret3, 3),
        ]
        for r in report.rows
    ]
    n = len(report.rows)
    summary = (
        f"top-1 hits {report.top1_hits}/{n}, top-3 hits {report.top3_hits}/{n}, "
        f"max top-1 regret {report.max_regret1:.3f}x (seed {report.seed})"
    )
    table = format_table(
        [
            "shape",
            "app",
            "cells",
            "predicted best",
            "measured best",
            "best rank",
            "regret@1",
            "regret@3",
        ],
        rows,
        title="Advisor accuracy: predicted vs. measured best configuration",
    )
    return rows, table + "\n" + summary
