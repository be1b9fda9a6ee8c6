"""Reproductions of the paper's Figures 3-9.

Scaling figures return :class:`~repro.study.scaling.ScalingResult` per
(benchmark, dataset) pair; breakdown figures return
:class:`~repro.metrics.breakdown.Breakdown` bars.  Missing points/bars mean
the configuration OOMed or the system lacks the feature — exactly the
semantics of the gaps in the paper's plots.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.generators.datasets import dataset_names, load_dataset
from repro.metrics.breakdown import Breakdown, breakdown_row
from repro.runtime.cells import CellSpec, SystemSpec
from repro.runtime.sweep import run_cells
from repro.study.report import format_series, format_table
from repro.study.scaling import ScalingResult, strong_scaling

__all__ = [
    "figure3", "figure4", "figure5", "figure6", "figure7", "figure8",
    "figure9",
]

STUDY_BENCHMARKS = ("bfs", "cc", "kcore", "pr", "sssp")
POLICIES = ("cvc", "hvc", "iec", "oec")
FIG3_SYSTEMS = ("lux", "var1", "var2", "var3", "var4")


def _breakdown_sweep(
    systems: dict,
    benchmarks: Sequence[str],
    datasets: Sequence[str],
    num_gpus: int,
    title: str,
    executor=None,
):
    """Shared driver for the breakdown figures (4, 5, 6, 8, 9).

    ``systems`` values are picklable :class:`SystemSpec` entries; the
    cells run through ``executor`` (``None`` = serial in-process) and rows
    are assembled in nested-loop order either way.
    """
    bars: dict[tuple[str, str, str], Optional[Breakdown]] = {}
    rows = []
    specs = [
        CellSpec(
            key=(ds_name, bench, sys_name),
            system=spec,
            benchmark=bench,
            dataset=ds_name,
            num_gpus=num_gpus,
        )
        for ds_name in datasets
        for bench in benchmarks
        for sys_name, spec in systems.items()
    ]
    for out in run_cells(specs, executor):
        ds_name, bench, sys_name = out.key
        bar = (
            breakdown_row(f"{ds_name}/{bench}/{sys_name}", out.stats)
            if out.ok
            else None
        )
        bars[out.key] = bar
        rows.append(
            [ds_name, bench, sys_name]
            + (list(bar.row()[1:]) if bar else [None] * 5)
        )
    headers = [
        "dataset", "benchmark", "system",
        "max compute (s)", "min wait (s)", "device comm (s)",
        "total (s)", "comm volume (GB)",
    ]
    return bars, format_table(headers, rows, title=title)


# --------------------------------------------------------------------------- #
# Figure 3 — strong scaling of D-IrGL variants + Lux (medium graphs, IEC)
# --------------------------------------------------------------------------- #
def figure3(
    benchmarks: Sequence[str] = STUDY_BENCHMARKS,
    datasets: Optional[Sequence[str]] = None,
    gpu_counts: Sequence[int] = (2, 4, 8, 16, 32, 64),
    systems: Sequence[str] = FIG3_SYSTEMS,
    executor=None,
):
    """Strong scaling of Var1-4 and Lux on the medium graphs."""
    datasets = list(datasets or dataset_names("medium"))
    results: dict[tuple[str, str], ScalingResult] = {}
    chunks = []
    for ds_name in datasets:
        ds = load_dataset(ds_name)
        for bench in benchmarks:
            sweep = strong_scaling(
                {s: SystemSpec.variant(s, "iec") for s in systems},
                bench, ds, gpu_counts, executor=executor,
            )
            results[(ds_name, bench)] = sweep
            chunks.append(
                format_series(
                    "GPUs", list(gpu_counts), sweep.series(),
                    title=f"Figure 3 [{ds_name} / {bench}] execution time (s)",
                )
            )
    return results, "\n\n".join(chunks)


# --------------------------------------------------------------------------- #
# Figure 4 — breakdown of variants, medium graphs, 32 GPUs
# --------------------------------------------------------------------------- #
def figure4(
    benchmarks: Sequence[str] = STUDY_BENCHMARKS,
    datasets: Optional[Sequence[str]] = None,
    num_gpus: int = 32,
    systems: Sequence[str] = ("var1", "var2", "var3", "var4"),
    executor=None,
):
    datasets = list(datasets or dataset_names("medium"))
    return _breakdown_sweep(
        {s: SystemSpec.variant(s, "iec") for s in systems},
        benchmarks, datasets, num_gpus,
        title=f"Figure 4: variant breakdown, medium graphs, {num_gpus} GPUs",
        executor=executor,
    )


# --------------------------------------------------------------------------- #
# Figure 5 — Lux vs D-IrGL Var1, medium graphs, 4 GPUs
# --------------------------------------------------------------------------- #
def figure5(
    benchmarks: Sequence[str] = ("cc", "pr"),
    datasets: Optional[Sequence[str]] = None,
    num_gpus: int = 4,
    executor=None,
):
    datasets = list(datasets or dataset_names("medium"))
    return _breakdown_sweep(
        {
            "lux": SystemSpec.variant("lux"),
            "d-irgl(var1)": SystemSpec.variant("var1", "iec"),
        },
        benchmarks, datasets, num_gpus,
        title=f"Figure 5: Lux vs D-IrGL (Var1), medium graphs, {num_gpus} GPUs",
        executor=executor,
    )


# --------------------------------------------------------------------------- #
# Figure 6 — breakdown of variants, large graphs, 64 GPUs
# --------------------------------------------------------------------------- #
def figure6(
    benchmarks: Sequence[str] = STUDY_BENCHMARKS,
    datasets: Optional[Sequence[str]] = None,
    num_gpus: int = 64,
    systems: Sequence[str] = ("var1", "var2", "var3", "var4"),
    executor=None,
):
    datasets = list(datasets or dataset_names("large"))
    return _breakdown_sweep(
        {s: SystemSpec.variant(s, "iec") for s in systems},
        benchmarks, datasets, num_gpus,
        title=f"Figure 6: variant breakdown, large graphs, {num_gpus} GPUs",
        executor=executor,
    )


# --------------------------------------------------------------------------- #
# Figure 7 — strong scaling across partitioning policies (Var4 config)
# --------------------------------------------------------------------------- #
def figure7(
    benchmarks: Sequence[str] = STUDY_BENCHMARKS,
    datasets: Optional[Sequence[str]] = None,
    gpu_counts: Sequence[int] = (2, 4, 8, 16, 32, 64),
    policies: Sequence[str] = POLICIES,
    include_lux: bool = True,
    executor=None,
):
    """Strong scaling of D-IrGL (all optimizations) per policy, plus Lux."""
    datasets = list(datasets or dataset_names("medium"))
    systems: dict = {
        p.upper(): SystemSpec.dirgl(policy=p) for p in policies
    }
    if include_lux:
        systems["Lux"] = SystemSpec.variant("lux")
    results: dict[tuple[str, str], ScalingResult] = {}
    chunks = []
    for ds_name in datasets:
        ds = load_dataset(ds_name)
        for bench in benchmarks:
            sweep = strong_scaling(
                systems, bench, ds, gpu_counts, executor=executor
            )
            results[(ds_name, bench)] = sweep
            chunks.append(
                format_series(
                    "GPUs", list(gpu_counts), sweep.series(),
                    title=f"Figure 7 [{ds_name} / {bench}] execution time (s)",
                )
                + f"\nfastest at {gpu_counts[-1]} GPUs: "
                f"{sweep.best_system_at(gpu_counts[-1])}"
            )
    return results, "\n\n".join(chunks)


# --------------------------------------------------------------------------- #
# Figures 8 and 9 — breakdown across policies (medium@32, large@64)
# --------------------------------------------------------------------------- #
def figure8(
    benchmarks: Sequence[str] = STUDY_BENCHMARKS,
    datasets: Optional[Sequence[str]] = None,
    num_gpus: int = 32,
    policies: Sequence[str] = POLICIES,
    executor=None,
):
    datasets = list(datasets or dataset_names("medium"))
    return _breakdown_sweep(
        {p.upper(): SystemSpec.dirgl(policy=p) for p in policies},
        benchmarks, datasets, num_gpus,
        title=f"Figure 8: policy breakdown, medium graphs, {num_gpus} GPUs",
        executor=executor,
    )


def figure9(
    benchmarks: Sequence[str] = STUDY_BENCHMARKS,
    datasets: Optional[Sequence[str]] = None,
    num_gpus: int = 64,
    policies: Sequence[str] = POLICIES,
    executor=None,
):
    datasets = list(datasets or dataset_names("large"))
    return _breakdown_sweep(
        {p.upper(): SystemSpec.dirgl(policy=p) for p in policies},
        benchmarks, datasets, num_gpus,
        title=f"Figure 9: policy breakdown, large graphs, {num_gpus} GPUs",
        executor=executor,
    )
