"""Command-line entry point: ``repro-study <experiment> [--quick]``.

``repro-study list`` shows every reproducible table/figure;
``repro-study all`` runs them in order (hours at full fidelity; use
``--quick`` for a reduced sweep).  ``--jobs N`` fans the study cells of
each experiment over ``N`` worker processes and ``--cache-dir DIR``
persists partitions on disk so repeated sweeps skip re-partitioning.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from repro.study import figures, tables

__all__ = ["main"]


def _analysis(quick: bool, ex):
    """The in-text narrative numbers (Section V's quoted quantities)."""
    from repro.generators import load_dataset
    from repro.study.analysis import (
        async_work_inflation,
        message_size_reduction,
        replication_table,
    )

    uk07 = load_dataset("uk07-s")
    msr = message_size_reduction(
        "sssp", uk07, num_gpus=16 if quick else 32, executor=ex
    )
    lines = [
        "In-text analysis numbers",
        f"  sssp/{msr.dataset}@{msr.num_gpus}: avg message "
        f"{msr.as_avg_bytes / 1e6:.2f} MB (AS) -> "
        f"{msr.uo_avg_bytes / 1e6:.2f} MB (UO), {msr.reduction:.1f}x",
    ]
    if not quick:
        uk14 = load_dataset("uk14-s")
        infl = async_work_inflation("bfs", uk14, num_gpus=64, executor=ex)
        lines.append(
            f"  bfs/{infl.dataset}@{infl.num_gpus}: rounds "
            f"{infl.sync_rounds} (sync) -> {infl.async_min_rounds}-"
            f"{infl.async_max_rounds} (async), work x{infl.work_inflation:.2f}"
        )
    _, table = replication_table(uk07, num_gpus=16 if quick else 32, executor=ex)
    lines.append("")
    lines.append(table)
    return None, "\n".join(lines)


def _microbench(quick: bool, ex):
    from repro.study.microbench import uo_threshold_curve
    from repro.study.report import format_table

    pts = uo_threshold_curve(list_len=50_000 if quick else 200_000,
                             volume_scale=500.0)
    rows = [
        [f"{p.updated_fraction * 100:.1f}%", round(p.as_seconds * 1e3, 3),
         round(p.uo_seconds * 1e3, 3), "UO" if p.uo_wins else "AS"]
        for p in pts
    ]
    return None, format_table(
        ["updated fraction", "AS (ms)", "UO (ms)", "cheaper"],
        rows, title="UO extraction-threshold microbenchmark",
    )

# Each experiment takes (quick, executor); table1 and the microbenchmark
# have no study cells to fan out and ignore the executor.
_EXPERIMENTS = {
    "table1": lambda quick, ex: tables.table1(
        diameter_sweeps=2 if quick else 4
    ),
    "table2": lambda quick, ex: tables.table2(
        gpu_counts=(2, 6) if quick else (1, 2, 4, 6),
        benchmarks=("bfs", "cc") if quick else ("bfs", "cc", "pr", "sssp"),
        executor=ex,
    ),
    "table3": lambda quick, ex: tables.table3(executor=ex),
    "table4": lambda quick, ex: tables.table4(
        benchmarks=("bfs", "pr") if quick else ("bfs", "cc", "kcore", "pr", "sssp"),
        executor=ex,
    ),
    "fig3": lambda quick, ex: figures.figure3(
        gpu_counts=(2, 8, 32) if quick else (2, 4, 8, 16, 32, 64),
        benchmarks=("bfs", "sssp") if quick else figures.STUDY_BENCHMARKS,
        executor=ex,
    ),
    "fig4": lambda quick, ex: figures.figure4(
        benchmarks=("bfs", "sssp") if quick else figures.STUDY_BENCHMARKS,
        executor=ex,
    ),
    "fig5": lambda quick, ex: figures.figure5(executor=ex),
    "fig6": lambda quick, ex: figures.figure6(
        benchmarks=("bfs", "sssp") if quick else figures.STUDY_BENCHMARKS,
        systems=("var1", "var2", "var3") if quick
        else ("var1", "var2", "var3", "var4"),
        executor=ex,
    ),
    "fig7": lambda quick, ex: figures.figure7(
        gpu_counts=(2, 8, 32) if quick else (2, 4, 8, 16, 32, 64),
        benchmarks=("bfs", "sssp") if quick else figures.STUDY_BENCHMARKS,
        executor=ex,
    ),
    "fig8": lambda quick, ex: figures.figure8(
        benchmarks=("bfs", "sssp") if quick else figures.STUDY_BENCHMARKS,
        executor=ex,
    ),
    "fig9": lambda quick, ex: figures.figure9(
        benchmarks=("bfs", "sssp") if quick else figures.STUDY_BENCHMARKS,
        executor=ex,
    ),
    "analysis": lambda quick, ex: _analysis(quick, ex),
    "microbench": lambda quick, ex: _microbench(quick, ex),
}


def _run_ooc(args) -> int:
    """``repro-study --ooc``: the out-of-core pipeline study + gate."""
    import json

    from repro.study.ooc import OocConfig, evaluate, run_ooc_study

    cfg = OocConfig.from_env(jobs=max(args.jobs, 2))
    if args.ooc_dir:
        cfg.work_dir = args.ooc_dir
    t0 = time.time()
    report = run_ooc_study(cfg, progress=lambda msg: print(f"  {msg}"))
    violations = evaluate(report)
    if args.ooc_out:
        with open(args.ooc_out, "w") as f:
            json.dump(report.to_json(), f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"report written to {args.ooc_out}")
    print(f"[ooc study finished in {time.time() - t0:.1f}s]")
    if violations:
        for v in violations:
            print(f"VIOLATION: {v}")
        return 1
    print(
        f"ooc gate OK: {report.store_bytes / 2**20:.0f} MiB graph, "
        f"peak worker RSS {report.peak_rss_bytes / 2**20:.1f} MiB "
        f"under the {cfg.ram_cap_mb:g} MiB cap "
        f"(x{cfg.rss_tol:g} tol), warm mmap/ram wall "
        f"{report.small_wall['mmap'] / report.small_wall['ram']:.2f}x"
    )
    return 0


def _run_advisor(args) -> int:
    """``repro-study --advisor``: the advisor-accuracy study + gate."""
    from repro.runtime.sweep import SweepExecutor
    from repro.study.tables import advisor_table
    from repro.tune import advisor_study, evaluate_advisor

    t0 = time.time()
    with SweepExecutor(jobs=args.jobs, cache_dir=args.cache_dir) as ex:
        report = advisor_study(seed=args.advisor_seed, executor=ex)
    _, text = advisor_table(report)
    print(text)
    if args.advisor_out:
        with open(args.advisor_out, "w") as f:
            f.write(report.to_json())
            f.write("\n")
        print(f"report written to {args.advisor_out}")
    violations = evaluate_advisor(report)
    print(f"[advisor study finished in {time.time() - t0:.1f}s]")
    if violations:
        for v in violations:
            print(f"VIOLATION: {v}")
        return 1
    return 0


def _run_gnn(args) -> int:
    """``repro-study --gnn``: the GNN placement study + gate."""
    from repro.gnnflow import GNN_SHAPES, evaluate_gnn, gnn_study
    from repro.runtime.sweep import SweepExecutor
    from repro.study.report import format_table

    shapes = (
        tuple(s for s in args.gnn_shapes.split(",") if s)
        if args.gnn_shapes
        else GNN_SHAPES
    )
    t0 = time.time()
    with SweepExecutor(jobs=args.jobs, cache_dir=args.cache_dir) as ex:
        report = gnn_study(shapes=shapes, seed=args.gnn_seed, executor=ex)
    rows = [
        [r.shape, r.policy, r.placement, f"{r.h2d_bytes:.0f}",
         r.cache_hits, r.cache_misses, f"{r.hit_rate * 100:.0f}%",
         f"{r.execution_time * 1e3:.3f}"]
        for r in report.rows
    ]
    print(format_table(
        ["shape", "policy", "placement", "H2D bytes", "hits", "misses",
         "hit rate", "time (ms)"],
        rows, title="GNN feature-placement study",
    ))
    if args.gnn_out:
        with open(args.gnn_out, "w") as f:
            f.write(report.to_json())
            f.write("\n")
        print(f"report written to {args.gnn_out}")
    violations = evaluate_gnn(report)
    print(f"[gnn study finished in {time.time() - t0:.1f}s]")
    if violations:
        for v in violations:
            print(f"VIOLATION: {v}")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        choices=sorted(_EXPERIMENTS) + ["all", "list"],
        help="which table/figure to regenerate (optional with "
        "--ooc/--advisor/--gnn)",
    )
    parser.add_argument(
        "--advisor", action="store_true",
        help="run the repro.tune advisor-accuracy study instead of a "
        "paper experiment: full-validation DSE over the seeded fuzz-shape "
        "suite, reporting predicted-best vs. measured-best rank and "
        "regret, gated at the same threshold as bench_regression.py "
        "--only advisor (see docs/tuning.md)",
    )
    parser.add_argument(
        "--advisor-seed", type=int, default=None, metavar="N",
        help="suite seed for --advisor (default: the committed gate seed)",
    )
    parser.add_argument(
        "--advisor-out", default=None, metavar="FILE",
        help="also write the --advisor report as JSON to FILE",
    )
    parser.add_argument(
        "--gnn", action="store_true",
        help="run the repro.gnnflow placement study instead of a paper "
        "experiment: the GNN feature-gather workload over the seeded "
        "fuzz-shape suite x partition policies x placement treatments "
        "(no cache / hot-vertex LRU buffer / buffer + locality-aware "
        "sampling), gated like bench_regression.py --only gnn "
        "(see docs/gnnflow.md)",
    )
    parser.add_argument(
        "--gnn-seed", type=int, default=None, metavar="N",
        help="suite seed for --gnn (default: the committed gate seed)",
    )
    parser.add_argument(
        "--gnn-shapes", default=None, metavar="S1,S2",
        help="comma-separated fuzz shapes for --gnn (default: the full "
        "suite; CI smoke runs a 2-shape subset)",
    )
    parser.add_argument(
        "--gnn-out", default=None, metavar="FILE",
        help="also write the --gnn report as JSON to FILE",
    )
    parser.add_argument(
        "--ooc", action="store_true",
        help="run the out-of-core pipeline study instead of a paper "
        "experiment: chunk-generate a graph several times the RAM cap "
        "into an mmap store, spill partitions, and fan BFS + PageRank "
        "out over spawn workers under a peak-RSS gate (env knobs: "
        "REPRO_OOC_RAM_CAP_MB, REPRO_OOC_SIZE_MULT, REPRO_OOC_RSS_TOL, "
        "REPRO_OOC_WALL_TOL; see docs/scale.md)",
    )
    parser.add_argument(
        "--ooc-dir", default=None, metavar="DIR",
        help="working directory for the --ooc store and partition cache "
        "(default: .ooc in the current directory; reused across runs)",
    )
    parser.add_argument(
        "--ooc-out", default=None, metavar="FILE",
        help="also write the --ooc report as JSON to FILE",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced benchmark/GPU-count sweep for a fast look",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the study-cell sweep (1 = in-process)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist partitions to DIR; re-runs skip re-partitioning",
    )
    parser.add_argument(
        "--engine-executor", choices=("serial", "threads"), default="serial",
        help="per-partition compute loop inside each engine round",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="log one line per completed study cell",
    )
    parser.add_argument(
        "--trace", default=None, metavar="DIR",
        help="write one Chrome trace JSON per study cell to DIR "
        "(open in Perfetto; summarize with repro-trace)",
    )
    parser.add_argument(
        "--check", choices=("off", "cheap", "full"), default="off",
        help="runtime invariant checking in every cell (see "
        "docs/correctness.md); 'full' is for debugging sweeps, not timing",
    )
    args = parser.parse_args(argv)

    if args.ooc:
        return _run_ooc(args)
    if args.advisor:
        if args.advisor_seed is None:
            from repro.tune.dse import SUITE_SEED

            args.advisor_seed = SUITE_SEED
        return _run_advisor(args)
    if args.gnn:
        if args.gnn_seed is None:
            from repro.gnnflow import GNN_SEED

            args.gnn_seed = GNN_SEED
        return _run_gnn(args)
    if args.experiment is None:
        parser.error(
            "an experiment name is required unless --ooc, --advisor, or "
            "--gnn is given"
        )

    if args.experiment == "list":
        for name in sorted(_EXPERIMENTS):
            print(name)
        return 0

    if args.progress:
        logging.basicConfig(
            level=logging.INFO, format="%(message)s", stream=sys.stderr
        )
        logging.getLogger("repro.runtime.sweep").setLevel(logging.INFO)

    from repro.runtime.sweep import SweepExecutor

    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    with SweepExecutor(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        engine_executor=args.engine_executor,
        trace_dir=args.trace,
        check=args.check,
    ) as ex:
        for name in names:
            t0 = time.time()
            _, text = _EXPERIMENTS[name](args.quick, ex)
            print(text)
            print(f"[{name} regenerated in {time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
