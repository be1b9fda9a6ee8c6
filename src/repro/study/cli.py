"""Command-line entry point: ``repro-study <experiment> [--quick]``.

``repro-study list`` shows every experiment; ``repro-study all`` runs the
paper's tables and figures in order (hours at full fidelity; use
``--quick`` for the reduced grid, the one ``python -m tests.golden record
study`` pins).  ``--jobs N`` fans the study cells of
each experiment over ``N`` worker processes and ``--cache-dir DIR``
persists partitions on disk so repeated sweeps skip re-partitioning.

Three rows are gated studies rather than paper experiments — ``ooc``
(docs/scale.md), ``advisor`` (docs/tuning.md) and ``gnn``
(docs/gnnflow.md): each produces a report that ``--out FILE`` writes as
JSON, and ends in exit code 1 with ``VIOLATION:`` lines when the report
fails its gate.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import cli_main
from repro.gnnflow import GNN_SEED, GNN_SHAPES, evaluate_gnn, gnn_study
from repro.runtime.sweep import SweepExecutor
from repro.study import figures, tables
from repro.study.ooc import OocConfig, evaluate as evaluate_ooc, run_ooc_study
from repro.study.report import format_table
from repro.tune.dse import SUITE_SEED, advisor_study, evaluate_advisor

__all__ = ["main"]


def _analysis(args, ex):
    """The in-text narrative numbers (Section V's quoted quantities)."""
    from repro.generators import load_dataset
    from repro.study.analysis import (
        async_work_inflation,
        message_size_reduction,
        replication_table,
    )

    quick = args.quick
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


def _table1(args, ex):
    """Table I has no study cells: it measures each stand-in graph."""
    return tables.table1()


def _microbench(args, ex):
    """The Section V-B3 microbenchmark (no study cells): AS vs UO for one
    200k-proxy exchange at paper volume, and where UO stops paying off
    by exchange-list length."""
    from repro.study.microbench import uo_crossover_fraction, uo_threshold_curve

    pts = uo_threshold_curve(list_len=200_000, volume_scale=500.0)
    crossings = {
        n: uo_crossover_fraction(n, volume_scale=500.0)
        for n in (2_000, 20_000, 200_000)
    }
    rows = [
        [f"{p.updated_fraction * 100:.1f}%", round(p.as_seconds * 1e3, 3),
         round(p.uo_seconds * 1e3, 3), "UO" if p.uo_wins else "AS"]
        for p in pts
    ]
    text = format_table(
        ["updated fraction", "AS (ms)", "UO (ms)", "cheaper"],
        rows, title="UO extraction-threshold microbenchmark "
        "(200k-proxy exchange, paper scale x500)",
    )
    text += "\n\ncrossover fraction by exchange-list length: " + ", ".join(
        f"{n:,} -> {x:.2f}" for n, x in crossings.items()
    )
    return (pts, crossings), text


def _ooc(args, ex):
    """The out-of-core pipeline: chunk-generate a graph several times the
    RAM cap into an mmap store, spill partitions, fan bfs + pr-push out
    under the peak-RSS meter.  Its workers must be ``spawn``-started and
    read fresh, so it builds its own pool (``--jobs``, at least 2) and
    the shared executor's settings do not reach it."""
    cfg = OocConfig.from_env(jobs=max(args.jobs, 2))
    if args.ooc_dir:
        cfg.work_dir = args.ooc_dir
    report = run_ooc_study(cfg, progress=lambda msg: print(f"  {msg}"))
    return report, (
        f"ooc: {report.store_bytes / 2**20:.0f} MiB graph, "
        f"peak worker RSS {report.peak_rss_bytes / 2**20:.1f} MiB "
        f"against the {cfg.ram_cap_mb:g} MiB cap "
        f"(x{cfg.rss_tol:g} tol), warm mmap/ram wall "
        f"{report.small_wall['mmap'] / report.small_wall['ram']:.2f}x"
    )


def _advisor(args, ex):
    """Advisor accuracy: full-validation DSE over the seeded shape suite."""
    seed = SUITE_SEED if args.seed is None else args.seed
    report = advisor_study(seed=seed, executor=ex)
    return report, tables.advisor_table(report)[1]


def _gnn(args, ex):
    """GNN feature placement: shapes x partition policies x treatments."""
    shapes = (
        tuple(s for s in args.gnn_shapes.split(",") if s)
        if args.gnn_shapes
        else GNN_SHAPES
    )
    seed = GNN_SEED if args.seed is None else args.seed
    report = gnn_study(shapes=shapes, seed=seed, executor=ex)
    rows = [
        [r.shape, r.policy, r.placement, f"{r.h2d_bytes:.0f}",
         r.cache_hits, r.cache_misses, f"{r.hit_rate * 100:.0f}%",
         f"{r.execution_time * 1e3:.3f}"]
        for r in report.rows
    ]
    return report, format_table(
        ["shape", "policy", "placement", "H2D bytes", "hits", "misses",
         "hit rate", "time (ms)"],
        rows, title="GNN feature-placement study",
    )


@dataclass(frozen=True)
class _Row:
    """One experiment.  A row with a ``grid`` is a paper table or figure
    whose study cells fan out over the executor: ``fn(**grid,
    executor=ex)`` under ``--quick``, ``fn(executor=ex)`` without —
    ``fn``'s defaults are the paper's grid, ``grid`` the reduced one the
    golden ``study`` table records (tests/test_paper_claims.py).  Any
    other row is ``fn(args, ex) -> (result, text)``; with
    ``evaluate(result) -> violations`` it is a gated study: its result is
    a report with ``to_json()``, and it is not part of ``all``."""

    fn: Callable
    grid: Optional[dict] = None
    evaluate: Optional[Callable] = None

    def run(self, args, ex):
        if self.grid is None:
            return self.fn(args, ex)
        return self.fn(**(self.grid if args.quick else {}), executor=ex)


# ooc builds its own executor (see _ooc).
_EXPERIMENTS = {
    "table1": _Row(_table1),
    "table2": _Row(tables.table2, dict(gpu_counts=(2, 6))),
    "table3": _Row(tables.table3, {}),
    "table4": _Row(tables.table4, {}),
    "fig3": _Row(figures.figure3, dict(
        benchmarks=("bfs", "sssp", "cc"), gpu_counts=(2, 8, 32),
    )),
    "fig4": _Row(figures.figure4, dict(benchmarks=("bfs", "pr", "sssp"))),
    "fig5": _Row(figures.figure5, {}),
    # async (var4) pr at 64 partitions is the one slow simulation
    # (EXPERIMENTS.md, deviation 3): Var1-3 carry Figure 6's ALB/UO story
    "fig6": _Row(figures.figure6, dict(
        benchmarks=("bfs", "pr"), systems=("var1", "var2", "var3"),
    )),
    "fig7": _Row(figures.figure7, dict(
        benchmarks=("bfs", "cc"), gpu_counts=(2, 16, 64),
    )),
    "fig8": _Row(figures.figure8, dict(benchmarks=("bfs", "cc", "sssp"))),
    "fig9": _Row(figures.figure9, dict(benchmarks=("bfs", "cc"))),
    "analysis": _Row(_analysis),
    "microbench": _Row(_microbench),
    "ooc": _Row(_ooc, evaluate=evaluate_ooc),
    "advisor": _Row(_advisor, evaluate=evaluate_advisor),
    "gnn": _Row(_gnn, evaluate=evaluate_gnn),
}


@cli_main
def main(argv: list[str] | None = None) -> int:
    gated = sorted(n for n, row in _EXPERIMENTS.items() if row.evaluate)
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Regenerate the paper's tables and figures, or run "
        "one of the gated studies.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all", "list"],
        help="which table/figure to regenerate ('all' = every paper "
        f"table and figure), or a gated study ({', '.join(gated)}): "
        "'ooc' is the out-of-core pipeline under a peak-RSS gate (env "
        "knobs REPRO_OOC_RAM_CAP_MB, REPRO_OOC_SIZE_MULT, "
        "REPRO_OOC_RSS_TOL, REPRO_OOC_WALL_TOL; docs/scale.md) — it "
        "builds its own spawn pool by design, so of the options below "
        "only --jobs, --ooc-dir and --out reach it; 'advisor' is the "
        "repro.tune accuracy study (docs/tuning.md); 'gnn' the "
        "repro.gnnflow placement study (docs/gnnflow.md)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help=f"write the report of a gated study ({', '.join(gated)}) "
        "as JSON to FILE",
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="suite seed for advisor / gnn (default: the committed gate seed)",
    )
    parser.add_argument(
        "--gnn-shapes", default=None, metavar="S1,S2",
        help="comma-separated fuzz shapes for gnn (default: the full "
        "suite; CI smoke runs a 2-shape subset)",
    )
    parser.add_argument(
        "--ooc-dir", default=None, metavar="DIR",
        help="working directory for the ooc store and partition cache "
        "(default: .ooc in the current directory; reused across runs)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="the reduced benchmark/GPU-count grid (the one the golden "
        "study table records) for a fast look",
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

    if args.experiment == "list":
        for name in sorted(_EXPERIMENTS):
            print(name)
        return 0
    if args.experiment == "all":
        names = sorted(n for n, row in _EXPERIMENTS.items() if not row.evaluate)
    else:
        names = [args.experiment]
    if args.out and not _EXPERIMENTS[names[0]].evaluate:
        parser.error(f"--out needs a study that writes a report: {gated}")

    if args.progress:
        logging.basicConfig(
            level=logging.INFO, format="%(message)s", stream=sys.stderr
        )
        logging.getLogger("repro.runtime.sweep").setLevel(logging.INFO)

    status = 0
    with SweepExecutor(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        engine_executor=args.engine_executor,
        trace_dir=args.trace,
        check=args.check,
    ) as ex:
        for name in names:
            row = _EXPERIMENTS[name]
            t0 = time.time()
            result, text = row.run(args, ex)
            print(text)
            if args.out:
                with open(args.out, "w") as f:
                    f.write(result.to_json() + "\n")
                print(f"report written to {args.out}")
            print(f"[{name} regenerated in {time.time() - t0:.1f}s]\n")
            for v in row.evaluate(result) if row.evaluate else ():
                print(f"VIOLATION: {v}")
                status = 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
