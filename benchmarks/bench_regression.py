"""The regression gates that need a clock: one table, one loop.

Every gate is one :class:`Gate` row of :data:`GATES` — what to measure,
the verdict line to print and the floor or ceiling to check.  :func:`main`
is the one loop over the table; ``docs/performance.md`` ("Running and
updating") tabulates the rows for readers.  What a gate computes in
simulated time is not here: the sync matrix, the sweep slice, two-level
sync, serve, the advisor and gnn suites are rows of the ``gates`` golden
table (``tests/test_gates.py``), and the out-of-core study's rounds and
label CRCs are rows of the ``ooc`` table (``tests/test_ooc.py``), both
recorded by ``python -m tests.golden record``.

Usage::

    python benchmarks/bench_regression.py             # every default gate
    python benchmarks/bench_regression.py --only ooc  # one gate (repeatable)

Exit codes: 0 clean, 1 on a violation (``REGRESSION:`` lines), 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable

from benchmarks.perfbaseline import (
    SWEEP_SPEEDUP_MIN,
    measure_overhead,
    measure_sweep_speedup,
    overhead_tolerance,
)
from repro.hw import ContentionConfig
from repro.obs import Tracer
from repro.study.ooc import OocConfig
from repro.study.ooc import evaluate as ooc_evaluate
from repro.study.ooc import run_ooc_study


@dataclass(frozen=True)
class Gate:
    """One regression gate."""

    name: str
    measure: Callable[[], Any]
    #: the verdict line: names the gate, the measured value and the bound
    line: Callable[[Any], str]
    #: floor/ceiling violations of one measurement
    check: Callable[[Any], list]
    #: runs when no ``--only`` selects anything
    default: bool = True


# --------------------------------------------------------------------------- #
# verdict lines and checks
# --------------------------------------------------------------------------- #
def _sweep_line(sp: dict) -> str:
    return (
        f"sweep runtime on {sp['dataset']} ({sp['cells']} cells): "
        f"{sp['cold_wall_seconds']:.2f}s cold serial / "
        f"{sp['warm_wall_seconds']:.2f}s warm cache @ --jobs {sp['jobs']} = "
        f"{sp['speedup']:.2f}x (gate: >= {SWEEP_SPEEDUP_MIN:.1f}x; "
        f"warm re-partitions: {sp['warm_partition_builds']})"
    )


def _sweep_check(sp: dict) -> list[str]:
    if sp["warm_partition_builds"]:
        return [
            "sweep cache gate: warm sweep rebuilt "
            f"{sp['warm_partition_builds']} partition(s)"
        ]
    if sp["speedup"] < SWEEP_SPEEDUP_MIN:
        return [
            f"sweep runtime gate: {sp['speedup']:.2f}x < {SWEEP_SPEEDUP_MIN:.1f}x"
        ]
    return []


def _overhead_gate(
    name: str, subject: str, kwarg: str, off_value: Callable[[], Any],
    env: str, unset: str, off: str,
) -> Gate:
    """A zero-overhead-when-off row: the sync matrix with ``run_cell``'s
    ``kwarg`` unset vs set to ``off_value()``, held to ``env``'s ceiling."""

    def line(sp: dict) -> str:
        return (
            f"{subject} overhead over {sp['cells']} matrix cells: "
            f"{sp['unset_wall_seconds'] * 1e3:.1f} ms {unset} / "
            f"{sp['off_wall_seconds'] * 1e3:.1f} ms {off} "
            f"= {sp['overhead_ratio']:.4f}x "
            f"(gate: <= {overhead_tolerance(env):.2f}x)"
        )

    def check(sp: dict) -> list[str]:
        if sp["overhead_ratio"] <= overhead_tolerance(env):
            return []
        return [
            f"{subject} overhead gate: {sp['overhead_ratio']:.4f}x > "
            f"{overhead_tolerance(env):.2f}x"
        ]

    return Gate(name, lambda: measure_overhead(kwarg, off_value()), line, check)


def _ooc_line(report) -> str:
    cfg = report.config
    walls = report.small_wall
    return (
        f"ooc pipeline @ scale {cfg.scale} (ef {cfg.edge_factor:g}, "
        f"{cfg.num_partitions} parts): "
        f"{report.store_bytes / 2**20:.0f} MiB store = "
        f"{report.store_bytes / cfg.ram_cap_bytes:.1f}x the "
        f"{cfg.ram_cap_mb:g} MiB cap; peak worker RSS "
        f"{report.peak_rss_bytes / 2**20:.1f} MiB "
        f"(gate: <= {cfg.ram_cap_mb * cfg.rss_tol:g} MiB); "
        f"warm mmap/ram wall {walls['mmap'] / walls['ram']:.2f}x "
        f"(gate: <= {cfg.wall_tol:g}x)"
    )


def _ooc_check(report) -> list[str]:
    """The study's own gates, then its rounds and label CRCs against the
    ``ooc`` rows recorded for its config — none under a smoke cap, which
    is noted, not failed."""
    from tests import golden
    from tests.test_ooc import config_key, report_rows

    found = ooc_evaluate(report)
    key = config_key(report.config)
    want = {
        k: row for k, row in golden.recorded("ooc").items()
        if golden.group_of("ooc", k) == key
    }
    if not want:
        print(f"no ooc rows for {key}; rounds and label CRCs not compared")
        return found
    got = golden.normalized(report_rows(report))
    return found + [f"ooc rows: {p}" for p in golden.problems(got, want)]


# --------------------------------------------------------------------------- #
# the table
# --------------------------------------------------------------------------- #
GATES = (
    # a warm partition cache must beat the cold serial first run, with
    # zero re-partitions
    Gate("sweep-speedup", measure_sweep_speedup, _sweep_line, _sweep_check),
    _overhead_gate(
        "trace-overhead", "tracing", "tracer",
        lambda: Tracer(enabled=False), "REPRO_TRACE_OVERHEAD_TOL",
        "no tracer", "disabled tracer",
    ),
    _overhead_gate(
        "check-overhead", "invariant-check", "check", lambda: "off",
        "REPRO_CHECK_OVERHEAD_TOL", "check unset", "check=off",
    ),
    _overhead_gate(
        "contention-overhead", "contention", "contention",
        lambda: ContentionConfig(enabled=False),
        "REPRO_CONTENTION_OVERHEAD_TOL", "no config", "disabled config",
    ),
    # chunk-generate an R-MAT store >= 4x the RAM cap, partition it into
    # spilled shards, fan bfs + pr-push out over spawn workers
    # (REPRO_OOC_RAM_CAP_MB / REPRO_OOC_RSS_TOL / REPRO_OOC_WALL_TOL
    # override; docs/scale.md).  Minutes long, so only on request
    Gate(
        "ooc",
        lambda: run_ooc_study(
            OocConfig.from_env(), progress=lambda m: print(f"  {m}")
        ),
        _ooc_line, _ooc_check, default=False,
    ),
)


# --------------------------------------------------------------------------- #
# the loop
# --------------------------------------------------------------------------- #
def main(argv=None, gates=GATES) -> int:
    by_name = {g.name: g for g in gates}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--only", action="append", default=[], metavar="NAME",
        help="run just this gate (repeatable; gates run in the order "
             f"given): {', '.join(by_name)}",
    )
    args = ap.parse_args(argv)

    unknown = [n for n in args.only if n not in by_name]
    if unknown:
        ap.error(
            f"unknown gate(s) {', '.join(unknown)}; "
            f"valid names: {', '.join(by_name)}"
        )
    selected = [by_name[n] for n in dict.fromkeys(args.only)] or [
        g for g in gates if g.default
    ]

    violations: list[str] = []
    for g in selected:
        result = g.measure()
        print(g.line(result))
        found = list(g.check(result))
        for v in found:
            print(f"REGRESSION: {v}")
        violations += found

    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    print("all gates within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
