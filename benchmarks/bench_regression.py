"""The regression gates: one table, one loop, one baseline format.

Every gate is one :class:`Gate` row of :data:`GATES` — what to measure,
the verdict line to print, the structural floor or ceiling to check, and
(for a gate with a committed baseline) the envelope parts
``benchmarks.perfbaseline.diff_baseline`` pins against
``benchmarks/BENCH_<gate>.json``.  :func:`main` is the one loop over the
table; ``docs/performance.md`` ("Running and updating") tabulates the
rows for readers.

Usage::

    python benchmarks/bench_regression.py               # every default gate
    python benchmarks/bench_regression.py --check-only  # skip wall-clock gates (CI)
    python benchmarks/bench_regression.py --only gnn    # one gate (repeatable)
    python benchmarks/bench_regression.py --update      # regenerate baselines

Exit codes: 0 clean, 1 on a violation (``REGRESSION:`` lines), 2 on a
usage error or a baseline that is missing or not this gate's.
``REPRO_BENCH_WALL_TOL`` sets the slack factor for recorded wall numbers
(default 4.0; 0 disables wall checks).

The module doubles as a pytest bench (``pytest benchmarks/bench_regression.py
--benchmark-only``) that archives each gate's output under
``benchmarks/results/regression_<gate>.txt``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

import pytest

from benchmarks.perfbaseline import (
    HIER_AGG_MIN,
    MATRIX_WORKLOAD,
    SIM_RTOL,
    SWEEP_SPEEDUP_MIN,
    SWEEP_WORKLOAD,
    default_wall_tolerance,
    diff_baseline,
    load_baseline,
    measure_hier_aggregation,
    measure_overhead,
    measure_sweep_speedup,
    overhead_tolerance,
    run_matrix,
    run_sweep,
    write_baseline,
)
from benchmarks.serve_gate import (
    DETERMINISTIC_FIELDS,
    SERVE_MIN_SPEEDUP,
    evaluate_serve,
    measure_serve,
)
from repro.gnnflow import H2D_REDUCTION_GATE, GnnReport, evaluate_gnn, gnn_study
from repro.hw import ContentionConfig
from repro.obs import Tracer
from repro.study.ooc import OocConfig
from repro.study.ooc import evaluate as ooc_evaluate
from repro.study.ooc import run_ooc_study
from repro.study.report import format_table
from repro.tune import advisor_study, evaluate_advisor
from repro.tune.dse import REGRET_GATE

BASELINE_DIR = pathlib.Path(__file__).parent
RESULTS_DIR = BASELINE_DIR / "results"

#: Worker count for the deterministic sweep check — 2 processes is enough
#: to prove pool fan-out changes nothing, and stays CI-friendly.
SWEEP_CHECK_JOBS = 2


@dataclass(frozen=True)
class Gate:
    """One regression gate."""

    name: str
    measure: Callable[[], Any]
    #: the verdict line: names the gate, the measured value and the bound
    line: Callable[[Any], str]
    #: structural floor/ceiling violations of one measurement
    check: Callable[[Any], list]
    #: the baseline envelope's parts.  A gate with ``deterministic`` owns
    #: ``BENCH_<name>.json``; one without has no baseline.
    config: Optional[Callable[[Any], dict]] = None
    deterministic: Optional[Callable[[Any], dict]] = None
    #: host-dependent numbers to record under ``wall[name]``
    record: Callable[[Any], dict] = lambda result: {}
    #: relative tolerance for ``deterministic`` floats (0 = exact)
    rtol: float = SIM_RTOL
    #: a wall-clock gate: skipped by ``--check-only``
    wall: bool = False
    #: runs when no ``--only`` selects anything
    default: bool = True
    #: ``config`` follows environment knobs, so a mismatch against the
    #: baseline skips the comparison with a note instead of failing
    env_config: bool = False
    #: a baseline-less gate whose measurement ``--update`` keeps in this
    #: gate's file (under ``wall[name]``), re-measured whenever it is
    recorded_in: Optional[str] = None


# --------------------------------------------------------------------------- #
# verdict lines and structural checks
# --------------------------------------------------------------------------- #
def _at_least(subject: str, key: str, floor: float) -> Callable[[dict], list]:
    """The check of a ratio gate: ``sp[key]`` may not fall below ``floor``."""

    def check(sp: dict) -> list[str]:
        if sp[key] >= floor:
            return []
        return [f"{subject} gate: {sp[key]:.2f}x < {floor:.1f}x"]

    return check


def _matrix_table(results) -> str:
    rows = [
        [
            key,
            f"{cell.wall_seconds * 1e3:.1f}",
            f"{cell.sim_seconds:.4f}",
            cell.rounds,
            cell.messages,
            f"{cell.comm_bytes / 1e6:.2f}",
        ]
        for key, cell in sorted(results.items())
    ]
    return format_table(
        ["cell", "wall (ms)", "sim (s)", "rounds", "messages", "MB"],
        rows,
        title="Sync-path regression matrix (RMAT, 4 partitions)",
    )


def _sweep_line(sp: dict) -> str:
    return (
        f"sweep runtime on {sp['dataset']} ({sp['cells']} cells): "
        f"{sp['cold_wall_seconds']:.2f}s cold serial / "
        f"{sp['warm_wall_seconds']:.2f}s warm cache @ --jobs {sp['jobs']} = "
        f"{sp['speedup']:.2f}x (gate: >= {SWEEP_SPEEDUP_MIN:.1f}x; "
        f"warm re-partitions: {sp['warm_partition_builds']})"
    )


def _sweep_check(sp: dict) -> list[str]:
    if sp["warm_partition_builds"] == 0:
        return _at_least("sweep runtime", "speedup", SWEEP_SPEEDUP_MIN)(sp)
    return [
        "sweep cache gate: warm sweep rebuilt "
        f"{sp['warm_partition_builds']} partition(s)"
    ]


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

    return Gate(
        name, lambda: measure_overhead(kwarg, off_value()), line, check,
        wall=True,
    )


def _hier_line(sp: dict) -> str:
    return (
        f"two-level sync on {sp['cell']} @ {sp['parts']} partitions: "
        f"{sp['flat_inter_host_messages']} flat / "
        f"{sp['hier_inter_host_messages']} hierarchical inter-host messages "
        f"= {sp['ratio']:.2f}x fewer (gate: >= {HIER_AGG_MIN:.1f}x)"
    )


def _serve_line(sp: dict) -> str:
    return (
        f"serve gate over {sp['requests']} requests: naive median "
        f"{sp['naive_median'] * 1e3:.3f} ms / serve median "
        f"{sp['serve_median'] * 1e3:.3f} ms = {sp['median_speedup']:.2f}x "
        f"(gate: >= {SERVE_MIN_SPEEDUP:.1f}x; coalesced {sp['coalesced']}, "
        f"cache hits {sp['cache_hits']}, deltas {sp['delta_runs']}, "
        f"deterministic: {sp['deterministic']})"
    )


def _advisor_line(report) -> str:
    n = len(report.rows)
    return (
        f"advisor gate over {n} (shape, app) suite rows (seed "
        f"{report.seed}): top-1 hits {report.top1_hits}/{n}, top-3 hits "
        f"{report.top3_hits}/{n}, max top-1 regret {report.max_regret1:.3f}x "
        f"(gate: <= {REGRET_GATE:.2f}x)"
    )


def _gnn_study_checked() -> GnnReport:
    """The placement study, run serially and with ``--jobs 2``.

    The two reports must be byte-identical — the gate pins gather
    determinism across the process pool, not just within one process.
    """
    from repro.runtime.sweep import SweepExecutor

    serial = gnn_study()
    with SweepExecutor(jobs=SWEEP_CHECK_JOBS) as ex:
        pooled = gnn_study(executor=ex)
    if serial.to_json() != pooled.to_json():
        raise AssertionError(
            f"gnn study report differs between serial and "
            f"--jobs {SWEEP_CHECK_JOBS} runs"
        )
    return serial


def _gnn_line(report) -> str:
    gate = [
        r for r in report.rows
        if r.shape == "powerlaw" and r.placement in ("plain", "cache")
    ]
    plain = sum(r.h2d_bytes for r in gate if r.placement == "plain")
    cached = sum(r.h2d_bytes for r in gate if r.placement == "cache")
    ratio = plain / max(cached, 1e-12)
    return (
        f"gnn gate over {len(report.rows)} placement cells (seed "
        f"{report.seed}, {report.platform}): powerlaw H2D feature bytes "
        f"{plain:.0f} plain / {cached:.0f} cached = {ratio:.2f}x reduction "
        f"(gate: >= {H2D_REDUCTION_GATE:.1f}x per policy; byte-identical "
        f"across --jobs {SWEEP_CHECK_JOBS})"
    )


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


#: the ooc ``config`` entries that fix the generated graph and the cells
#: run on it — rounds and label CRCs are only meaningful against a
#: baseline built from the same ones.  The RAM cap and size multiple act
#: only through the derived ``scale``; they are recorded with the host
#: numbers they bound.
_OOC_CONFIG_KEYS = (
    "scale", "edge_factor", "num_partitions", "seed", "apps", "tolerance",
    "block_edges",
)


#: what one ooc cell pins; the rest of a cell (elapsed, its worker's
#: RSS increment) depends on the host and is recorded, not compared
_OOC_CELL_KEYS = ("ok", "failure", "rounds", "labels_crc")


def _ooc_config(report) -> dict:
    config = json.loads(report.to_json())["config"]
    return {k: config[k] for k in _OOC_CONFIG_KEYS}


def _ooc_record(report) -> dict:
    doc = json.loads(report.to_json())
    return {
        "ram_cap_mb": report.config.ram_cap_mb,
        "size_multiple": report.config.size_multiple,
        **{
            k: doc[k] for k in (
                "build_seconds", "partition_seconds", "peak_rss_bytes",
                "rss_baseline_bytes", "rss_source", "small_wall",
            )
        },
        "cells": {
            app: {k: v for k, v in cell.items() if k not in _OOC_CELL_KEYS}
            for app, cell in doc["cells"].items()
        },
    }


# --------------------------------------------------------------------------- #
# the table
# --------------------------------------------------------------------------- #
GATES = (
    # the workload matrix — bfs/cc/pr x IEC/CVC x BSP/BASP x AS/UO on a
    # seeded RMAT graph; simulated metrics are machine-independent, and
    # the recorded per-cell wall ceiling is what guards the sync hot path
    Gate(
        "sync", run_matrix, _matrix_table, check=lambda results: [],
        config=lambda results: MATRIX_WORKLOAD,
        deterministic=lambda results: {
            k: c.deterministic_fields() for k, c in results.items()
        },
        record=lambda results: {
            k: c.wall_seconds for k, c in results.items()
        },
    ),
    # a fixed slice of the study through the sweep executor, with
    # --jobs 2 so the process pool itself is exercised, including in CI
    Gate(
        "sweep", lambda: run_sweep(jobs=SWEEP_CHECK_JOBS)[0],
        lambda records: (
            f"sweep records: {len(records)} cells @ --jobs {SWEEP_CHECK_JOBS}"
        ),
        check=lambda records: [],
        config=lambda records: SWEEP_WORKLOAD,
        deterministic=lambda records: records,
    ),
    # a warm partition cache must beat the cold serial first run, with
    # zero re-partitions
    Gate(
        "sweep-speedup", measure_sweep_speedup, _sweep_line, _sweep_check,
        record=lambda sp: sp, wall=True, recorded_in="sweep",
    ),
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
    # two-level (intra-host -> network) sync on the pr/cvc cell at
    # bridges-32 scale; labels, rounds and work bit-identical.  All
    # simulated, so it runs under --check-only
    Gate(
        "hier-aggregation", measure_hier_aggregation, _hier_line,
        _at_least("hierarchical-aggregation", "ratio", HIER_AGG_MIN),
    ),
    # a seeded request trace served twice (byte-identical reports) plus
    # its naive run-everything counterpart; all simulated time
    Gate(
        "serve", measure_serve, _serve_line, evaluate_serve,
        config=lambda sp: {"gate_min_speedup": SERVE_MIN_SPEEDUP},
        deterministic=lambda sp: {k: sp[k] for k in DETERMINISTIC_FIELDS},
        rtol=0.0,
    ),
    # full-validation DSE over the seeded fuzz-shape suite; all
    # simulated time
    Gate(
        "advisor", advisor_study, _advisor_line, evaluate_advisor,
        config=lambda report: {
            "seed": report.seed, "regret_gate": REGRET_GATE,
        },
        deterministic=lambda report: {
            f"{r.shape}/{r.app}": r.to_dict() for r in report.rows
        },
    ),
    # the repro.gnnflow feature-gather study over the fuzz-shape suite x
    # IEC/OEC/HVC/CVC x placement treatments; all simulated time
    Gate(
        "gnn", _gnn_study_checked, _gnn_line, evaluate_gnn,
        config=lambda report: {
            "seed": report.seed,
            "num_gpus": report.num_gpus,
            "platform": report.platform,
            "reduction_gate": H2D_REDUCTION_GATE,
        },
        deterministic=lambda report: {
            f"{r.shape}/{r.policy}/{r.placement}": r.to_dict()
            for r in report.rows
        },
    ),
    # chunk-generate an R-MAT store >= 4x the RAM cap, partition it into
    # spilled shards, fan bfs + pr-push out over spawn workers
    # (REPRO_OOC_RAM_CAP_MB / REPRO_OOC_RSS_TOL / REPRO_OOC_WALL_TOL
    # override; docs/scale.md).  Minutes long, so only on request; the
    # CI smoke run uses a tiny cap on purpose, hence env_config
    Gate(
        "ooc",
        lambda: run_ooc_study(
            OocConfig.from_env(), progress=lambda m: print(f"  {m}")
        ),
        _ooc_line, ooc_evaluate,
        config=_ooc_config,
        deterministic=lambda report: {
            "num_vertices": report.num_vertices,
            "num_edges": report.num_edges,
            "store_bytes": report.store_bytes,
            "cells": {
                app: {k: cell[k] for k in _OOC_CELL_KEYS}
                for app, cell in report.cells.items()
            },
        },
        record=_ooc_record, rtol=0.0, default=False, env_config=True,
    ),
)


# --------------------------------------------------------------------------- #
# the loop
# --------------------------------------------------------------------------- #
def _envelope(gate: Gate, result) -> dict:
    recorded = gate.record(result)
    return {
        "gate": gate.name,
        "config": gate.config(result),
        "deterministic": gate.deterministic(result),
        "wall": {gate.name: recorded} if recorded else {},
    }


def _baseline_path(baseline_dir, name: str) -> pathlib.Path:
    return pathlib.Path(baseline_dir) / f"BENCH_{name}.json"


@pytest.mark.parametrize("name", [g.name for g in GATES])
def test_gate(name, benchmark, capsys):
    """One gate, timed once by pytest-benchmark; its output is kept under
    ``benchmarks/results/``."""
    code = benchmark.pedantic(main, args=(["--only", name],), rounds=1, iterations=1)
    text = capsys.readouterr().out.rstrip()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"regression_{name}.txt").write_text(text + "\n")
    print(text)
    assert code == 0


def main(argv=None, gates=GATES, baseline_dir=BASELINE_DIR) -> int:
    by_name = {g.name: g for g in gates}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--only", action="append", default=[], metavar="NAME",
        help="run just this gate (repeatable; gates run in the order "
             f"given): {', '.join(by_name)}",
    )
    ap.add_argument(
        "--check-only", action="store_true",
        help="skip the wall-clock gates (what CI runs)",
    )
    ap.add_argument(
        "--update", action="store_true",
        help="regenerate the committed baselines of the selected gates "
             "from this machine; a measurement that fails its gate is "
             "not written",
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
    if args.update:
        if args.check_only:
            ap.error("--update re-measures wall-clock records; drop --check-only")
        if args.only:
            for g in selected:
                if g.deterministic is None:
                    ap.error(
                        f"gate {g.name} has no baseline to update"
                        + (f"; it is recorded by --update --only "
                           f"{g.recorded_in}" if g.recorded_in else "")
                    )
        selected = [
            g for owner in selected if owner.deterministic is not None
            for g in gates if owner.name in (g.name, g.recorded_in)
        ]
    elif args.check_only:
        selected = [g for g in selected if not g.wall]
        if not selected:
            ap.error("--check-only skips every selected gate")

    baselines = {}
    if not args.update:
        for g in selected:
            if g.deterministic is None:
                continue
            baselines[g.name] = load_baseline(
                _baseline_path(baseline_dir, g.name), g.name
            )
            if baselines[g.name] is None:
                print(f"no baseline for {g.name}; run --update --only {g.name}")
                return 2

    wall_tolerance = default_wall_tolerance() or None
    violations: list[str] = []
    pending: dict[str, dict] = {}
    for g in selected:
        result = g.measure()
        print(g.line(result))
        found = list(g.check(result))
        if args.update:
            if found:
                pending.pop(g.recorded_in or g.name, None)
            elif g.deterministic is not None:
                pending[g.name] = _envelope(g, result)
            elif g.recorded_in in pending:
                pending[g.recorded_in]["wall"][g.name] = g.record(result)
        elif g.name in baselines:
            config_keys, diffs = diff_baseline(
                _envelope(g, result), baselines[g.name], g.rtol, wall_tolerance
            )
            if config_keys:
                message = (
                    f"{g.name} baseline built with different "
                    f"{'/'.join(config_keys)}; deterministic comparison skipped"
                )
                if g.env_config:
                    print(message)
                else:
                    found.append(message)
            found += [f"{g.name} baseline: {d}" for d in diffs]
        for v in found:
            print(f"REGRESSION: {v}")
        violations += found

    for name, envelope in pending.items():
        path = _baseline_path(baseline_dir, name)
        write_baseline(path, **envelope)
        print(f"{name} baseline written to {path}")
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    if not args.update:
        print("all gates within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
