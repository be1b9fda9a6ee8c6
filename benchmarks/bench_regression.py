"""Performance-regression harness for the vectorized Gluon sync hot path
and the parallel sweep runtime.

Three guards, two committed baselines (``benchmarks/BENCH_sync.json``,
``benchmarks/BENCH_sweep.json``):

* the **workload matrix** — bfs/cc/pr x IEC/CVC x BSP/BASP x AS/UO on a
  seeded RMAT graph.  Simulated metrics (execution time, rounds, messages,
  wire bytes, work items, label CRC) are machine-independent and must match
  the baseline to a tight relative tolerance; wall-clock must stay within a
  loose slack factor (``--wall-tol`` / ``REPRO_BENCH_WALL_TOL``).
* the **vectorization speedup gate** — the pagerank/CVC/BSP/UO cell timed
  against the retained pre-vectorization reference path (per-element
  extraction + per-message pricing) must stay >= 3x, with identical
  deterministic metrics on both legs.
* the **sweep runtime gate** — a fixed slice of the study fanned out
  through the sweep executor.  Its deterministic per-cell records must
  match ``BENCH_sweep.json`` (checked with ``--jobs 2`` so the process
  pool itself is exercised, including in CI), and a warm partition cache
  must make the sweep >= 2x faster than the cold serial first run, with
  zero re-partitions (full mode only).
* the **tracing overhead gate** — the matrix with a *disabled*
  ``repro.obs.Tracer`` attached must stay within 2% of the no-tracer
  wall-clock (``REPRO_TRACE_OVERHEAD_TOL`` overrides), with identical
  deterministic metrics; the observability layer must cost nothing when
  off.
* the **invariant-checking overhead gate** — the matrix with an explicit
  ``check="off"`` must stay within 2% of the check-unset wall-clock
  (``REPRO_CHECK_OVERHEAD_TOL`` overrides), with identical deterministic
  metrics; ``repro.check`` must cost nothing when off.
* the **contention overhead gate** — the matrix with a *disabled*
  ``repro.hw.ContentionConfig`` attached must stay within 2% of the
  no-contention wall-clock (``REPRO_CONTENTION_OVERHEAD_TOL``
  overrides), with identical deterministic metrics; shared-resource
  pricing must cost nothing when off.
* the **hierarchical-aggregation gate** — two-level (intra-host ->
  network) sync on the pr/cvc cell at bridges-32 scale must cut
  cross-host wire messages >= 1.5x while leaving labels, rounds, and
  work bit-identical.  Fully deterministic, so it runs with
  ``--check-only`` in CI.
* the **out-of-core pipeline gate** (``--ooc-only``, baseline
  ``benchmarks/BENCH_ooc.json``) — chunk-generate an R-MAT store at
  least 4x the configured RAM cap, partition it into spilled shards,
  and fan bfs + pr-push out over spawn workers: every worker's peak
  *anonymous* RSS must stay under the cap, warm mmap wall-clock within
  1.25x of the in-RAM path on a small graph, and rounds/label CRCs
  bit-identical to the baseline (``REPRO_OOC_RAM_CAP_MB`` /
  ``REPRO_OOC_RSS_TOL`` / ``REPRO_OOC_WALL_TOL`` override; the
  deterministic comparison is skipped when the env knobs change the
  graph scale — docs/scale.md).
* the **GNN placement gate** (``--gnn-only``, baseline
  ``benchmarks/BENCH_gnn.json``) — the ``repro.gnnflow`` feature-gather
  study over the seeded fuzz-shape suite x IEC/OEC/HVC/CVC x placement
  treatments, run serially and with ``--jobs 2`` (reports must be
  byte-identical): the hot-vertex buffer must cut priced host->device
  feature bytes >= 2x on the powerlaw shape for every policy, never
  increase them anywhere, and every deterministic counter must match
  the baseline (docs/gnnflow.md).

Usage::

    python benchmarks/bench_regression.py               # full check
    python benchmarks/bench_regression.py --check-only  # deterministic only (CI)
    python benchmarks/bench_regression.py --update      # regenerate baselines

The module doubles as a pytest bench (``pytest benchmarks/bench_regression.py
--benchmark-only``) that archives the regenerated table like the paper
benches do.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from benchmarks.conftest import archive
from repro.gnnflow import (
    H2D_REDUCTION_GATE,
    GnnReport,
    evaluate_gnn,
    gnn_study,
)
from repro.metrics.perfbaseline import (
    HIER_AGG_MIN,
    SPEEDUP_MIN_RATIO,
    SWEEP_SPEEDUP_MIN,
    check_overhead_tolerance,
    contention_overhead_tolerance,
    compare_sweep_to_baseline,
    compare_to_baseline,
    default_wall_tolerance,
    load_baseline,
    load_sweep_baseline,
    measure_check_overhead,
    measure_contention_overhead,
    measure_hier_aggregation,
    measure_speedup,
    measure_sweep_speedup,
    measure_trace_overhead,
    run_matrix,
    run_sweep,
    trace_overhead_tolerance,
    write_baseline,
    write_sweep_baseline,
)
from repro.serve.bench import (
    SERVE_MIN_SPEEDUP,
    evaluate_serve,
    load_serve_baseline,
    measure_serve,
    write_serve_baseline,
)
from repro.study.ooc import OocConfig
from repro.study.ooc import evaluate as ooc_evaluate
from repro.study.ooc import run_ooc_study
from repro.study.report import format_table
from repro.tune import advisor_study, evaluate_advisor
from repro.tune.dse import REGRET_GATE, AdvisorReport

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_sync.json"
SWEEP_BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_sweep.json"
OOC_BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_ooc.json"
SERVE_BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_serve.json"
ADVISOR_BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_advisor.json"
GNN_BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_gnn.json"

#: Worker count for the deterministic sweep check — 2 processes is enough
#: to prove pool fan-out changes nothing, and stays CI-friendly.
SWEEP_CHECK_JOBS = 2


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


def _speedup_line(sp: dict) -> str:
    return (
        f"vectorization speedup on {sp['cell']}: "
        f"{sp['scalar_wall_seconds'] * 1e3:.1f} ms scalar / "
        f"{sp['vectorized_wall_seconds'] * 1e3:.1f} ms vectorized = "
        f"{sp['speedup']:.2f}x (gate: >= {SPEEDUP_MIN_RATIO:.1f}x)"
    )


def _trace_line(sp: dict) -> str:
    return (
        f"tracing overhead over {sp['cells']} matrix cells: "
        f"{sp['no_tracer_wall_seconds'] * 1e3:.1f} ms no tracer / "
        f"{sp['disabled_tracer_wall_seconds'] * 1e3:.1f} ms disabled tracer "
        f"= {sp['overhead_ratio']:.4f}x "
        f"(gate: <= {trace_overhead_tolerance():.2f}x)"
    )


def _check_line(sp: dict) -> str:
    return (
        f"invariant-check overhead over {sp['cells']} matrix cells: "
        f"{sp['no_check_wall_seconds'] * 1e3:.1f} ms check unset / "
        f"{sp['check_off_wall_seconds'] * 1e3:.1f} ms check=off "
        f"= {sp['overhead_ratio']:.4f}x "
        f"(gate: <= {check_overhead_tolerance():.2f}x)"
    )


def _contention_line(sp: dict) -> str:
    return (
        f"contention overhead over {sp['cells']} matrix cells: "
        f"{sp['no_contention_wall_seconds'] * 1e3:.1f} ms no config / "
        f"{sp['contention_off_wall_seconds'] * 1e3:.1f} ms disabled config "
        f"= {sp['overhead_ratio']:.4f}x "
        f"(gate: <= {contention_overhead_tolerance():.2f}x)"
    )


def _hier_line(sp: dict) -> str:
    return (
        f"two-level sync on {sp['cell']} @ {sp['parts']} partitions: "
        f"{sp['flat_inter_host_messages']} flat / "
        f"{sp['hier_inter_host_messages']} hierarchical inter-host messages "
        f"= {sp['ratio']:.2f}x fewer (gate: >= {HIER_AGG_MIN:.1f}x)"
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


def _ooc_baseline(report):
    """``(baseline, note)``: the committed baseline if comparable.

    The env knobs (cap, size multiple) change the derived graph scale;
    rounds and label CRCs are only meaningful against a baseline built
    from the same deterministic inputs, so a mismatch skips the
    comparison (with a note) instead of reporting false regressions —
    the CI smoke run uses a tiny cap on purpose.
    """
    if not OOC_BASELINE_PATH.exists():
        return None, (
            f"no ooc baseline at {OOC_BASELINE_PATH}; "
            "run --ooc-only --update first"
        )
    baseline = json.loads(OOC_BASELINE_PATH.read_text())
    ours = report.to_json()["config"]
    theirs = baseline.get("config", {})
    diff = [
        k for k in ("scale", "edge_factor", "num_partitions", "seed",
                    "apps", "tolerance", "block_edges")
        if ours.get(k) != theirs.get(k)
    ]
    if diff:
        return None, (
            "ooc baseline built with different "
            f"{'/'.join(diff)}; deterministic comparison skipped"
        )
    return baseline, None


def _serve_line(sp: dict) -> str:
    return (
        f"serve gate over {sp['requests']} requests: naive median "
        f"{sp['naive_median'] * 1e3:.3f} ms / serve median "
        f"{sp['serve_median'] * 1e3:.3f} ms = {sp['median_speedup']:.2f}x "
        f"(gate: >= {SERVE_MIN_SPEEDUP:.1f}x; coalesced {sp['coalesced']}, "
        f"cache hits {sp['cache_hits']}, deltas {sp['delta_runs']}, "
        f"deterministic: {sp['deterministic']})"
    )


def _serve_violations(sp: dict) -> list[str]:
    baseline = None
    if SERVE_BASELINE_PATH.exists():
        baseline = load_serve_baseline(SERVE_BASELINE_PATH)
    return evaluate_serve(sp, baseline=baseline)


def _sweep_line(sp: dict) -> str:
    return (
        f"sweep runtime on {sp['dataset']} ({sp['cells']} cells): "
        f"{sp['cold_wall_seconds']:.2f}s cold serial / "
        f"{sp['warm_wall_seconds']:.2f}s warm cache @ --jobs {sp['jobs']} = "
        f"{sp['speedup']:.2f}x (gate: >= {SWEEP_SPEEDUP_MIN:.1f}x; "
        f"warm re-partitions: {sp['warm_partition_builds']})"
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


def _gnn_violations(report) -> list[str]:
    baseline = None
    if GNN_BASELINE_PATH.exists():
        baseline = GnnReport.from_json(GNN_BASELINE_PATH.read_text())
    return evaluate_gnn(report, baseline=baseline)


def _advisor_violations(report) -> list[str]:
    baseline = None
    if ADVISOR_BASELINE_PATH.exists():
        baseline = AdvisorReport.from_json(ADVISOR_BASELINE_PATH.read_text())
    return evaluate_advisor(report, baseline=baseline)


# --------------------------------------------------------------------------- #
# pytest bench entry points
# --------------------------------------------------------------------------- #
def test_regression_matrix(once):
    results = once(run_matrix)
    archive("regression_matrix", _matrix_table(results))
    baseline = load_baseline(BASELINE_PATH)
    violations = compare_to_baseline(
        results, baseline, wall_tolerance=default_wall_tolerance()
    )
    assert not violations, "\n".join(violations)


def test_vectorization_speedup(once):
    sp = once(measure_speedup)
    archive("regression_speedup", _speedup_line(sp))
    assert sp["speedup"] >= SPEEDUP_MIN_RATIO, _speedup_line(sp)


def test_sweep_matrix(once):
    records, _, _ = once(lambda: run_sweep(jobs=SWEEP_CHECK_JOBS))
    baseline = load_sweep_baseline(SWEEP_BASELINE_PATH)
    violations = compare_sweep_to_baseline(records, baseline)
    assert not violations, "\n".join(violations)


def test_sweep_speedup(once):
    sp = once(measure_sweep_speedup)
    archive("regression_sweep", _sweep_line(sp))
    assert sp["warm_partition_builds"] == 0, _sweep_line(sp)
    assert sp["speedup"] >= SWEEP_SPEEDUP_MIN, _sweep_line(sp)


def test_trace_overhead(once):
    sp = once(measure_trace_overhead)
    archive("regression_trace_overhead", _trace_line(sp))
    assert sp["overhead_ratio"] <= trace_overhead_tolerance(), _trace_line(sp)


def test_check_overhead(once):
    sp = once(measure_check_overhead)
    archive("regression_check_overhead", _check_line(sp))
    assert sp["overhead_ratio"] <= check_overhead_tolerance(), _check_line(sp)


def test_contention_overhead(once):
    sp = once(measure_contention_overhead)
    archive("regression_contention_overhead", _contention_line(sp))
    assert sp["overhead_ratio"] <= contention_overhead_tolerance(), (
        _contention_line(sp)
    )


def test_hier_aggregation(once):
    sp = once(measure_hier_aggregation)
    archive("regression_hier_aggregation", _hier_line(sp))
    assert sp["ratio"] >= HIER_AGG_MIN, _hier_line(sp)


def test_serve_gate(once):
    sp = once(measure_serve)
    archive("regression_serve", _serve_line(sp))
    violations = _serve_violations(sp)
    assert not violations, "\n".join(violations)


def test_advisor_gate(once):
    report = once(advisor_study)
    archive("regression_advisor", _advisor_line(report))
    violations = _advisor_violations(report)
    assert not violations, "\n".join(violations)


def test_gnn_gate(once):
    report = once(_gnn_study_checked)
    archive("regression_gnn", _gnn_line(report))
    violations = _gnn_violations(report)
    assert not violations, "\n".join(violations)


def test_ooc_pipeline(once):
    report = once(lambda: run_ooc_study(OocConfig.from_env()))
    archive("regression_ooc", _ooc_line(report))
    baseline, note = _ooc_baseline(report)
    if note:
        print(note)
    violations = ooc_evaluate(report, baseline=baseline)
    assert not violations, "\n".join(violations)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--update", action="store_true",
        help="regenerate the committed baseline from this machine",
    )
    ap.add_argument(
        "--check-only", action="store_true",
        help="deterministic baseline checks only (sync matrix + sweep "
             "records); skip the wall-clock speedup gates (what CI runs)",
    )
    ap.add_argument(
        "--wall-tol", type=float, default=None,
        help="wall-clock slack factor per cell (default: "
             "REPRO_BENCH_WALL_TOL or 4.0); 0 disables wall-clock checks",
    )
    ap.add_argument(
        "--trace-overhead-only", action="store_true",
        help="run just the tracing-overhead gate (what the CI obs job runs)",
    )
    ap.add_argument(
        "--check-overhead-only", action="store_true",
        help="run just the invariant-checking overhead gate (what the CI "
             "correctness job runs)",
    )
    ap.add_argument(
        "--contention-overhead-only", action="store_true",
        help="run just the contention overhead gate (what the CI comm "
             "job runs)",
    )
    ap.add_argument(
        "--hier-aggregation-only", action="store_true",
        help="run just the hierarchical-aggregation gate (deterministic; "
             "what the CI comm job runs)",
    )
    ap.add_argument(
        "--serve-only", action="store_true",
        help="run just the serve gate: byte-identical reports across two "
             "runs of the seeded trace, naive/serve median latency >= "
             "2x, deterministic metrics vs BENCH_serve.json (combine "
             "with --update to regenerate the baseline)",
    )
    ap.add_argument(
        "--advisor-only", action="store_true",
        help="run just the advisor-accuracy gate: full-validation DSE "
             "over the seeded fuzz-shape suite, top-1 regret <= "
             f"{REGRET_GATE}x measured-best, deterministic vs "
             "BENCH_advisor.json (combine with --update to regenerate "
             "the baseline; entirely simulated time, so --check-only "
             "changes nothing)",
    )
    ap.add_argument(
        "--gnn-only", action="store_true",
        help="run just the GNN placement gate: the repro.gnnflow study "
             "serially and with --jobs 2 (byte-identical reports), "
             f"caching >= {H2D_REDUCTION_GATE:g}x H2D feature-byte "
             "reduction on the powerlaw suite shape, deterministic vs "
             "BENCH_gnn.json (combine with --update to regenerate the "
             "baseline; entirely simulated time, so --check-only "
             "changes nothing)",
    )
    ap.add_argument(
        "--ooc-only", action="store_true",
        help="run just the out-of-core pipeline gate: store >= 4x the "
             "RAM cap, worker peak RSS under the cap, warm mmap wall "
             "within tolerance, deterministic metrics vs BENCH_ooc.json "
             "(combine with --update to regenerate the baseline)",
    )
    args = ap.parse_args(argv)

    if args.advisor_only:
        report = advisor_study()
        print(_advisor_line(report))
        if args.update:
            ADVISOR_BASELINE_PATH.write_text(report.to_json() + "\n")
            print(f"advisor baseline written to {ADVISOR_BASELINE_PATH}")
            return 0
        violations = _advisor_violations(report)
        for v in violations:
            print(f"REGRESSION: {v}")
        if violations:
            return 1
        print("advisor accuracy within the gate")
        return 0

    if args.gnn_only:
        report = _gnn_study_checked()
        print(_gnn_line(report))
        if args.update:
            GNN_BASELINE_PATH.write_text(report.to_json() + "\n")
            print(f"gnn baseline written to {GNN_BASELINE_PATH}")
            return 0
        violations = _gnn_violations(report)
        for v in violations:
            print(f"REGRESSION: {v}")
        if violations:
            return 1
        print("gnn placement gate within tolerance")
        return 0

    if args.serve_only:
        sp = measure_serve()
        print(_serve_line(sp))
        if args.update:
            write_serve_baseline(SERVE_BASELINE_PATH, sp)
            print(f"serve baseline written to {SERVE_BASELINE_PATH}")
            return 0
        violations = _serve_violations(sp)
        for v in violations:
            print(f"REGRESSION: {v}")
        if violations:
            return 1
        print("serve gate within tolerance")
        return 0

    if args.ooc_only:
        report = run_ooc_study(
            OocConfig.from_env(), progress=lambda m: print(f"  {m}")
        )
        print(_ooc_line(report))
        if args.update:
            OOC_BASELINE_PATH.write_text(
                json.dumps(report.to_json(), indent=1, sort_keys=True) + "\n"
            )
            print(f"ooc baseline written to {OOC_BASELINE_PATH}")
            return 0
        baseline, note = _ooc_baseline(report)
        if note:
            print(note)
        violations = ooc_evaluate(report, baseline=baseline)
        for v in violations:
            print(f"REGRESSION: {v}")
        if violations:
            return 1
        print("ooc pipeline within tolerance")
        return 0

    if args.trace_overhead_only:
        sp = measure_trace_overhead()
        print(_trace_line(sp))
        if sp["overhead_ratio"] > trace_overhead_tolerance():
            print("REGRESSION: tracing overhead gate failed")
            return 1
        print("tracing overhead within tolerance")
        return 0

    if args.check_overhead_only:
        sp = measure_check_overhead()
        print(_check_line(sp))
        if sp["overhead_ratio"] > check_overhead_tolerance():
            print("REGRESSION: invariant-checking overhead gate failed")
            return 1
        print("invariant-checking overhead within tolerance")
        return 0

    if args.contention_overhead_only:
        sp = measure_contention_overhead()
        print(_contention_line(sp))
        if sp["overhead_ratio"] > contention_overhead_tolerance():
            print("REGRESSION: contention overhead gate failed")
            return 1
        print("contention overhead within tolerance")
        return 0

    if args.hier_aggregation_only:
        sp = measure_hier_aggregation()
        print(_hier_line(sp))
        if sp["ratio"] < HIER_AGG_MIN:
            print("REGRESSION: hierarchical-aggregation gate failed")
            return 1
        print("hierarchical aggregation meets the gate")
        return 0

    results = run_matrix()
    print(_matrix_table(results))
    print()

    if args.update:
        speedup = measure_speedup()
        print(_speedup_line(speedup))
        write_baseline(BASELINE_PATH, results, speedup=speedup)
        print(f"baseline written to {BASELINE_PATH}")
        sweep_records, _, _ = run_sweep(jobs=SWEEP_CHECK_JOBS)
        sweep_sp = measure_sweep_speedup()
        print(_sweep_line(sweep_sp))
        write_sweep_baseline(
            SWEEP_BASELINE_PATH, sweep_records, speedup=sweep_sp
        )
        print(f"sweep baseline written to {SWEEP_BASELINE_PATH}")
        advisor_report = advisor_study()
        print(_advisor_line(advisor_report))
        ADVISOR_BASELINE_PATH.write_text(advisor_report.to_json() + "\n")
        print(f"advisor baseline written to {ADVISOR_BASELINE_PATH}")
        gnn_report = _gnn_study_checked()
        print(_gnn_line(gnn_report))
        GNN_BASELINE_PATH.write_text(gnn_report.to_json() + "\n")
        print(f"gnn baseline written to {GNN_BASELINE_PATH}")
        serve_sp = measure_serve()
        print(_serve_line(serve_sp))
        write_serve_baseline(SERVE_BASELINE_PATH, serve_sp)
        print(f"serve baseline written to {SERVE_BASELINE_PATH}")
        return 0

    wall_tol = args.wall_tol
    if wall_tol is None:
        wall_tol = default_wall_tolerance()
    elif wall_tol == 0:
        wall_tol = None

    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --update first")
        return 2
    baseline = load_baseline(BASELINE_PATH)
    violations = compare_to_baseline(results, baseline, wall_tolerance=wall_tol)
    for v in violations:
        print(f"REGRESSION: {v}")

    if SWEEP_BASELINE_PATH.exists():
        sweep_records, _, _ = run_sweep(jobs=SWEEP_CHECK_JOBS)
        sweep_violations = compare_sweep_to_baseline(
            sweep_records, load_sweep_baseline(SWEEP_BASELINE_PATH)
        )
        for v in sweep_violations:
            print(f"REGRESSION: {v}")
        violations += sweep_violations
    else:
        print(f"no sweep baseline at {SWEEP_BASELINE_PATH}; "
              "run with --update first")
        return 2

    # deterministic, so it runs in --check-only mode too
    hier_sp = measure_hier_aggregation()
    print(_hier_line(hier_sp))
    if hier_sp["ratio"] < HIER_AGG_MIN:
        violations.append(
            f"hierarchical-aggregation gate: {hier_sp['ratio']:.2f}x < "
            f"{HIER_AGG_MIN:.1f}x"
        )
        print(f"REGRESSION: {violations[-1]}")

    # advisor gate: simulated time end-to-end, deterministic (runs
    # before the serve gate, whose measurement leaves a torn-down spool
    # directory configured as the process-wide partition-cache path)
    advisor_report = advisor_study()
    print(_advisor_line(advisor_report))
    for v in _advisor_violations(advisor_report):
        violations.append(v)
        print(f"REGRESSION: {v}")

    # gnn placement gate: simulated time end-to-end, deterministic
    gnn_report = _gnn_study_checked()
    print(_gnn_line(gnn_report))
    for v in _gnn_violations(gnn_report):
        violations.append(v)
        print(f"REGRESSION: {v}")

    # all simulated time: the serve gate is deterministic too
    serve_sp = measure_serve()
    print(_serve_line(serve_sp))
    for v in _serve_violations(serve_sp):
        violations.append(v)
        print(f"REGRESSION: {v}")

    if not args.check_only:
        speedup = measure_speedup()
        print(_speedup_line(speedup))
        if speedup["speedup"] < SPEEDUP_MIN_RATIO:
            violations.append(
                f"speedup gate: {speedup['speedup']:.2f}x < "
                f"{SPEEDUP_MIN_RATIO:.1f}x"
            )
            print(f"REGRESSION: {violations[-1]}")
        sweep_sp = measure_sweep_speedup()
        print(_sweep_line(sweep_sp))
        if sweep_sp["warm_partition_builds"] != 0:
            violations.append(
                "sweep cache gate: warm sweep rebuilt "
                f"{sweep_sp['warm_partition_builds']} partition(s)"
            )
            print(f"REGRESSION: {violations[-1]}")
        if sweep_sp["speedup"] < SWEEP_SPEEDUP_MIN:
            violations.append(
                f"sweep runtime gate: {sweep_sp['speedup']:.2f}x < "
                f"{SWEEP_SPEEDUP_MIN:.1f}x"
            )
            print(f"REGRESSION: {violations[-1]}")
        trace_sp = measure_trace_overhead()
        print(_trace_line(trace_sp))
        if trace_sp["overhead_ratio"] > trace_overhead_tolerance():
            violations.append(
                f"tracing overhead gate: {trace_sp['overhead_ratio']:.4f}x > "
                f"{trace_overhead_tolerance():.2f}x"
            )
            print(f"REGRESSION: {violations[-1]}")
        check_sp = measure_check_overhead()
        print(_check_line(check_sp))
        if check_sp["overhead_ratio"] > check_overhead_tolerance():
            violations.append(
                "invariant-checking overhead gate: "
                f"{check_sp['overhead_ratio']:.4f}x > "
                f"{check_overhead_tolerance():.2f}x"
            )
            print(f"REGRESSION: {violations[-1]}")
        contention_sp = measure_contention_overhead()
        print(_contention_line(contention_sp))
        if contention_sp["overhead_ratio"] > contention_overhead_tolerance():
            violations.append(
                "contention overhead gate: "
                f"{contention_sp['overhead_ratio']:.4f}x > "
                f"{contention_overhead_tolerance():.2f}x"
            )
            print(f"REGRESSION: {violations[-1]}")

    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    print("all cells within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
