"""Persistent performance-regression baselines for the sync hot path.

The repo's credibility rests on two properties the paper study also needed
(cf. Gunrock's multi-GPU harness and Ammar & Özsu's cross-system study):
the hot paths must be fast, and the measurement must be reproducible and
regression-tracked.  This module provides both halves:

* :func:`run_matrix` runs a **fixed workload matrix** — bfs/cc/pagerank ×
  IEC/CVC × BSP/BASP × AS/UO on a seeded RMAT graph — and records, per
  cell, the wall-clock of the run (host performance, machine-dependent)
  and the *simulated* metrics (execution time, rounds, messages, wire
  bytes, work items, a CRC of the output labels — all deterministic).
* :func:`write_baseline` / :func:`load_baseline` persist the matrix as
  JSON (``benchmarks/BENCH_sync.json`` is the committed baseline).
* :func:`compare_to_baseline` diffs a fresh run against the baseline:
  simulated metrics must match (tight relative tolerance — they are
  machine-independent, so any drift is a semantic change to the engines
  or the comm substrate), wall-clock must stay within a configurable
  slack factor (loose by default — CI machines vary).
* :func:`measure_speedup` times the vectorized extraction path against
  the retained scalar reference (``GluonComm._extract_scalar``) on the
  pagerank/CVC/BSP/UO cell — a machine-independent ratio that guards the
  vectorization itself.

``benchmarks/bench_regression.py`` is the driver (pytest bench + CLI).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from repro.apps import get_app
from repro.comm import CommConfig
from repro.engine import BASPEngine, BSPEngine
from repro.engine.operator import RunContext
from repro.errors import ConfigurationError
from repro.generators import rmat
from repro.graph.transform import add_random_weights, make_undirected
from repro.hw import ContentionConfig, bridges
from repro.partition import partition

__all__ = [
    "CellResult",
    "MATRIX_APPS",
    "MATRIX_POLICIES",
    "MATRIX_ENGINES",
    "MATRIX_COMMS",
    "SPEEDUP_CELL",
    "SPEEDUP_MIN_RATIO",
    "SWEEP_SPEEDUP_MIN",
    "TRACE_OVERHEAD_MAX",
    "cell_key",
    "matrix_keys",
    "run_cell",
    "run_matrix",
    "measure_speedup",
    "measure_trace_overhead",
    "trace_overhead_tolerance",
    "measure_check_overhead",
    "check_overhead_tolerance",
    "CONTENTION_OVERHEAD_MAX",
    "measure_contention_overhead",
    "contention_overhead_tolerance",
    "HIER_AGG_MIN",
    "HIER_CELL",
    "HIER_PARTS",
    "measure_hier_aggregation",
    "sweep_specs",
    "run_sweep",
    "measure_sweep_speedup",
    "write_baseline",
    "load_baseline",
    "compare_to_baseline",
    "write_sweep_baseline",
    "load_sweep_baseline",
    "compare_sweep_to_baseline",
    "default_wall_tolerance",
]

SCHEMA_VERSION = 1

#: The fixed workload matrix: every combination is one baseline cell.
MATRIX_APPS = ("bfs", "cc", "pr")
MATRIX_POLICIES = ("iec", "cvc")
MATRIX_ENGINES = ("bsp", "basp")
MATRIX_COMMS = ("as", "uo")

#: The cell the vectorization speedup gate runs on (ISSUE acceptance:
#: >= 3x wall-clock over the scalar reference path).
SPEEDUP_CELL = ("pr", "cvc", "bsp", "uo")

#: Workload dimensions.  The matrix graph keeps the full 24-cell sweep in
#: CI territory; the speedup measurement uses a larger graph so the
#: scalar-vs-vectorized ratio is dominated by extraction, not fixed
#: engine overheads.
MATRIX_GRAPH = {"scale": 10, "edge_factor": 8, "seed": 3}
SPEEDUP_GRAPH = {"scale": 14, "edge_factor": 8, "seed": 3}
NUM_PARTITIONS = 4

#: Timing repetitions per leg in :func:`measure_speedup` (best-of).
SPEEDUP_REPS = 5

#: Minimum scalar/vectorized wall-clock ratio the speedup gate enforces.
SPEEDUP_MIN_RATIO = 3.0

#: Maximum disabled-tracer / no-tracer wall-clock ratio the tracing
#: overhead gate enforces (< 2% overhead with tracing off); override
#: with the ``REPRO_TRACE_OVERHEAD_TOL`` environment variable.
TRACE_OVERHEAD_MAX = 1.02

#: Timing repetitions per leg in :func:`measure_trace_overhead`
#: (per-cell best-of, both legs run back to back per cell).
TRACE_OVERHEAD_REPS = 5

#: Maximum ``--check off`` / no-check wall-clock ratio the invariant-
#: checking overhead gate enforces (< 2% overhead with checking off);
#: override with the ``REPRO_CHECK_OVERHEAD_TOL`` environment variable.
CHECK_OVERHEAD_MAX = 1.02

#: Timing repetitions per leg in :func:`measure_check_overhead`.
CHECK_OVERHEAD_REPS = 5

#: Maximum ``ContentionConfig(enabled=False)`` / no-contention wall-clock
#: ratio the contention overhead gate enforces (< 2% overhead with
#: contention pricing off); override with the
#: ``REPRO_CONTENTION_OVERHEAD_TOL`` environment variable.
CONTENTION_OVERHEAD_MAX = 1.02

#: Timing repetitions per leg in :func:`measure_contention_overhead`.
CONTENTION_OVERHEAD_REPS = 5

#: Minimum flat / hierarchical inter-host message ratio the two-level
#: sync gate enforces (ISSUE acceptance: >= 1.5x fewer inter-host
#: messages on the pr/cvc cell at bridges-32 scale).
HIER_AGG_MIN = 1.5

#: The cell and scale the hierarchical-aggregation gate runs on.
HIER_CELL = ("pr", "cvc", "bsp", "uo")
HIER_PARTS = 32

#: Relative tolerance for simulated (machine-independent) float metrics.
SIM_RTOL = 1e-6

#: Default slack factor for wall-clock cells; override with the
#: ``REPRO_BENCH_WALL_TOL`` environment variable (e.g. in CI).
DEFAULT_WALL_TOL = 4.0


@dataclass
class CellResult:
    """One workload cell's measurements."""

    key: str
    wall_seconds: float  # host wall-clock of engine.run (machine-dependent)
    sim_seconds: float  # simulated execution time (deterministic)
    rounds: int
    messages: int
    comm_bytes: float
    work_items: float
    labels_crc: int  # CRC32 of the output label bytes
    #: cross-host wire messages (aggregates count as one under two-level
    #: sync); informational — not part of the baseline comparison, so
    #: baselines written before the field existed still load.
    inter_host_messages: int = 0

    def deterministic_fields(self) -> dict:
        return {
            "sim_seconds": self.sim_seconds,
            "rounds": self.rounds,
            "messages": self.messages,
            "comm_bytes": self.comm_bytes,
            "work_items": self.work_items,
            "labels_crc": self.labels_crc,
        }


def cell_key(app: str, policy: str, engine: str, comm: str) -> str:
    return f"{app}/{policy}/{engine}/{comm}"


def matrix_keys() -> list[str]:
    return [
        cell_key(a, p, e, c)
        for a in MATRIX_APPS
        for p in MATRIX_POLICIES
        for e in MATRIX_ENGINES
        for c in MATRIX_COMMS
    ]


def default_wall_tolerance() -> float:
    return float(os.environ.get("REPRO_BENCH_WALL_TOL", DEFAULT_WALL_TOL))


# --------------------------------------------------------------------------- #
# workload construction
# --------------------------------------------------------------------------- #
class _Workload:
    """Prebuilt graphs, contexts, and partitions, shared across cells.

    Partitioning is excluded from cell wall-clock on purpose: the matrix
    measures the engine + sync hot path, and sharing partitions lets the
    Gluon plan memoization amortize exactly as it does across real runs.
    """

    def __init__(self, graph_params: dict, parts: int = NUM_PARTITIONS):
        g = add_random_weights(rmat(**graph_params), seed=0)
        sym = add_random_weights(make_undirected(g), seed=1)
        self.parts = parts
        self.cluster = bridges(parts)
        self.graphs = {"directed": g, "symmetric": sym}
        self.contexts = {
            "directed": RunContext(
                num_global_vertices=g.num_vertices,
                source=int(np.argmax(g.out_degrees())),
                k=8,
                global_out_degrees=g.out_degrees(),
                global_degrees=sym.out_degrees(),
            ),
            "symmetric": RunContext(
                num_global_vertices=sym.num_vertices,
                source=int(np.argmax(sym.out_degrees())),
                k=8,
                global_out_degrees=sym.out_degrees(),
                global_degrees=sym.out_degrees(),
            ),
        }
        self._pgs: dict = {}

    def inputs_for(self, app_name: str, policy: str):
        app = get_app(app_name)
        kind = "symmetric" if app.needs_symmetric else "directed"
        if (kind, policy) not in self._pgs:
            self._pgs[(kind, policy)] = partition(
                self.graphs[kind], policy, self.parts, cache=False
            )
        return app, self._pgs[(kind, policy)], self.contexts[kind]


_ENGINES = {"bsp": BSPEngine, "basp": BASPEngine}
_COMM_CONFIGS = {
    "uo": CommConfig(update_only=True),
    "as": CommConfig(update_only=False),
}


def run_cell(
    workload: _Workload,
    app_name: str,
    policy: str,
    engine: str,
    comm: str,
    use_scalar_extraction: bool = False,
    tracer=None,
    check=None,
    contention=None,
    hierarchical: bool = False,
) -> CellResult:
    """Run one cell and collect its measurements.

    ``contention`` (a :class:`~repro.hw.contention.ContentionConfig`)
    attaches shared-resource pricing to the workload's cluster for this
    cell only; ``hierarchical`` opts the cell into two-level sync.
    """
    if engine not in _ENGINES:
        raise ConfigurationError(f"unknown engine {engine!r}")
    if comm not in _COMM_CONFIGS:
        raise ConfigurationError(f"unknown comm variant {comm!r}")
    app, pg, ctx = workload.inputs_for(app_name, policy)
    cluster = workload.cluster
    if contention is not None:
        cluster = replace(cluster, contention=contention)
    comm_config = _COMM_CONFIGS[comm]
    if hierarchical:
        comm_config = replace(comm_config, hierarchical=True)
    eng = _ENGINES[engine](
        pg,
        cluster,
        app,
        comm_config=comm_config,
        check_memory=False,
        tracer=tracer,
        check=check,
    )
    eng.comm.use_scalar_extraction = use_scalar_extraction
    start = time.perf_counter()
    res = eng.run(ctx)
    wall = time.perf_counter() - start
    s = res.stats
    return CellResult(
        key=cell_key(app_name, policy, engine, comm),
        wall_seconds=wall,
        sim_seconds=float(s.execution_time),
        rounds=int(s.rounds),
        messages=int(s.num_messages),
        comm_bytes=float(s.comm_volume_bytes),
        work_items=float(s.work_items),
        labels_crc=int(zlib.crc32(np.ascontiguousarray(res.labels).tobytes())),
        inter_host_messages=int(s.inter_host_messages),
    )


def run_matrix(use_scalar_extraction: bool = False) -> dict[str, CellResult]:
    """Run the full fixed workload matrix."""
    workload = _Workload(MATRIX_GRAPH)
    results: dict[str, CellResult] = {}
    for a in MATRIX_APPS:
        for p in MATRIX_POLICIES:
            for e in MATRIX_ENGINES:
                for c in MATRIX_COMMS:
                    cell = run_cell(
                        workload, a, p, e, c,
                        use_scalar_extraction=use_scalar_extraction,
                    )
                    results[cell.key] = cell
    return results


def measure_speedup(reps: int = SPEEDUP_REPS) -> dict:
    """Scalar-vs-vectorized wall-clock on the speedup cell (best-of-N).

    Both legs run the identical workload in the same process — the
    vectorized path versus the retained pre-PR reference (per-element
    extraction + per-message pricing) — so the ratio is robust to machine
    speed; it is the regression gate for the vectorization itself.  Legs
    alternate and each takes its best of ``reps`` runs, which filters the
    one-sided timing noise of a shared CI host.  The deterministic
    metrics of every run must agree exactly; a mismatch means the
    vectorized path changed semantics.
    """
    workload = _Workload(SPEEDUP_GRAPH)
    app, policy, engine, comm = SPEEDUP_CELL
    # warm-up: builds partitions and the memoized sync plans, and pays
    # one-time allocator/JIT-ish costs, outside the timed reps
    reference = run_cell(workload, app, policy, engine, comm)
    vec_wall, scalar_wall = [], []
    for _ in range(max(1, int(reps))):
        for use_scalar, bucket in ((False, vec_wall), (True, scalar_wall)):
            cell = run_cell(
                workload, app, policy, engine, comm,
                use_scalar_extraction=use_scalar,
            )
            if cell.deterministic_fields() != reference.deterministic_fields():
                raise ConfigurationError(
                    "scalar and vectorized extraction diverged on "
                    f"{cell.key}: {cell.deterministic_fields()} vs "
                    f"{reference.deterministic_fields()}"
                )
            bucket.append(cell.wall_seconds)
    return {
        "cell": cell_key(app, policy, engine, comm),
        "scalar_wall_seconds": min(scalar_wall),
        "vectorized_wall_seconds": min(vec_wall),
        "speedup": min(scalar_wall) / max(min(vec_wall), 1e-12),
    }


def trace_overhead_tolerance() -> float:
    return float(os.environ.get("REPRO_TRACE_OVERHEAD_TOL", TRACE_OVERHEAD_MAX))


def measure_trace_overhead(reps: int = TRACE_OVERHEAD_REPS) -> dict:
    """Wall-clock of the matrix with no tracer vs a *disabled* tracer.

    This is the zero-overhead-when-disabled gate for :mod:`repro.obs`:
    every engine normalizes a disabled tracer to ``None``, so attaching
    one must cost nothing beyond the normalization itself.  The two legs
    of each matrix cell run **back to back** (so both see the same
    machine state — container clocks are bursty enough that whole-leg
    totals of identical code can swing ±10%), and each leg's total is
    the sum of per-cell best-of-``reps`` wall-clocks, which converge on
    each cell's true floor.  Deterministic metrics of both legs must
    agree exactly: a disabled tracer may not change results any more
    than it may change speed.
    """
    from repro.obs import Tracer

    workload = _Workload(MATRIX_GRAPH)
    keys = [
        (a, p, e, c)
        for a in MATRIX_APPS
        for p in MATRIX_POLICIES
        for e in MATRIX_ENGINES
        for c in MATRIX_COMMS
    ]

    # warm-up: partitions, memoized sync plans, allocator steady state
    reference = {}
    for a, p, e, c in keys:
        cell = run_cell(workload, a, p, e, c)
        reference[cell.key] = cell.deterministic_fields()
    off_best: dict[str, float] = {}
    disabled_best: dict[str, float] = {}
    for _ in range(max(1, int(reps))):
        for a, p, e, c in keys:
            for tracer, best in (
                (None, off_best),
                (Tracer(enabled=False), disabled_best),
            ):
                cell = run_cell(workload, a, p, e, c, tracer=tracer)
                if cell.deterministic_fields() != reference[cell.key]:
                    raise ConfigurationError(
                        "disabled tracer changed deterministic results on "
                        f"{cell.key}: {cell.deterministic_fields()} vs "
                        f"{reference[cell.key]}"
                    )
                best[cell.key] = min(
                    cell.wall_seconds, best.get(cell.key, cell.wall_seconds)
                )
    off, disabled = sum(off_best.values()), sum(disabled_best.values())
    return {
        "cells": len(keys),
        "no_tracer_wall_seconds": off,
        "disabled_tracer_wall_seconds": disabled,
        "overhead_ratio": disabled / max(off, 1e-12),
    }


def check_overhead_tolerance() -> float:
    return float(os.environ.get("REPRO_CHECK_OVERHEAD_TOL", CHECK_OVERHEAD_MAX))


def measure_check_overhead(reps: int = CHECK_OVERHEAD_REPS) -> dict:
    """Wall-clock of the matrix with checking unset vs ``--check off``.

    This is the zero-overhead-when-off gate for :mod:`repro.check`: an
    engine constructed with an explicit ``check="off"`` must cost no
    more than one that never heard of the checking subsystem (``check``
    left at its default, ambient level ``OFF``).  Both legs compile the
    same two pre-computed booleans into the round loop, so the only
    thing this can catch is exactly what it must: work creeping outside
    the ``if check_cheap:`` guards.  Methodology is identical to
    :func:`measure_trace_overhead` — per-cell back-to-back legs,
    best-of-``reps``, deterministic metrics forced to agree.
    """
    workload = _Workload(MATRIX_GRAPH)
    keys = [
        (a, p, e, c)
        for a in MATRIX_APPS
        for p in MATRIX_POLICIES
        for e in MATRIX_ENGINES
        for c in MATRIX_COMMS
    ]

    # warm-up: partitions, memoized sync plans, allocator steady state
    reference = {}
    for a, p, e, c in keys:
        cell = run_cell(workload, a, p, e, c)
        reference[cell.key] = cell.deterministic_fields()
    unset_best: dict[str, float] = {}
    off_best: dict[str, float] = {}
    for _ in range(max(1, int(reps))):
        for a, p, e, c in keys:
            for check, best in ((None, unset_best), ("off", off_best)):
                cell = run_cell(workload, a, p, e, c, check=check)
                if cell.deterministic_fields() != reference[cell.key]:
                    raise ConfigurationError(
                        "check=off changed deterministic results on "
                        f"{cell.key}: {cell.deterministic_fields()} vs "
                        f"{reference[cell.key]}"
                    )
                best[cell.key] = min(
                    cell.wall_seconds, best.get(cell.key, cell.wall_seconds)
                )
    unset, off = sum(unset_best.values()), sum(off_best.values())
    return {
        "cells": len(keys),
        "no_check_wall_seconds": unset,
        "check_off_wall_seconds": off,
        "overhead_ratio": off / max(unset, 1e-12),
    }


def contention_overhead_tolerance() -> float:
    return float(
        os.environ.get("REPRO_CONTENTION_OVERHEAD_TOL", CONTENTION_OVERHEAD_MAX)
    )


def measure_contention_overhead(reps: int = CONTENTION_OVERHEAD_REPS) -> dict:
    """Wall-clock of the matrix with no contention config vs a *disabled*
    one.

    This is the zero-overhead-when-off gate for :mod:`repro.hw.contention`:
    a cluster carrying ``ContentionConfig(enabled=False)`` must cost no
    more than one that never heard of contention pricing (the router
    normalizes a disabled config to ``None``, exactly like the engines
    normalize a disabled tracer).  Methodology is identical to
    :func:`measure_trace_overhead` — per-cell back-to-back legs,
    best-of-``reps``, deterministic metrics forced to agree exactly: a
    disabled contention model may not change a single priced second.
    """
    workload = _Workload(MATRIX_GRAPH)
    keys = [
        (a, p, e, c)
        for a in MATRIX_APPS
        for p in MATRIX_POLICIES
        for e in MATRIX_ENGINES
        for c in MATRIX_COMMS
    ]

    # warm-up: partitions, memoized sync plans, allocator steady state
    reference = {}
    for a, p, e, c in keys:
        cell = run_cell(workload, a, p, e, c)
        reference[cell.key] = cell.deterministic_fields()
    plain_best: dict[str, float] = {}
    off_best: dict[str, float] = {}
    for _ in range(max(1, int(reps))):
        for a, p, e, c in keys:
            for contention, best in (
                (None, plain_best),
                (ContentionConfig(enabled=False), off_best),
            ):
                cell = run_cell(workload, a, p, e, c, contention=contention)
                if cell.deterministic_fields() != reference[cell.key]:
                    raise ConfigurationError(
                        "disabled contention config changed deterministic "
                        f"results on {cell.key}: "
                        f"{cell.deterministic_fields()} vs "
                        f"{reference[cell.key]}"
                    )
                best[cell.key] = min(
                    cell.wall_seconds, best.get(cell.key, cell.wall_seconds)
                )
    plain, off = sum(plain_best.values()), sum(off_best.values())
    return {
        "cells": len(keys),
        "no_contention_wall_seconds": plain,
        "contention_off_wall_seconds": off,
        "overhead_ratio": off / max(plain, 1e-12),
    }


def measure_hier_aggregation() -> dict:
    """Flat vs two-level sync on the hier gate cell — deterministic.

    Runs the :data:`HIER_CELL` workload at :data:`HIER_PARTS` partitions
    (bridges-32: 16 hosts, so cross-host traffic dominates) once with
    flat per-pair sync and once with ``hierarchical=True``.  Two-level
    sync must leave labels, rounds, and work bit-identical (it only
    re-prices the network leg and coalesces wire messages) while cutting
    cross-host wire messages by at least :data:`HIER_AGG_MIN`.  All
    compared quantities are simulated and machine-independent, so this
    gate runs in CI without slack.
    """
    workload = _Workload(MATRIX_GRAPH, parts=HIER_PARTS)
    app, policy, engine, comm = HIER_CELL
    flat = run_cell(workload, app, policy, engine, comm)
    hier = run_cell(workload, app, policy, engine, comm, hierarchical=True)
    for name in ("labels_crc", "rounds", "work_items"):
        f, h = getattr(flat, name), getattr(hier, name)
        if f != h:
            raise ConfigurationError(
                f"two-level sync changed {name} on {flat.key}: {f} vs {h}"
            )
    ratio = flat.inter_host_messages / max(hier.inter_host_messages, 1)
    return {
        "cell": flat.key,
        "parts": HIER_PARTS,
        "flat_inter_host_messages": int(flat.inter_host_messages),
        "hier_inter_host_messages": int(hier.inter_host_messages),
        "ratio": float(ratio),
        "flat_sim_seconds": float(flat.sim_seconds),
        "hier_sim_seconds": float(hier.sim_seconds),
    }


# --------------------------------------------------------------------------- #
# baseline persistence and comparison
# --------------------------------------------------------------------------- #
def write_baseline(path, results: dict[str, CellResult], speedup: dict | None = None) -> None:
    doc = {
        "schema": SCHEMA_VERSION,
        "workload": {
            "matrix_graph": MATRIX_GRAPH,
            "speedup_graph": SPEEDUP_GRAPH,
            "num_partitions": NUM_PARTITIONS,
            "apps": list(MATRIX_APPS),
            "policies": list(MATRIX_POLICIES),
            "engines": list(MATRIX_ENGINES),
            "comms": list(MATRIX_COMMS),
        },
        "cells": {k: asdict(r) for k, r in sorted(results.items())},
    }
    if speedup is not None:
        doc["speedup"] = speedup
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_baseline(path) -> dict[str, CellResult]:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"baseline schema {doc.get('schema')} != {SCHEMA_VERSION}; "
            "regenerate with bench_regression.py --update"
        )
    return {k: CellResult(**v) for k, v in doc["cells"].items()}


# --------------------------------------------------------------------------- #
# sweep runtime leg
# --------------------------------------------------------------------------- #
#: The sweep workload: a slice of the study that mixes partition-structure
#: cells with engine runs, one *distinct* (policy, partition-count)
#: partitioning per cell so the partition cache is what a warm re-run
#: amortizes.  The dataset is the heaviest stand-in to keep the
#: partition-to-run cost ratio representative of full-study sweeps.
SWEEP_DATASET = "uk07-s"
#: (policy, partition count) pairs for the partition-structure cells.
#: Every pair is a distinct partitioning; hvc's *stats* computation gets
#: expensive at high partition counts (paid identically warm and cold,
#: so it only dilutes the measured cache amortization) and stays at 16.
SWEEP_PSTATS_CELLS = (
    ("cvc", 16), ("hvc", 16), ("iec", 16), ("oec", 16),
    ("cvc", 48), ("iec", 48), ("oec", 48),
    ("cvc", 64), ("iec", 64), ("oec", 64),
)
SWEEP_RUN_POLICIES = ("cvc", "iec", "oec")
SWEEP_RUN_PARTS = 32
SWEEP_BENCHMARK = "bfs"

#: Worker-process count for the warm sweep leg.
SWEEP_JOBS = 4

#: Minimum cold-serial / warm-cached wall-clock ratio the sweep gate
#: enforces (ISSUE acceptance: the quick sweep at --jobs 4 with a warm
#: partition cache must be >= 2x the cold serial sweep).
SWEEP_SPEEDUP_MIN = 2.0


def sweep_specs() -> list:
    """The fixed sweep workload as picklable study-cell specs."""
    from repro.runtime.cells import CellSpec, PartitionStatsSpec, SystemSpec

    specs: list = []
    for pol, parts in SWEEP_PSTATS_CELLS:
        specs.append(PartitionStatsSpec(
            key=f"pstats/{SWEEP_DATASET}/{pol}@{parts}",
            dataset=SWEEP_DATASET,
            policy=pol,
            num_gpus=parts,
        ))
    for pol in SWEEP_RUN_POLICIES:
        specs.append(CellSpec(
            key=f"run/{SWEEP_BENCHMARK}/{SWEEP_DATASET}/{pol}@{SWEEP_RUN_PARTS}",
            system=SystemSpec.dirgl(policy=pol),
            benchmark=SWEEP_BENCHMARK,
            dataset=SWEEP_DATASET,
            num_gpus=SWEEP_RUN_PARTS,
            check_memory=False,
        ))
    return specs


def _sweep_record(out) -> dict:
    """The deterministic (machine-independent) fields of one outcome."""
    if out.pstats is not None:
        p = out.pstats
        return {
            "kind": "pstats",
            "replication_factor": float(p.replication_factor),
            "static_balance": float(p.static_balance),
            "vertex_balance": float(p.vertex_balance),
            "mean_comm_partners": float(p.mean_comm_partners),
            "max_comm_partners": int(p.max_comm_partners),
        }
    s = out.stats
    return {
        "kind": "run",
        "sim_seconds": float(s.execution_time),
        "rounds": int(s.rounds),
        "messages": int(s.num_messages),
        "comm_bytes": float(s.comm_volume_bytes),
        "work_items": float(s.work_items),
        "labels_crc": int(out.labels_crc),
    }


def run_sweep(jobs: int = 1, cache_dir=None) -> tuple[dict, float, int]:
    """Run the sweep workload; returns (records, wall seconds, builds).

    ``records`` maps cell key to its deterministic fields; ``builds`` is
    the total number of partitionings actually computed (cache misses)
    across all cells.  Failures re-raise: the sweep workload has no
    missing-point semantics.
    """
    from repro.runtime.sweep import SweepExecutor

    specs = sweep_specs()
    start = time.perf_counter()
    with SweepExecutor(jobs=jobs, cache_dir=cache_dir) as ex:
        outs = ex.map(specs)
    wall = time.perf_counter() - start
    for o in outs:
        o.raise_failure()
    records = {o.key: _sweep_record(o) for o in outs}
    builds = sum(o.partition_builds for o in outs)
    return records, wall, builds


#: Timing repetitions per sweep leg (best-of, like :func:`measure_speedup`).
SWEEP_REPS = 3


def measure_sweep_speedup(
    jobs: int = SWEEP_JOBS, cache_dir=None, reps: int = SWEEP_REPS
) -> dict:
    """Cold vs warm sweep wall-clock — the study-runtime gate.

    The cold leg is the realistic first invocation of ``repro-study
    --cache-dir``: serial, every partition built *and* persisted (each
    cold rep gets a fresh store directory so it really builds).  The
    warm leg is the re-run: ``jobs`` workers over one long-lived
    executor, the parent's in-memory cache dropped first, so the first
    rep reads every partition back from disk and later reps hit the
    workers' in-memory LRUs — nothing is ever rebuilt.  Each leg takes
    the best of ``reps`` timed runs, which filters the one-sided
    scheduling noise of a shared host; datasets are pre-loaded so
    neither leg pays the loader.  Deterministic fields of every run
    must agree exactly.
    """
    import tempfile

    from repro.generators.datasets import load_dataset
    from repro.partition.cache import configure
    from repro.runtime.sweep import SweepExecutor

    load_dataset(SWEEP_DATASET)
    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-sweep-cache-")
        cache_dir = tmp.name
    reps = max(1, int(reps))
    specs = sweep_specs()
    try:
        cold_walls, cold_builds = [], 0
        for rep in range(reps):
            store = os.path.join(cache_dir, f"cold{rep}")
            configure(cache_dir=store)  # empty memory + empty store
            cold_records, wall, cold_builds = run_sweep(
                jobs=1, cache_dir=store
            )
            cold_walls.append(wall)
        warm_store = os.path.join(cache_dir, f"cold{reps - 1}")
        # flush the cold legs' store writes so deferred writeback does
        # not get charged to the warm timings
        os.sync()
        warm_walls, warm_builds = [], 0
        configure(cache_dir=warm_store)  # drop memory, keep disk
        with SweepExecutor(jobs=jobs, cache_dir=warm_store) as ex:
            for rep in range(reps):
                start = time.perf_counter()
                outs = ex.map(specs)
                warm_walls.append(time.perf_counter() - start)
                for o in outs:
                    o.raise_failure()
                warm_records = {o.key: _sweep_record(o) for o in outs}
                warm_builds += sum(o.partition_builds for o in outs)
                if warm_records != cold_records:
                    raise ConfigurationError(
                        "cold and warm sweep legs diverged: "
                        f"{cold_records} vs {warm_records}"
                    )
    finally:
        configure(cache_dir=None)
        if tmp is not None:
            tmp.cleanup()
    cold_wall, warm_wall = min(cold_walls), min(warm_walls)
    return {
        "dataset": SWEEP_DATASET,
        "cells": len(cold_records),
        "jobs": int(jobs),
        "cold_wall_seconds": cold_wall,
        "warm_wall_seconds": warm_wall,
        "speedup": cold_wall / max(warm_wall, 1e-12),
        "cold_partition_builds": int(cold_builds),
        "warm_partition_builds": int(warm_builds),
    }


def write_sweep_baseline(path, records: dict, speedup: dict | None = None) -> None:
    doc = {
        "schema": SCHEMA_VERSION,
        "workload": {
            "dataset": SWEEP_DATASET,
            "pstats_cells": [list(c) for c in SWEEP_PSTATS_CELLS],
            "run_policies": list(SWEEP_RUN_POLICIES),
            "run_parts": SWEEP_RUN_PARTS,
            "benchmark": SWEEP_BENCHMARK,
        },
        "cells": {k: records[k] for k in sorted(records)},
    }
    if speedup is not None:
        doc["speedup"] = speedup
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_sweep_baseline(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"sweep baseline schema {doc.get('schema')} != {SCHEMA_VERSION}; "
            "regenerate with bench_regression.py --update"
        )
    return doc["cells"]


def compare_sweep_to_baseline(
    current: dict, baseline: dict, sim_rtol: float = SIM_RTOL
) -> list[str]:
    """Diff fresh sweep records against the committed baseline (all
    fields are machine-independent; wall-clock never enters the file's
    ``cells`` section)."""
    violations: list[str] = []
    for key in sorted(set(baseline) - set(current)):
        violations.append(f"{key}: sweep cell missing from current run")
    for key in sorted(set(current) - set(baseline)):
        violations.append(
            f"{key}: sweep cell not in baseline "
            "(run bench_regression.py --update)"
        )
    for key in sorted(set(current) & set(baseline)):
        cur, base = current[key], baseline[key]
        for name in sorted(set(cur) | set(base)):
            c, b = cur.get(name), base.get(name)
            if isinstance(c, float) and isinstance(b, float):
                if not np.isclose(c, b, rtol=sim_rtol, atol=0.0):
                    violations.append(
                        f"{key}: {name} drifted {b!r} -> {c!r}"
                    )
            elif c != b:
                violations.append(f"{key}: {name} changed {b!r} -> {c!r}")
    return violations


def compare_to_baseline(
    current: dict[str, CellResult],
    baseline: dict[str, CellResult],
    wall_tolerance: float | None = None,
    sim_rtol: float = SIM_RTOL,
) -> list[str]:
    """Diff a fresh matrix run against the committed baseline.

    Returns a list of human-readable violations (empty == pass).
    ``wall_tolerance`` is the allowed wall-clock slack factor per cell;
    ``None`` skips wall-clock checks entirely (simulated metrics only).
    """
    violations: list[str] = []
    for key in sorted(set(baseline) - set(current)):
        violations.append(f"{key}: cell missing from current run")
    for key in sorted(set(current) - set(baseline)):
        violations.append(
            f"{key}: cell not in baseline (run bench_regression.py --update)"
        )
    for key in sorted(set(current) & set(baseline)):
        cur, base = current[key], baseline[key]
        for name in ("rounds", "messages", "labels_crc"):
            c, b = getattr(cur, name), getattr(base, name)
            if c != b:
                violations.append(f"{key}: {name} changed {b} -> {c}")
        for name in ("sim_seconds", "comm_bytes", "work_items"):
            c, b = getattr(cur, name), getattr(base, name)
            if not np.isclose(c, b, rtol=sim_rtol, atol=0.0):
                violations.append(
                    f"{key}: {name} drifted {b!r} -> {c!r} "
                    f"(rel {abs(c - b) / max(abs(b), 1e-300):.2e} > {sim_rtol})"
                )
        if wall_tolerance is not None and cur.wall_seconds > base.wall_seconds * wall_tolerance:
            violations.append(
                f"{key}: wall-clock {cur.wall_seconds:.4f}s exceeds "
                f"{wall_tolerance:.1f}x baseline {base.wall_seconds:.4f}s"
            )
    return violations
