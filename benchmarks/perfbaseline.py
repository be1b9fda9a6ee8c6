"""Regression-gate measurements.

The repo's credibility rests on two properties the paper study also needed
(cf. Gunrock's multi-GPU harness and Ammar & Özsu's cross-system study):
the hot paths must be fast, and the measurement must be reproducible and
regression-tracked.  This module holds the measurements both halves run:

* :func:`run_cell` / :func:`run_matrix` — the fixed bfs/cc/pagerank ×
  IEC/CVC × BSP/BASP × AS/UO matrix on a seeded RMAT graph: per cell the
  host wall-clock, machine-dependent, and the *simulated* metrics —
  execution time, rounds, messages, wire bytes, work items, a CRC of the
  output labels — all deterministic;
* :func:`run_sweep` — a fixed slice of the study through the sweep
  executor.

The deterministic fields are rows of the ``gates`` golden table
(``tests/test_gates.py``); the gates that need a clock,
:func:`measure_overhead` (a disabled subsystem must cost nothing) and
:func:`measure_sweep_speedup`, run from ``benchmarks/bench_regression.py``.
"""

from __future__ import annotations

import os
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.apps import get_app
from repro.check import use_check_level
from repro.comm import CommConfig
from repro.engine import BASPEngine, BSPEngine
from repro.engine.operator import RunContext
from repro.errors import ConfigurationError
from repro.generators import rmat
from repro.graph.transform import add_random_weights, make_undirected
from repro.hw import bridges
from repro.partition import partition

__all__ = [
    "CellResult",
    "MATRIX_CELLS",
    "SWEEP_SPEEDUP_MIN",
    "OVERHEAD_MAX",
    "cell_key",
    "run_cell",
    "run_matrix",
    "measure_overhead",
    "overhead_tolerance",
    "sweep_specs",
    "run_sweep",
    "measure_sweep_speedup",
]

#: The fixed workload matrix: every combination is one ``sync-matrix`` row.
MATRIX_APPS = ("bfs", "cc", "pr")
MATRIX_POLICIES = ("iec", "cvc")
MATRIX_ENGINES = ("bsp", "basp")
MATRIX_COMMS = ("as", "uo")
MATRIX_CELLS = tuple(
    (a, p, e, c)
    for a in MATRIX_APPS
    for p in MATRIX_POLICIES
    for e in MATRIX_ENGINES
    for c in MATRIX_COMMS
)

#: Workload dimensions: the matrix graph keeps the full 24-cell sweep in
#: CI territory.
MATRIX_GRAPH = {"scale": 10, "edge_factor": 8, "seed": 3}
NUM_PARTITIONS = 4

#: Maximum off / unset wall-clock ratio the three overhead gates enforce
#: (< 2% overhead with tracing, invariant checking or contention pricing
#: switched off); each gate's own environment variable overrides it —
#: ``REPRO_TRACE_OVERHEAD_TOL``, ``REPRO_CHECK_OVERHEAD_TOL``,
#: ``REPRO_CONTENTION_OVERHEAD_TOL`` (:func:`overhead_tolerance`).
OVERHEAD_MAX = 1.02

#: Timing repetitions per leg in :func:`measure_overhead` (per-cell
#: best-of, both legs run back to back per cell).
OVERHEAD_REPS = 5


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
    #: sync); not a ``sync-matrix`` field — the ``hier-aggregation`` rows
    #: pin it.
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


def overhead_tolerance(env_name: str) -> float:
    return float(os.environ.get(env_name, OVERHEAD_MAX))


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
    tracer=None,
    check=None,
    contention=None,
    hierarchical: bool = False,
) -> CellResult:
    """Run one cell and collect its measurements.

    ``contention`` (a :class:`~repro.hw.contention.ContentionConfig`)
    attaches shared-resource pricing to the workload's cluster for this
    cell only; ``hierarchical`` opts the cell into two-level sync;
    ``tracer`` is made the ambient tracer for the run (``None`` installs
    the off state, as a disabled one does); ``check`` is installed as the
    ambient check level around the engine (``None`` leaves the ambient
    one).
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
    with nullcontext() if check is None else use_check_level(check):
        eng = _ENGINES[engine](
            pg, cluster, app, comm_config=comm_config, check_memory=False
        )
        with obs.use_tracer(tracer):
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


def run_matrix() -> dict[str, CellResult]:
    """Run the full fixed workload matrix."""
    workload = _Workload(MATRIX_GRAPH)
    results: dict[str, CellResult] = {}
    for cell_args in MATRIX_CELLS:
        cell = run_cell(workload, *cell_args)
        results[cell.key] = cell
    return results


def measure_overhead(kwarg: str, off_value, reps: int = OVERHEAD_REPS) -> dict:
    """Wall-clock of the matrix with ``run_cell``'s ``kwarg`` unset vs
    set to ``off_value``, its explicitly *disabled* form.

    This is the zero-overhead-when-off measurement behind three gates:
    ``tracer=Tracer(enabled=False)`` (``obs.use_tracer`` installs the one
    off state for ``None`` and for a disabled tracer alike, so the legs
    are two spellings of the same thing: this can only catch a disabled
    tracer being given a path of its own again, or work outside an
    ``if tracer.enabled:`` guard that reads which one was installed — not
    what a disabled call costs, which the layered benchmark's untraced
    passes pay on both sides of a comparison), ``check="off"`` (installed
    as the ambient level; both legs compile the same two pre-computed
    booleans into the round loop, so the only thing this can catch is
    exactly what it must: work creeping outside the ``if check_cheap:``
    guards) and
    ``contention=ContentionConfig(enabled=False)`` (the router normalizes
    a disabled config to ``None``).  The two legs of each matrix cell run
    **back to back** (so both see the same machine state — container
    clocks are bursty enough that whole-leg totals of identical code can
    swing ±10%), the unset leg first in even reps and second in odd
    ones, and each leg's total is the sum of per-cell
    best-of-``reps`` wall-clocks, which converge on each cell's true
    floor.  Deterministic metrics of both legs must agree exactly: a
    disabled subsystem may not change results — not a single priced
    second — any more than it may change speed.
    """
    workload = _Workload(MATRIX_GRAPH)
    # warm-up: partitions, memoized sync plans, allocator steady state
    reference = {}
    for cell_args in MATRIX_CELLS:
        cell = run_cell(workload, *cell_args)
        reference[cell.key] = cell.deterministic_fields()
    unset_best: dict[str, float] = {}
    off_best: dict[str, float] = {}
    legs = ((None, unset_best), (off_value, off_best))
    for rep in range(max(1, int(reps))):
        for cell_args in MATRIX_CELLS:
            # neither leg always runs second: the order flips every rep
            for value, best in legs[::-1] if rep % 2 else legs:
                cell = run_cell(workload, *cell_args, **{kwarg: value})
                if cell.deterministic_fields() != reference[cell.key]:
                    raise ConfigurationError(
                        f"{kwarg}={off_value!r} changed deterministic "
                        f"results on {cell.key}: "
                        f"{cell.deterministic_fields()} vs "
                        f"{reference[cell.key]}"
                    )
                best[cell.key] = min(
                    cell.wall_seconds, best.get(cell.key, cell.wall_seconds)
                )
    unset, off = sum(unset_best.values()), sum(off_best.values())
    return {
        "cells": len(MATRIX_CELLS),
        "unset_wall_seconds": unset,
        "off_wall_seconds": off,
        "overhead_ratio": off / max(unset, 1e-12),
    }


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


#: Timing repetitions per sweep leg (best-of).
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
