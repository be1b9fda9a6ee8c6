"""The out-of-core study driver: build big, partition once, stream cells.

The paper's headline inputs (clueweb12, wdc12 — up to 64B edges) only
matter *because* they dwarf device memory; every other experiment in this
repo runs on in-RAM stand-ins that never leave the comfortable regime.
This driver exercises the full out-of-core data path end to end:

1. **Build** — chunk-generate an R-MAT graph straight into a checksummed
   store container sized at least ``size_multiple``× the configured RAM
   cap (:mod:`repro.generators.chunked`; peak RAM O(chunk + |V|)).
2. **Partition** — the driver partitions the mmap-backed graph once and
   spills the partitions through the partition cache
   (``spill_shards``), then drops its in-memory copy.
3. **Run** — a :class:`~repro.runtime.sweep.SweepExecutor` in
   ``shard_plan`` mode fans BFS + PageRank cells out over ``spawn``
   workers.  Workers receive only the store *path* and cache key — no
   pickled graph or partitioning crosses the pool — and reload both as
   memmaps, so their peak **anonymous** RSS stays O(|V| + chunk) while
   the graph streams from disk (see :mod:`repro.runtime.rss` for why
   anonymous, not VmRSS).
4. **Compare** — the same benchmarks run warm on a small graph through
   both ``store+mmap:`` and ``store+ram:`` to bound the mmap path's
   overhead on graphs that *do* fit.

``bench_regression.py --only ooc`` and ``repro-study ooc`` both call
:func:`run_ooc_study` and gate on :func:`evaluate`:

* every cell succeeds (``--only ooc`` additionally holds rounds and
  label CRCs to the ``ooc`` golden rows recorded for its config);
* peak worker anonymous RSS ≤ cap × ``REPRO_OOC_RSS_TOL``;
* warm mmap wall ≤ RAM wall × ``REPRO_OOC_WALL_TOL`` on the small graph.

Benchmarks are push-only (``bfs``, ``pr-push``) by design: the pull
variants (``pr``, direction-optimizing bfs) build per-partition reverse
graphs — an O(|E|) anonymous allocation that would defeat streaming.
Teaching the pull engines to spill transposes is future work
(ROADMAP item 3 continues).
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.runtime.cells import CellSpec, SystemSpec

__all__ = ["OocConfig", "OocReport", "run_ooc_study", "evaluate"]

_MB = 1024 * 1024


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return float(raw) if raw else default


@dataclass
class OocConfig:
    """Knobs for the out-of-core study (env overrides in parentheses)."""

    #: worker anonymous-RSS budget in MiB (``REPRO_OOC_RAM_CAP_MB``)
    ram_cap_mb: float = 48.0
    #: the big store must be at least this multiple of the cap
    #: (``REPRO_OOC_SIZE_MULT``)
    size_multiple: float = 4.0
    #: peak-RSS slack multiplier (``REPRO_OOC_RSS_TOL``); CI smoke runs
    #: relax this — hosted runners share page cache unpredictably
    rss_tol: float = 1.0
    #: warm mmap-vs-RAM wall-clock slack (``REPRO_OOC_WALL_TOL``)
    wall_tol: float = 1.25
    #: dense by design: per-worker anonymous state scales with
    #: |V| x partitions (vertex labels, mirrors, exchange tables — the
    #: analogue of the vertex data real GPUs keep in HBM) while the store
    #: scales with |E|, so a high edge factor is what makes
    #: "graph >> RAM cap, worker << RAM cap" simultaneously satisfiable
    edge_factor: float = 768.0
    num_partitions: int = 4
    #: spawn workers; >= 2 so the RSS meter reads fresh worker processes
    #: rather than the driver (which already paid the partition build)
    jobs: int = 2
    chunk_edges: int = 1 << 20
    seed: int = 23
    apps: tuple[str, ...] = ("bfs", "pr-push")
    #: PageRank convergence tolerance for the gate cells — looser than
    #: the study default: the gate checks memory and determinism, and a
    #: full-precision run on the dense out-of-core graph would triple the
    #: wall clock for identical coverage
    tolerance: float = 1e-2
    #: per-block edge budget for the workers' frontier expansions
    #: (``REPRO_BLOCK_EDGES``); bounds one dense round's per-edge
    #: temporaries to ~40 bytes x this
    block_edges: int = 1 << 17
    #: where the store + partition cache live (None = ``.ooc`` in cwd)
    work_dir: Optional[str] = None
    #: vertex-count log2 of the small warm-path comparison graph
    small_scale: int = 14

    @classmethod
    def from_env(cls, **overrides) -> "OocConfig":
        cfg = cls(
            ram_cap_mb=_env_float("REPRO_OOC_RAM_CAP_MB", cls.ram_cap_mb),
            size_multiple=_env_float("REPRO_OOC_SIZE_MULT", cls.size_multiple),
            rss_tol=_env_float("REPRO_OOC_RSS_TOL", cls.rss_tol),
            wall_tol=_env_float("REPRO_OOC_WALL_TOL", cls.wall_tol),
        )
        for k, v in overrides.items():
            setattr(cfg, k, v)
        return cfg

    @property
    def ram_cap_bytes(self) -> int:
        return int(self.ram_cap_mb * _MB)

    @property
    def scale(self) -> int:
        """log2 vertex count sized so the weighted store ≥ multiple × cap.

        A weighted CSR store costs ~8 bytes/edge (int32 indices + uint32
        weights; indptr is comparatively small), so the minimum edge
        count is ``size_multiple * cap / 8`` and the vertex count follows
        from the edge factor.
        """
        min_edges = self.size_multiple * self.ram_cap_bytes / 8.0
        return max(10, math.ceil(math.log2(min_edges / self.edge_factor)))


@dataclass
class OocReport:
    """Everything the gates and the CLI report need."""

    config: OocConfig
    store_path: str = ""
    num_vertices: int = 0
    num_edges: int = 0
    store_bytes: int = 0
    build_seconds: float = 0.0
    partition_seconds: float = 0.0
    #: per app: rounds / labels_crc / elapsed / ok / failure
    cells: dict = field(default_factory=dict)
    peak_rss_bytes: int = 0
    rss_baseline_bytes: int = 0
    rss_source: str = ""
    #: warm small-graph walls, seconds: {"mmap": ..., "ram": ...}
    small_wall: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "config": {
                "ram_cap_mb": self.config.ram_cap_mb,
                "size_multiple": self.config.size_multiple,
                "edge_factor": self.config.edge_factor,
                "num_partitions": self.config.num_partitions,
                "seed": self.config.seed,
                "scale": self.config.scale,
                "apps": list(self.config.apps),
                "tolerance": self.config.tolerance,
                "block_edges": self.config.block_edges,
            },
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "store_bytes": self.store_bytes,
            "build_seconds": round(self.build_seconds, 3),
            "partition_seconds": round(self.partition_seconds, 3),
            "cells": self.cells,
            "peak_rss_bytes": self.peak_rss_bytes,
            "rss_baseline_bytes": self.rss_baseline_bytes,
            "rss_source": self.rss_source,
            "small_wall": {
                k: round(v, 4) for k, v in self.small_wall.items()
            },
        }
        return json.dumps(doc, indent=1, sort_keys=True)


def _build_big_store(cfg: OocConfig, work_dir: str) -> tuple[str, dict, float]:
    """Build (or reuse) the big R-MAT store; returns (path, header, secs)."""
    from repro.errors import GraphFormatError
    from repro.generators.chunked import build_store
    from repro.graph.store import store_info

    name = (
        f"ooc_rmat{cfg.scale}_ef{int(cfg.edge_factor)}_s{cfg.seed}.csr"
    )
    path = os.path.join(work_dir, name)
    if os.path.exists(path):
        try:
            return path, store_info(path), 0.0
        except (OSError, GraphFormatError):
            os.unlink(path)  # torn or foreign: rebuild
    t0 = time.perf_counter()
    header = build_store(
        "rmat", cfg.scale, path,
        chunk_edges=cfg.chunk_edges, seed=cfg.seed,
        edge_factor=cfg.edge_factor,
    )
    return path, header, time.perf_counter() - t0


def _cell_specs(cfg: OocConfig, dataset: str, tag: str) -> list[CellSpec]:
    return [
        CellSpec(
            key=(tag, app),
            system=SystemSpec.dirgl(policy="iec", execution="sync"),
            benchmark=app,
            dataset=dataset,
            num_gpus=cfg.num_partitions,
            platform="bridges",
            # the memory model gates paper-scale footprints; the OOC gate
            # measures *real* worker RSS instead
            check_memory=False,
            ctx_overrides=(("tolerance", cfg.tolerance),),
        )
        for app in cfg.apps
    ]


def _worker_env(cfg: OocConfig) -> dict[str, str]:
    """Environment the OOC workers must start under.

    ``REPRO_BLOCK_EDGES`` bounds the frontier-expansion blocks.  The two
    malloc knobs pin glibc's dynamic mmap threshold and arena count:
    numpy temporaries a few MiB in size otherwise ratchet the threshold
    up, after which freed blocks return to the (never-trimmed) heap and
    the worker's anonymous RSS reads as the *sum* of transients it has
    ever held rather than its live set.  Spawn-started workers inherit
    the driver's environment at exec, so these must be set before the
    pool is created.
    """
    return {
        "REPRO_BLOCK_EDGES": str(cfg.block_edges),
        "MALLOC_MMAP_THRESHOLD_": "131072",
        "MALLOC_ARENA_MAX": "1",
    }


def run_ooc_study(cfg: Optional[OocConfig] = None, progress=None) -> OocReport:
    """Run the full out-of-core pipeline; returns the report (no gating).

    ``progress`` is an optional ``callable(str)`` for status lines.
    """
    from repro.partition.cache import get_cache, set_cache

    cfg = cfg or OocConfig.from_env()
    env = _worker_env(cfg)
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    found = get_cache()  # the study points the process-wide cache at its own
    try:
        return _pipeline(cfg, progress)
    finally:
        set_cache(found)
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _pipeline(cfg: OocConfig, progress) -> OocReport:
    from repro.partition.cache import clear as cache_clear
    from repro.partition.cache import configure as cache_configure
    from repro.runtime.sweep import SweepExecutor

    say = progress or (lambda msg: None)
    work_dir = cfg.work_dir or os.path.join(os.getcwd(), ".ooc")
    os.makedirs(work_dir, exist_ok=True)
    cache_dir = os.path.join(work_dir, "pcache")
    report = OocReport(config=cfg)

    say(f"building store (scale={cfg.scale}, ef={cfg.edge_factor:g}) ...")
    path, header, report.build_seconds = _build_big_store(cfg, work_dir)
    report.store_path = path
    report.num_vertices = header["num_vertices"]
    report.num_edges = header["num_edges"]
    report.store_bytes = header["total_bytes"]
    say(
        f"store: |V|={report.num_vertices:,} |E|={report.num_edges:,} "
        f"{report.store_bytes / _MB:.0f} MiB "
        f"({report.store_bytes / cfg.ram_cap_bytes:.1f}x the "
        f"{cfg.ram_cap_mb:g} MiB cap) in {report.build_seconds:.1f}s"
    )

    # Pre-partition in the driver so workers only ever *load* shards.
    # The driver itself is allowed O(|E|) during this build — the RSS
    # budget applies to sweep workers, which is where scale-out happens.
    say(f"partitioning into {cfg.num_partitions} shards ...")
    t0 = time.perf_counter()
    cache_configure(cache_dir=cache_dir, spill_shards=True)
    dataset = f"store+mmap:{path}"
    from repro.generators.datasets import load_dataset
    from repro.partition import partition as make_partition

    ds = load_dataset(dataset)
    make_partition(ds.graph, "iec", cfg.num_partitions)
    report.partition_seconds = time.perf_counter() - t0
    say(f"partitioned in {report.partition_seconds:.1f}s")
    # drop the driver's in-memory copies before the fan-out
    cache_clear()
    load_dataset.cache_clear()
    del ds
    gc.collect()

    say(f"running {list(cfg.apps)} over {cfg.jobs} spawn worker(s) ...")
    with SweepExecutor(
        jobs=cfg.jobs,
        cache_dir=cache_dir,
        shard_plan=True,
        spill_shards=True,
        # spawn, never fork: a forked worker inherits the driver's heap
        # (partition-build garbage) and its RSS would gate the wrong thing
        start_method="spawn",
    ) as ex:
        outcomes = ex.map(_cell_specs(cfg, dataset, "big"))
    for out in outcomes:
        rss = out.extra.get("rss", {})
        report.cells[out.key[1]] = {
            "ok": out.ok,
            "failure": out.failure,
            "rounds": getattr(out.stats, "rounds", None),
            "labels_crc": out.labels_crc,
            "elapsed": round(out.elapsed, 3),
            "rss_peak_increment_bytes": rss.get("peak_increment_bytes"),
        }
        inc = rss.get("peak_increment_bytes") or 0
        if inc > report.peak_rss_bytes:
            report.peak_rss_bytes = inc
            report.rss_baseline_bytes = rss.get("baseline_bytes", 0)
            report.rss_source = rss.get("source", "")
    say(
        f"peak worker RSS increment {report.peak_rss_bytes / _MB:.1f} MiB "
        f"({report.rss_source}) vs cap {cfg.ram_cap_mb:g} MiB"
    )

    # warm small-graph wall-clock: mmap must stay near the RAM path
    say("timing warm small-graph runs (mmap vs ram) ...")
    from repro.generators.chunked import build_store

    small = os.path.join(work_dir, f"ooc_small{cfg.small_scale}.csr")
    if not os.path.exists(small):
        build_store(
            "rmat", cfg.small_scale, small,
            chunk_edges=cfg.chunk_edges, seed=cfg.seed, edge_factor=16.0,
        )
    for mode in ("ram", "mmap"):
        specs = _cell_specs(cfg, f"store+{mode}:{small}", f"small-{mode}")
        with SweepExecutor(jobs=1, cache_dir=cache_dir, spill_shards=True) as ex:
            ex.map(specs)  # cold: build partitions, warm every cache
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                outs = ex.map(specs)
                best = min(best, time.perf_counter() - t0)
            if not all(o.ok for o in outs):
                bad = [o.failure for o in outs if not o.ok]
                raise RuntimeError(f"small-graph {mode} runs failed: {bad}")
        report.small_wall[mode] = best
        load_dataset.cache_clear()
        cache_clear()
    say(
        f"warm wall: ram {report.small_wall['ram']:.3f}s, "
        f"mmap {report.small_wall['mmap']:.3f}s"
    )
    return report


def evaluate(report: OocReport) -> list[str]:
    """Gate a report; returns violation strings (empty = pass)."""
    cfg = report.config
    violations: list[str] = []
    min_bytes = cfg.size_multiple * cfg.ram_cap_bytes
    if report.store_bytes < min_bytes:
        violations.append(
            f"store is {report.store_bytes / _MB:.0f} MiB, below the "
            f"required {cfg.size_multiple:g}x cap ({min_bytes / _MB:.0f} MiB)"
        )
    for app, cell in report.cells.items():
        if not cell["ok"]:
            violations.append(f"{app} failed: {cell['failure']}")
    rss_limit = cfg.ram_cap_bytes * cfg.rss_tol
    if report.peak_rss_bytes > rss_limit:
        violations.append(
            f"peak worker RSS increment {report.peak_rss_bytes / _MB:.1f} MiB "
            f"exceeds cap {cfg.ram_cap_mb:g} MiB x tol {cfg.rss_tol:g} "
            f"({report.rss_source})"
        )
    wall_ram = report.small_wall.get("ram")
    wall_mmap = report.small_wall.get("mmap")
    if wall_ram and wall_mmap and wall_mmap > wall_ram * cfg.wall_tol:
        violations.append(
            f"warm mmap wall {wall_mmap:.3f}s exceeds "
            f"{cfg.wall_tol:g}x ram wall {wall_ram:.3f}s"
        )
    return violations
