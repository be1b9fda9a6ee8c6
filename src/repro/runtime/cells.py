"""Picklable study-cell specifications and the worker-side runner.

A study cell is data: a zero-argument framework factory (what the
drivers once passed around) cannot cross a process boundary, a spec can.
This module defines them:

* :class:`SystemSpec` — how to build a framework facade (variant name,
  D-IrGL configuration, or registry framework) from plain values;
* :class:`CellSpec` — one benchmark run (system x benchmark x dataset x
  GPU count x platform);
* :class:`PartitionStatsSpec` — one partitioning-statistics measurement
  (Table IV's static-balance column, the replication table);
* :class:`CellOutcome` — the structured result either task kind returns,
  including the failure (its kind is the one the error's class names in
  :mod:`repro.errors`: OOM / unsupported / crash / invariant / error)
  and a per-cell partition-build counter.

:func:`run_task` executes one spec in the current process; the sweep
executor ships specs to pool workers and calls it there.  Datasets come
from the ``lru_cache``'d loader and partitions from the content-hash
partition cache, so a worker that processes many cells of one dataset
pays for loading and partitioning once.
"""

from __future__ import annotations

import os
import pickle
import re
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.errors import KIND_CLASSES, ReproError

__all__ = [
    "SystemSpec",
    "CellSpec",
    "PartitionStatsSpec",
    "CellOutcome",
    "run_task",
    "run_task_batch",
]


def _kw(kwargs: dict) -> tuple:
    """Normalize a kwargs dict into a hashable, picklable tuple."""
    return tuple(sorted(kwargs.items()))


@dataclass(frozen=True)
class SystemSpec:
    """A framework facade as data: ``build()`` re-creates it anywhere.

    ``kind`` is one of ``"variant"`` (``repro.study.variants``),
    ``"dirgl"`` (a ``DIrGL(**kwargs)`` configuration), or ``"framework"``
    (the :data:`repro.frameworks.FRAMEWORKS` registry).
    """

    kind: str
    args: tuple = ()
    kwargs: tuple = ()

    @classmethod
    def variant(cls, name: str, policy: str = "iec") -> "SystemSpec":
        return cls("variant", (name,), _kw({"policy": policy}))

    @classmethod
    def dirgl(cls, **kwargs: Any) -> "SystemSpec":
        return cls("dirgl", (), _kw(kwargs))

    @classmethod
    def framework(cls, name: str, **kwargs: Any) -> "SystemSpec":
        return cls("framework", (name,), _kw(kwargs))

    def build(self):
        kwargs = dict(self.kwargs)
        if self.kind == "variant":
            from repro.study.variants import make_variant

            return make_variant(*self.args, **kwargs)
        if self.kind == "dirgl":
            from repro.frameworks.dirgl import DIrGL

            return DIrGL(*self.args, **kwargs)
        if self.kind == "framework":
            from repro.frameworks.registry import get_framework

            return get_framework(*self.args, **kwargs)
        raise ValueError(f"unknown SystemSpec kind {self.kind!r}")


@dataclass(frozen=True)
class CellSpec:
    """One study cell: run ``benchmark`` on ``dataset`` with ``system``."""

    key: Any
    system: SystemSpec
    benchmark: str
    dataset: str
    num_gpus: int
    platform: str = "bridges"
    check_memory: bool = True
    ctx_overrides: tuple = ()
    engine_executor: str = "serial"
    keep_labels: bool = False
    #: deterministic crash schedule as ``((gpu_index, round_index), ...)``;
    #: converted to an :class:`~repro.engine.faults.FaultPlan` at run time.
    fault_plan: tuple = ()


@dataclass(frozen=True)
class PartitionStatsSpec:
    """One partition-structure measurement (no engine run)."""

    key: Any
    dataset: str
    policy: str
    num_gpus: int
    symmetric: bool = False


@dataclass
class CellOutcome:
    """Structured result of one task; ``failure_kind`` mirrors the
    exception taxonomy the study drivers record as missing points."""

    key: Any
    stats: Any = None  # RunStats for CellSpec tasks
    pstats: Any = None  # PartitionStats for PartitionStatsSpec tasks
    failure: str = ""
    # "" | "oom" | "unsupported" | "crash" | "invariant" | "error"
    failure_kind: str = ""
    elapsed: float = 0.0
    partition_builds: int = 0
    labels_crc: Optional[int] = None
    labels: Optional[np.ndarray] = None
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure_kind == ""

    def fail(self, err: ReproError) -> None:
        """Record ``err`` as this cell's failure: its message, the kind
        its class names, and the error itself (pickled: no traceback, and
        it crosses the pool boundary) for :meth:`raise_failure`."""
        self.failure, self.failure_kind = str(err), err.kind
        self.extra = {"error": pickle.dumps(err)}

    def failure_label(self) -> str:
        """The driver-facing failure string (matches ``ScalingPoint``)."""
        if self.failure_kind in ("", ReproError.kind):
            return self.failure
        return f"{self.failure_kind}: {self.failure}"

    def raise_failure(self) -> None:
        """Re-raise the recorded failure with its original exception type
        (for drivers that historically let the exception propagate)."""
        if self.ok:
            return
        if "error" in self.extra:
            raise pickle.loads(self.extra["error"])
        # only kind and message survived: the class that names the kind,
        # built around the message without running its constructor
        cls = KIND_CLASSES.get(self.failure_kind, ReproError)
        err = cls.__new__(cls)
        err.args = (self.failure,)
        raise err


def _slug(key: Any) -> str:
    """Filename-safe form of a cell key (keys are often tuples)."""
    text = "-".join(str(p) for p in key) if isinstance(key, tuple) else str(key)
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "cell"


def run_task(spec: CellSpec | PartitionStatsSpec) -> CellOutcome:
    """Execute one spec in this process, catching the simulated-failure
    hierarchy exactly as the serial drivers do.  Non-``ReproError``
    exceptions propagate: those are bugs, not missing data points.

    When a trace directory is configured (``repro-study --trace`` /
    :func:`repro.obs.configure`) and the ambient tracer is off, a
    per-cell :class:`~repro.obs.Tracer` is created, made ambient for the
    duration so the engines and partition cache record into it, and
    exported to ``<trace_dir>/<key>.trace.json``.
    """
    from repro import obs
    from repro.generators.datasets import load_dataset
    from repro.partition import partition, partition_stats
    from repro.partition.cache import get_cache

    t0 = time.perf_counter()
    builds0 = get_cache().stats.builds
    out = CellOutcome(key=spec.key)

    tracer = obs.current_tracer()
    trace_dir = obs.active_trace_dir()
    # a caller's tracer takes the cell's events; the cell owns one (and
    # its file) only when there is a directory and nobody is listening
    owns_tracer = trace_dir is not None and not tracer.enabled
    if owns_tracer:
        tracer = obs.Tracer()
        obs.set_tracer(tracer)
    cell_ev = tracer.begin(
        "cell", "cell", args={"key": str(spec.key), "dataset": spec.dataset}
    )
    try:
        try:
            ds = load_dataset(spec.dataset)
            if isinstance(spec, PartitionStatsSpec):
                graph = ds.symmetric() if spec.symmetric else ds.graph
                out.pstats = partition_stats(
                    partition(graph, spec.policy, spec.num_gpus)
                )
            else:
                fw = spec.system.build()
                run_kwargs = dict(spec.ctx_overrides)
                if spec.fault_plan:
                    from repro.engine.faults import FaultPlan

                    run_kwargs["fault_plan"] = FaultPlan(dict(spec.fault_plan))
                res = fw.run(
                    spec.benchmark,
                    ds,
                    spec.num_gpus,
                    platform=spec.platform,
                    check_memory=spec.check_memory,
                    engine_executor=spec.engine_executor,
                    **run_kwargs,
                )
                out.stats = res.stats
                out.labels_crc = int(
                    zlib.crc32(np.ascontiguousarray(res.labels).tobytes())
                )
                if spec.keep_labels:
                    out.labels = res.labels
                    out.extra = dict(res.extra)
        except ReproError as e:
            # a simulated failure is a missing data point, and a checker
            # that fired is recorded with its cell key so ``--check`` runs
            # report every breach instead of dying on the first one
            out.fail(e)
    finally:
        if owns_tracer:
            obs.set_tracer(None)
    out.partition_builds = get_cache().stats.builds - builds0
    out.elapsed = time.perf_counter() - t0
    out.extra["worker_pid"] = os.getpid()
    tracer.end(
        cell_ev,
        ok=out.ok,
        failure_kind=out.failure_kind,
        partition_builds=out.partition_builds,
        worker_pid=os.getpid(),
    )
    if owns_tracer:
        path = os.path.join(trace_dir, f"{_slug(spec.key)}.trace.json")
        obs.write_chrome(tracer, path, process_name=f"cell {spec.key}")
        out.extra["trace_path"] = path
    return out


def run_task_batch(
    specs: list[CellSpec | PartitionStatsSpec],
) -> list[CellOutcome]:
    """Run several specs sequentially in this process under one RSS meter.

    The sweep executor's ``shard_plan`` mode groups cells by dataset and
    ships each group here, so a worker opens its (possibly mmap-backed)
    graph once and amortizes it over the whole batch.  A
    :class:`~repro.runtime.rss.RssSampler` spans the batch; every outcome
    carries the worker's anonymous-RSS readings in
    ``extra["rss"]`` (``baseline`` / ``peak`` / ``peak_increment`` /
    ``source`` bytes), and the ambient tracer receives ``ooc.batches`` /
    ``ooc.batch_cells`` counters plus an ``ooc.rss_peak`` instant with the
    same numbers.
    """
    from repro import obs
    from repro.runtime.rss import RssSampler

    sampler = RssSampler().start()
    outcomes: list[CellOutcome] = []
    try:
        for spec in specs:
            outcomes.append(run_task(spec))
            # fold a reading in right after the cell: short-lived spikes
            # between poll ticks would otherwise go unrecorded
            sampler.sample_now()
    finally:
        sample = sampler.stop()
    rss = {
        "baseline_bytes": sample.baseline,
        "peak_bytes": sample.peak,
        "peak_increment_bytes": sample.peak_increment,
        "source": sample.source,
        "samples": sample.samples,
    }
    for out in outcomes:
        out.extra["rss"] = rss
    tracer = obs.current_tracer()
    tracer.count("ooc.batches")
    tracer.count("ooc.batch_cells", len(outcomes))
    tracer.instant("ooc.rss_peak", "ooc", args=rss)
    return outcomes
