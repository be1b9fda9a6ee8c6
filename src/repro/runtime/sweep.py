"""The sweep executor: fan study cells out over a process pool.

Cells are independent (each loads its dataset, partitions via the shared
partition cache, and runs one engine), so the sweep is embarrassingly
parallel.  The executor preserves the *submission order* of results —
drivers iterate outcomes exactly as they would have iterated their
nested loops — while completing cells in any order underneath.

Worker processes are initialized once with the sweep's partition cache
directory (and trace directory, when tracing is on); combined with the
``lru_cache``'d dataset loader and the in-memory partition LRU, a worker
that draws many cells of one dataset loads and partitions it once.  With
the (default, where available) ``fork`` start method, workers also
inherit every dataset and partition already warm in the parent.

``jobs <= 1`` runs everything serially in-process (no pool, identical
results); a broken pool (a worker killed by the OS) degrades to the same
serial path for the cells that remain unaccounted for — outcomes already
harvested from the pool are kept, not re-run.  A real exception from a
cell (a bug, not a simulated failure) cancels the queued cells and shuts
the pool down before propagating, so a failed sweep does not leave
orphan workers grinding through the rest of the matrix.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Optional, Sequence

from repro.runtime.cells import (
    CellOutcome,
    CellSpec,
    PartitionStatsSpec,
    run_task,
    run_task_batch,
)

__all__ = ["SweepExecutor", "default_start_method", "run_cells"]

log = logging.getLogger("repro.runtime.sweep")


def default_start_method() -> str:
    """``fork`` where available (cheap, inherits warm caches), else the
    platform default.  ``REPRO_SWEEP_START_METHOD`` overrides."""
    env = os.environ.get("REPRO_SWEEP_START_METHOD")
    if env:
        return env
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method()


def _worker_init(
    cache_dir: Optional[str],
    trace_dir: Optional[str] = None,
    check=None,
    max_disk_bytes: Optional[int] = None,
    spill_shards: bool = False,
) -> list:
    """Install the sweep's process-wide state; returns one ``(setter,
    previous)`` pair per piece it replaced — the objects it found, for
    :meth:`SweepExecutor.close` to put back (a pool worker never does)."""
    from repro import obs
    from repro.check import set_check_level
    from repro.partition import cache as partition_cache

    replaced = []
    cache = partition_cache.get_cache()
    if cache_dir is not None and (
        cache.cache_dir != cache_dir
        or cache.max_disk_bytes != max_disk_bytes
        or cache.spill_shards != spill_shards
    ):
        partition_cache.configure(
            cache_dir=cache_dir,
            max_disk_bytes=max_disk_bytes,
            spill_shards=spill_shards,
        )
        replaced.append((partition_cache.set_cache, cache))
    found_dir = obs.active_trace_dir()
    if trace_dir is not None and found_dir != trace_dir:
        obs.configure(trace_dir=trace_dir)
        replaced.append((obs.configure, found_dir))
    if check is not None:
        replaced.append((set_check_level, set_check_level(check)))
    return replaced


def _pool_init(*state) -> None:
    """A pool worker's initializer.  A forked worker inherits the parent's
    ambient tracer as a copy nobody exports, so it starts from the off
    state: a worker traces a cell iff a trace directory is configured
    (``run_task`` then owns a per-cell tracer and writes its file)."""
    from repro import obs

    obs.set_tracer(None)
    _worker_init(*state)


class SweepExecutor:
    """Runs study cells, serially or over a process pool.

    Parameters
    ----------
    jobs:
        worker processes; ``<= 1`` means serial in-process execution.
    cache_dir:
        partition-cache directory shared by the parent and every worker
        (``None`` keeps the cache in-memory-only per process).
    engine_executor:
        compute-phase dispatch stamped onto every :class:`CellSpec`
        (``"serial"`` or ``"threads"``); results are bit-identical.
    trace_dir:
        when set, every cell writes a Chrome trace JSON here (see
        :mod:`repro.obs`); workers inherit the setting through the pool
        initializer.
    check:
        runtime invariant-checking level (``"off"``/``"cheap"``/``"full"``
        or a :class:`~repro.check.CheckLevel`); installed as the ambient
        level in the parent and every worker.  ``None`` leaves whatever
        level is already ambient untouched.
    shard_plan:
        group cells by dataset and dispatch each group as one
        :func:`run_task_batch` — a worker opens its (possibly
        mmap-backed) graph once per batch instead of once per cell, and
        every outcome carries the worker's peak anonymous-RSS readings
        (``extra["rss"]``, plus ``ooc.*`` tracer counters).  Groups are
        split into at most ``jobs`` contiguous sub-batches so a single
        huge dataset still fans out.  Results stay in submission order.
    max_disk_bytes / spill_shards:
        forwarded to :func:`repro.partition.cache.configure` in the
        parent and every worker: a byte cap (LRU-pruned) for the shared
        disk cache, and entries that carry ``global_to_local`` and load as
        memmap views (the out-of-core path).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        engine_executor: str = "serial",
        start_method: Optional[str] = None,
        trace_dir: Optional[str] = None,
        check=None,
        shard_plan: bool = False,
        max_disk_bytes: Optional[int] = None,
        spill_shards: bool = False,
    ):
        self.jobs = int(jobs)
        self.cache_dir = cache_dir
        self.engine_executor = engine_executor
        self.start_method = start_method or default_start_method()
        self.trace_dir = None if trace_dir is None else str(trace_dir)
        if check is not None:
            from repro.check import parse_check_level

            check = parse_check_level(check)
        self.check = check
        self.shard_plan = bool(shard_plan)
        self.max_disk_bytes = max_disk_bytes
        self.spill_shards = bool(spill_shards)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._replaced: Optional[list] = None
        self._install()

    def _install(self) -> None:
        """Give this process the workers' state — the parent shares the
        same disk store so serial runs, fallbacks, and pool workers all
        hit one set of files — unless it is installed already (a ``map``
        after ``close`` installs it again)."""
        if self._replaced is None:
            self._replaced = _worker_init(
                self.cache_dir, self.trace_dir, self.check,
                self.max_disk_bytes, self.spill_shards,
            )

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, cancel_futures: bool = True) -> None:
        """Shut the pool down and put back the process-wide partition
        cache, trace directory and check level the constructor replaced
        (the objects it found; nothing when it changed nothing); safe to
        call any number of times.

        ``cancel_futures=True`` drops queued-but-unstarted cells so a
        serve-layer drain (or ``__exit__`` on an exception path) does not
        hang behind work nobody will consume.  ``close()`` after
        ``close()`` — and ``__exit__`` after an explicit ``close()`` —
        are no-ops, including during interpreter shutdown where the
        executor machinery may already be torn down.
        """
        replaced, self._replaced = self._replaced or [], None
        for restore, found in reversed(replaced):
            restore(found)
        self._shutdown_pool(cancel_futures)

    def _shutdown_pool(self, cancel_futures: bool = True) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=True, cancel_futures=cancel_futures)
        except RuntimeError:  # interpreter shutdown: threads already gone
            pass

    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # never run more workers than cores: the cells are pure CPU,
            # so oversubscription only adds fork and scheduling overhead
            workers = max(1, min(self.jobs, os.cpu_count() or self.jobs))
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context(self.start_method),
                initializer=_pool_init,
                initargs=(
                    self.cache_dir, self.trace_dir, self.check,
                    self.max_disk_bytes, self.spill_shards,
                ),
            )
        return self._pool

    def _prepare(self, spec):
        if not isinstance(spec, CellSpec):
            return spec
        if self.engine_executor != "serial" and spec.engine_executor == "serial":
            return replace(spec, engine_executor=self.engine_executor)
        return spec

    # ------------------------------------------------------------------ #
    def map(
        self, specs: Sequence[CellSpec | PartitionStatsSpec]
    ) -> list[CellOutcome]:
        """Run every spec; outcomes come back in submission order.

        The unit of dispatch is a batch of spec indices: a dataset group
        under ``shard_plan``, else a single cell.  Batches go to the pool
        when there is one to fill; whatever the pool has not accounted for
        — everything when ``jobs <= 1``, the unharvested rest after a
        worker died — runs in this process.
        """
        self._install()
        specs = [self._prepare(s) for s in specs]
        total = len(specs)
        results: list[Optional[CellOutcome]] = [None] * total
        if self.shard_plan:
            batches = self._shard_batches(specs)
        else:
            batches = [[i] for i in range(total)]
        done = 0

        def harvest(idxs, outs) -> None:
            nonlocal done
            for i, out in zip(idxs, outs if self.shard_plan else (outs,)):
                results[i] = out
                done += 1
                self._log_progress(done, total, out)

        if self.jobs > 1 and len(batches) > 1:
            try:
                self._map_pool(specs, batches, harvest)
            except BrokenProcessPool:
                log.warning(
                    "process pool broke (worker died); re-running %d of %d "
                    "cells serially (%d completed outcomes kept)",
                    total - done, total, done,
                )
                self._shutdown_pool()
        for idxs in batches:
            if results[idxs[0]] is None:  # a batch is harvested whole
                fn, arg = self._task(specs, idxs)
                harvest(idxs, fn(arg))
        return results  # type: ignore[return-value]

    def _task(self, specs, idxs: list[int]):
        """``(function, argument)`` that runs one batch: the group through
        ``run_task_batch`` (one graph open per worker) under
        ``shard_plan``, else the single cell through ``run_task``."""
        if self.shard_plan:
            return run_task_batch, [specs[i] for i in idxs]
        return run_task, specs[idxs[0]]

    def _shard_batches(self, specs) -> list[list[int]]:
        """Spec indices grouped by dataset, each group split into at most
        ``jobs`` contiguous sub-batches.

        One batch = one ``run_task_batch`` call = one graph open per
        worker.  When there are fewer datasets than workers, groups are
        split so the pool still fills; with many datasets each gets a
        single batch.  Deterministic: groups appear in first-submission
        order and indices stay in submission order within a batch.
        """
        groups: dict[str, list[int]] = {}
        for i, s in enumerate(specs):
            groups.setdefault(getattr(s, "dataset", ""), []).append(i)
        fan_out = 1
        if self.jobs > 1 and 0 < len(groups) < self.jobs:
            fan_out = max(1, self.jobs // len(groups))
        batches: list[list[int]] = []
        for idxs in groups.values():
            k = min(fan_out, len(idxs))
            size = (len(idxs) + k - 1) // k
            for j in range(0, len(idxs), size):
                batches.append(idxs[j : j + size])
        return batches

    def _map_pool(self, specs, batches: list[list[int]], harvest) -> None:
        """The one pool dispatch loop: submit every batch, ``harvest`` each
        as it completes, so finished outcomes survive a mid-sweep
        :class:`BrokenProcessPool` for the caller to keep."""
        pool = self._get_pool()
        batch_of = {
            pool.submit(*self._task(specs, idxs)): idxs for idxs in batches
        }
        pending = set(batch_of)
        broken: Optional[BrokenProcessPool] = None
        try:
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in finished:
                    try:
                        outs = fut.result()
                    except BrokenProcessPool as e:
                        # Keep draining: futures that completed before the
                        # break still hold results we must not discard.
                        broken = e
                        continue
                    harvest(batch_of[fut], outs)
        except BaseException:
            # A real bug (non-ReproError) escaped a cell: don't leave the
            # rest of the matrix running in orphaned workers.
            for fut in pending:
                fut.cancel()
            self._shutdown_pool()
            raise
        if broken is not None:
            raise broken

    @staticmethod
    def _log_progress(done: int, total: int, out: CellOutcome) -> None:
        status = "ok" if out.ok else out.failure_kind or "error"
        log.info(
            "[%d/%d] %s %s (%.1fs)", done, total, out.key, status, out.elapsed
        )


def run_cells(
    specs: Sequence[CellSpec | PartitionStatsSpec], executor=None
) -> list[CellOutcome]:
    """Every spec's outcome, in submission order: through ``executor``
    when the caller has a :class:`SweepExecutor`, else one
    :func:`run_task` after another in this process — the one place
    ``executor=None`` means serial."""
    if executor is not None:
        return executor.map(specs)
    return [run_task(s) for s in specs]
