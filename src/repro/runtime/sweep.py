"""The sweep executor: fan study cells out over a process pool.

Cells are independent (each loads its dataset, partitions via the shared
partition cache, and runs one engine), so the sweep is embarrassingly
parallel.  The executor preserves the *submission order* of results —
drivers iterate outcomes exactly as they would have iterated their
nested loops — while completing cells in any order underneath.

Worker processes are initialized once with the sweep's partition cache
directory (and trace directory, when tracing is on); combined with the
dataset loader's memo of generated stand-ins and the in-memory partition
LRU, a worker that draws many cells of one generated dataset loads and
partitions it once.  A ``store+ram:`` / ``store+mmap:`` dataset is opened
by every cell that names it (a path names a file, not a graph), and its
partitioning comes back from the shared disk tier.  With the (default,
where available) ``fork`` start method, workers also inherit every
dataset and partition already warm in the parent.

A partitioning leaves RAM after the last cell of a ``map`` that reads
it, when the cache has it on disk: the memory tier holds what pending
cells still read, not every partitioning the sweep built (up to the
LRU's 64), and a later ``map`` reads a released one back from disk.

The unit of dispatch is one cell: one :func:`~repro.runtime.cells.run_task`
call, which meters the cell's peak RSS itself (``--progress`` logs it).

``jobs == 1`` runs everything serially in-process (no pool, identical
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
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.runtime.cells import (
    CellOutcome,
    CellSpec,
    PartitionStatsSpec,
    partitioning_of,
    run_task,
)

__all__ = ["SweepExecutor", "default_start_method", "run_cells"]

log = logging.getLogger("repro.runtime.sweep")


def default_start_method() -> str:
    """``fork`` where available (cheap, inherits warm caches), else the
    platform default; ``SweepExecutor(start_method=)`` overrides."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method()


def _worker_init(
    cache_dir: Optional[str],
    trace_dir: Optional[str] = None,
    check=None,
    spill_shards: bool = False,
) -> list:
    """Install the sweep's process-wide state; returns one ``(setter,
    previous)`` pair per piece it replaced — the objects it found, for
    :meth:`SweepExecutor.close` to put back (a pool worker never does).
    One that raises (a directory that names a file) has put them back."""
    from repro import obs
    from repro.check import set_check_level
    from repro.partition import cache as partition_cache

    replaced = []
    try:
        cache = partition_cache.get_cache()
        if cache_dir is not None and (
            cache.cache_dir != cache_dir or cache.spill_shards != spill_shards
        ):
            partition_cache.configure(cache_dir=cache_dir, spill_shards=spill_shards)
            replaced.append((partition_cache.set_cache, cache))
        found_dir = obs.active_trace_dir()
        if trace_dir is not None and found_dir != trace_dir:
            obs.configure(trace_dir=trace_dir)
            replaced.append((obs.configure, found_dir))
        if check is not None:
            replaced.append((set_check_level, set_check_level(check)))
    except BaseException:
        for restore, found in reversed(replaced):
            restore(found)
        raise
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
        worker processes, at least 1; 1 means serial in-process execution
        (anything below raises :class:`~repro.errors.ConfigurationError`).
    cache_dir:
        partition-cache directory shared by the parent and every worker
        (``None`` keeps the cache in-memory-only per process).
    engine_executor:
        compatibility keyword: ``"serial"`` is the only value, since a
        cell's compute phase is one loop over its partitions; anything
        else raises :class:`~repro.errors.ConfigurationError`.
    trace_dir:
        when set, every cell writes a Chrome trace JSON here (see
        :mod:`repro.obs`); workers inherit the setting through the pool
        initializer.
    check:
        runtime invariant-checking level (``"off"``/``"cheap"``/``"full"``
        or a :class:`~repro.check.CheckLevel`); installed as the ambient
        level in the parent and every worker.  ``None`` leaves whatever
        level is already ambient untouched.
    spill_shards:
        forwarded to :func:`repro.partition.cache.configure` in the
        parent and every worker: disk entries load as read-only memmap
        views instead of into RAM (the out-of-core path).  The file
        written is the same either way.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        engine_executor: str = "serial",
        start_method: Optional[str] = None,
        trace_dir: Optional[str] = None,
        check=None,
        spill_shards: bool = False,
    ):
        if engine_executor != "serial":
            raise ConfigurationError(
                f"engine_executor must be 'serial', got {engine_executor!r}"
            )
        self.jobs = int(jobs)
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.cache_dir = cache_dir
        self.start_method = start_method or default_start_method()
        self.trace_dir = None if trace_dir is None else str(trace_dir)
        if check is not None:
            from repro.check import parse_check_level

            check = parse_check_level(check)
        self.check = check
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
                self.cache_dir, self.trace_dir, self.check, self.spill_shards
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

        ``cancel_futures=True`` drops queued-but-unstarted cells so
        ``__exit__`` on an exception path does not hang behind work
        nobody will consume.  ``close()`` after
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
                    self.cache_dir, self.trace_dir, self.check, self.spill_shards
                ),
            )
        return self._pool

    # ------------------------------------------------------------------ #
    def map(
        self, specs: Sequence[CellSpec | PartitionStatsSpec]
    ) -> list[CellOutcome]:
        """Run every spec; outcomes come back in submission order.

        The unit of dispatch is one cell.  Cells go to the pool when there
        is one to fill; whatever the pool has not accounted for —
        everything when ``jobs == 1``, the unharvested rest after a worker
        died — runs in this process.

        The last spec that reads each partitioning
        (:func:`~repro.runtime.cells.partitioning_of`) runs with
        ``release=True``, on either path: a sweep holds a partitioning in
        RAM only until its last cell, when the cache has it on disk.
        """
        self._install()
        specs = list(specs)
        total = len(specs)
        last = {partitioning_of(spec): i for i, spec in enumerate(specs)}
        last.pop(None, None)
        releases = set(last.values())
        results: list[Optional[CellOutcome]] = [None] * total
        done = 0

        def harvest(i: int, out: CellOutcome) -> None:
            nonlocal done
            results[i] = out
            done += 1
            self._log_progress(done, total, out)

        if self.jobs > 1 and total > 1:
            try:
                self._map_pool(specs, releases, harvest)
            except BrokenProcessPool:
                log.warning(
                    "process pool broke (worker died); re-running %d of %d "
                    "cells serially (%d completed outcomes kept)",
                    total - done, total, done,
                )
                self._shutdown_pool()
        for i, spec in enumerate(specs):
            if results[i] is None:
                harvest(i, run_task(spec, i in releases))
        return results  # type: ignore[return-value]

    def _map_pool(self, specs, releases, harvest) -> None:
        """The one pool dispatch loop: submit every cell (those indexed in
        ``releases`` with ``release=True``), ``harvest`` each as it
        completes, so finished outcomes survive a mid-sweep
        :class:`BrokenProcessPool` for the caller to keep."""
        pool = self._get_pool()
        index_of = {
            pool.submit(run_task, spec, i in releases): i
            for i, spec in enumerate(specs)
        }
        pending = set(index_of)
        broken: Optional[BrokenProcessPool] = None
        try:
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in finished:
                    try:
                        out = fut.result()
                    except BrokenProcessPool as e:
                        # Keep draining: futures that completed before the
                        # break still hold results we must not discard.
                        broken = e
                        continue
                    harvest(index_of[fut], out)
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
        rss_mib = out.extra["rss"]["peak_increment_bytes"] / 2**20
        log.info(
            "[%d/%d] %s %s (%.1fs, %.1f MiB)",
            done, total, out.key, status, out.elapsed, rss_mib,
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
