"""Partition cache: in-memory LRU plus optional disk store.

The paper partitions each graph once per (policy, host count) and reuses
the partitions across every experiment (Section IV, footnote 2).  The
study harness previously re-partitioned per cell; this module memoizes
:class:`~repro.partition.base.PartitionedGraph` objects keyed by the
*content* of the graph plus ``(policy, num_partitions)``, so

* repeated cells in one process hit an in-memory LRU,
* parallel sweep workers (and later runs) hit a shared ``cache_dir`` of
  container files written with :mod:`repro.partition.io`.

``grid`` is not part of the key: every policy derives its grid
deterministically from ``num_partitions``, so it is implied by the key
and round-trips through the serialized file.
"""

from __future__ import annotations

import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from repro import obs
from repro.errors import GraphFormatError, PartitioningError
from repro.graph.csr import CSRGraph
from repro.partition.base import PartitionedGraph
from repro.partition.io import (
    load_partition_shards,
    load_partitions,
    save_partitions,
)

__all__ = [
    "CacheStats",
    "PartitionCache",
    "get_cache",
    "set_cache",
    "configure",
    "clear",
]

log = logging.getLogger("repro.partition.cache")

#: what a cache entry's file name ends in
_SUFFIX = ".parts"

#: a name ``benchmarks/perf/layers.py`` wraps; a spill has no layout of
#: its own, so every entry is written by :func:`save_partitions`
save_partition_shards = save_partitions


@dataclass
class CacheStats:
    """Counters for observing cache effectiveness (acceptance gate:
    a warm second sweep must show ``builds == 0``).  Each field is also
    the ambient tracer's ``partition.cache.<field>`` counter; both move
    in :meth:`PartitionCache._bump` and nowhere else."""

    memory_hits: int = 0
    disk_hits: int = 0
    builds: int = 0
    stores: int = 0
    #: always 0: the disk store evicts nothing.  Kept, in its place, for
    #: readers that build or read ``CacheStats`` positionally
    pruned: int = 0
    #: disk entries that could not be read (rebuilt and stored over)
    discarded: int = 0

    def snapshot(self) -> "CacheStats":
        return replace(self)


@dataclass
class PartitionCache:
    """LRU of partitionings, optionally backed by a directory of files.

    Thread-safe for concurrent lookups; a build that races another thread
    on the same key may run twice (both results are identical, last one
    wins in the LRU), which keeps the lock off the expensive build path.
    """

    max_entries: int = 64
    cache_dir: str | None = None
    #: load disk entries as read-only memmap views instead of reading them
    #: into RAM (the out-of-core sweep path); the file is the same either way
    spill_shards: bool = False
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._lru: OrderedDict[tuple, PartitionedGraph] = OrderedDict()
        self._lock = threading.Lock()
        if self.cache_dir:
            os.makedirs(self.cache_dir, exist_ok=True)

    # ------------------------------------------------------------------ #
    @staticmethod
    def key_for(
        graph: CSRGraph, policy: str, num_partitions: int
    ) -> tuple[str, str, int]:
        return (graph.content_hash(), policy, num_partitions)

    def _disk_path(self, key: tuple[str, str, int]) -> str | None:
        if not self.cache_dir:
            return None
        h, policy, P = key
        return os.path.join(self.cache_dir, f"{h[:16]}_{policy}_{P}{_SUFFIX}")

    def _bump(self, name: str) -> None:
        """Count one cache fact: ``stats.<name>`` and the ambient tracer's
        ``partition.cache.<name>`` move together, here and nowhere else."""
        setattr(self.stats, name, getattr(self.stats, name) + 1)
        obs.current_tracer().count(f"partition.cache.{name}")

    # ------------------------------------------------------------------ #
    def _probe(
        self, graph: CSRGraph, key: tuple[str, str, int]
    ) -> PartitionedGraph | None:
        """The one memory-then-disk probe under :meth:`lookup_or_build`
        and :meth:`get`: the cached partitioning for ``key``, or ``None``.

        A disk hit is promoted into memory.  An entry that cannot be read is a miss, never an error — the cache is
        best-effort — but it is a *reported* miss: a log line, the
        ``cache.disk_load`` span's ``outcome`` and a counter say which.
        "Cannot be read" is what the loader raises for a damaged, foreign
        or mismatched file and what the OS raises; anything else is a bug
        in the loader and propagates — swallowed, it would rebuild every
        partition on every warm run with ``builds`` as the only symptom.
        """
        tracer = obs.current_tracer()
        tr_args = {"policy": key[1], "num_partitions": key[2]}
        with self._lock:
            pg = self._lru.get(key)
            if pg is not None:
                self._lru.move_to_end(key)
                self._bump("memory_hits")
                tracer.instant("cache.memory_hit", "cache", args=tr_args)
                return pg
        path = self._disk_path(key)
        if not path or not os.path.exists(path):
            return None
        ev = tracer.begin("cache.disk_load", "cache", args=tr_args)
        outcome = "hit"
        try:
            if self.spill_shards:
                pg = load_partition_shards(path, graph)
            else:
                pg = load_partitions(path, graph)
        except FileNotFoundError:
            # something outside the cache removed the entry (or its whole
            # directory) between the existence check and the load: an
            # ordinary miss, not corruption
            outcome = "vanished"
            log.debug("cache entry %s vanished mid-load", path)
        except (OSError, GraphFormatError, PartitioningError) as e:
            outcome = "corrupt"  # the caller rebuilds and stores over it
            log.warning("discarding unreadable cache file %s: %s", path, e)
            self._bump("discarded")
        else:
            self._bump("disk_hits")
            self._remember(key, pg)
        tracer.end(ev, outcome=outcome)
        return pg

    def lookup_or_build(
        self, graph: CSRGraph, policy: str, num_partitions: int, builder
    ) -> PartitionedGraph:
        """Return a cached partitioning or build (and cache) a fresh one.

        ``builder`` is called as ``builder(graph, num_partitions)`` only on
        a full miss.
        """
        key = self.key_for(graph, policy, num_partitions)
        pg = self._probe(graph, key)
        if pg is not None:
            return pg
        tracer = obs.current_tracer()
        ev = tracer.begin(
            "cache.build", "cache",
            args={"policy": policy, "num_partitions": num_partitions},
        )
        pg = builder(graph, num_partitions)
        tracer.end(ev)
        self._bump("builds")
        self._remember(key, pg)
        path = self._disk_path(key)
        if path:
            self._store(path, pg)
        return pg

    def get(
        self, graph: CSRGraph, policy: str, num_partitions: int
    ) -> PartitionedGraph | None:
        """Peek: the cached partitioning for the key, or ``None``.

        Checks the in-memory LRU first, then the disk store (a hit is
        promoted into memory).  Never builds.
        """
        return self._probe(graph, self.key_for(graph, policy, num_partitions))

    def put(
        self, graph: CSRGraph, policy: str, num_partitions: int,
        pg: PartitionedGraph,
    ) -> None:
        """Install an externally built partitioning under the cache key.

        The serve layer's repartition-vs-patch path builds patched
        partitionings out-of-band (reusing the previous vertex-owner
        assignment) and plants them here so the next engine run picks
        them up as a hit instead of re-partitioning from scratch.
        """
        key = self.key_for(graph, policy, num_partitions)
        self._remember(key, pg)
        path = self._disk_path(key)
        if path:
            self._store(path, pg)

    def _remember(self, key: tuple, pg: PartitionedGraph) -> None:
        with self._lock:
            self._lru[key] = pg
            self._lru.move_to_end(key)
            while len(self._lru) > self.max_entries:
                self._lru.popitem(last=False)

    def _store(self, path: str, pg: PartitionedGraph) -> None:
        """Persist ``pg`` (the writer is atomic: tmp file, then replace)."""
        tracer = obs.current_tracer()
        ev = tracer.begin("cache.store", "cache")
        try:
            save_partitions(pg, path)
        except OSError as e:  # disk full / permissions: cache is best-effort
            log.warning("could not persist partitions to %s: %s", path, e)
            tracer.end(ev, outcome="failed")
            return
        tracer.end(ev, outcome="stored")
        self._bump("stores")

    # ------------------------------------------------------------------ #
    def clear_memory(self) -> None:
        with self._lock:
            self._lru.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)


# ---------------------------------------------------------------------- #
# process-global instance (what repro.partition.partition() uses)
# ---------------------------------------------------------------------- #
_global_cache = PartitionCache()


def get_cache() -> PartitionCache:
    """The process-wide cache used by :func:`repro.partition.partition`."""
    return _global_cache


def configure(
    cache_dir: str | None = None, spill_shards: bool = False
) -> PartitionCache:
    """Reconfigure the global cache (keeps accumulated stats at zero).

    Called by the sweep runtime's worker initializer so every worker in a
    pool shares one on-disk store.  ``spill_shards`` loads disk entries as
    memmap views instead of into RAM (the out-of-core path); it does not
    change what is written.
    """
    global _global_cache
    _global_cache = PartitionCache(cache_dir=cache_dir, spill_shards=spill_shards)
    return _global_cache


def set_cache(cache: PartitionCache) -> None:
    """Install ``cache`` as the process-wide cache (how a scope that
    called :func:`configure` puts back the object it found)."""
    global _global_cache
    _global_cache = cache


def clear() -> None:
    """Drop in-memory entries and reset counters (disk files survive)."""
    _global_cache.clear_memory()
    _global_cache.stats = CacheStats()
