"""Tests for the content-hash partition cache (memory LRU + disk store)."""

import dataclasses
import logging
import os

import numpy as np
import pytest

from repro.generators import rmat
from repro.graph import from_edges
from repro.obs import Tracer, use_tracer
from repro.partition import partition
from repro.partition.cache import (
    CacheStats,
    PartitionCache,
    clear,
    configure,
    get_cache,
)
from repro.partition.cusp import POLICIES


@pytest.fixture(scope="module")
def g():
    return rmat(8, edge_factor=8, seed=5)


@pytest.fixture
def restore_global_cache():
    """Leave the process-wide cache as other tests expect it (in-memory
    only); ``configure`` also zeroes the accumulated stats."""
    yield
    configure(cache_dir=None)


def _counting_builder(policy):
    calls = []

    def builder(graph, num_partitions):
        calls.append((policy, num_partitions))
        return POLICIES[policy](graph, num_partitions)

    return builder, calls


def _outcomes(tracer, span_name):
    """The ``outcome`` arg of every recorded ``span_name`` span, in order."""
    return [
        e["args"]["outcome"] for e in tracer.events() if e["name"] == span_name
    ]


def _assert_partitions_equal(a, b):
    assert a.policy == b.policy
    assert a.grid == b.grid
    np.testing.assert_array_equal(a.vertex_owner, b.vertex_owner)
    assert len(a.parts) == len(b.parts)
    for pa, pb in zip(a.parts, b.parts):
        assert pa.pid == pb.pid
        np.testing.assert_array_equal(pa.local_to_global, pb.local_to_global)
        np.testing.assert_array_equal(pa.global_to_local, pb.global_to_local)
        np.testing.assert_array_equal(pa.is_master, pb.is_master)
        np.testing.assert_array_equal(pa.graph.indptr, pb.graph.indptr)
        np.testing.assert_array_equal(pa.graph.indices, pb.graph.indices)
        for ea, eb in zip(pa.mirror_exchange, pb.mirror_exchange):
            np.testing.assert_array_equal(ea, eb)
        for ea, eb in zip(pa.master_exchange, pb.master_exchange):
            np.testing.assert_array_equal(ea, eb)


class TestMemoryLRU:
    def test_second_lookup_hits_memory(self, g):
        cache = PartitionCache()
        builder, calls = _counting_builder("oec")
        p1 = cache.lookup_or_build(g, "oec", 4, builder)
        p2 = cache.lookup_or_build(g, "oec", 4, builder)
        assert p1 is p2
        assert calls == [("oec", 4)]
        assert cache.stats.builds == 1
        assert cache.stats.memory_hits == 1

    def test_distinct_keys_do_not_collide(self, g):
        cache = PartitionCache()
        builder, calls = _counting_builder("oec")
        cache.lookup_or_build(g, "oec", 2, builder)
        cache.lookup_or_build(g, "oec", 4, builder)
        assert calls == [("oec", 2), ("oec", 4)]
        assert len(cache) == 2

    def test_lru_evicts_oldest(self, g):
        cache = PartitionCache(max_entries=2)
        builder, calls = _counting_builder("oec")
        for parts in (2, 3, 4):
            cache.lookup_or_build(g, "oec", parts, builder)
        assert len(cache) == 2
        # the first key was evicted, so it rebuilds; the last two do not
        cache.lookup_or_build(g, "oec", 2, builder)
        cache.lookup_or_build(g, "oec", 4, builder)
        assert calls == [("oec", p) for p in (2, 3, 4, 2)]

    def test_content_hash_keying(self, g):
        # a graph rebuilt from the same edges has the same key; a graph
        # with one extra edge does not
        src, dst = [0, 1, 2, 2], [1, 2, 0, 3]
        g1 = from_edges(src, dst, num_vertices=4)
        g2 = from_edges(src, dst, num_vertices=4)
        g3 = from_edges(src + [3], dst + [0], num_vertices=4)
        assert PartitionCache.key_for(g1, "oec", 2) == PartitionCache.key_for(
            g2, "oec", 2
        )
        assert PartitionCache.key_for(g1, "oec", 2) != PartitionCache.key_for(
            g3, "oec", 2
        )


class TestDiskStore:
    def test_round_trip(self, g, tmp_path):
        store = str(tmp_path / "pcache")
        writer = PartitionCache(cache_dir=store)
        builder, calls = _counting_builder("cvc")
        built = writer.lookup_or_build(g, "cvc", 4, builder)
        assert writer.stats.stores == 1

        # a fresh cache (fresh process, conceptually) loads from disk
        reader = PartitionCache(cache_dir=store)
        loaded = reader.lookup_or_build(g, "cvc", 4, builder)
        assert calls == [("cvc", 4)]
        assert reader.stats.builds == 0
        assert reader.stats.disk_hits == 1
        loaded.validate()
        _assert_partitions_equal(built, loaded)

    def test_corrupt_file_rebuilds(self, g, tmp_path):
        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store)
        builder, calls = _counting_builder("oec")
        cache.lookup_or_build(g, "oec", 4, builder)

        path = cache._disk_path(PartitionCache.key_for(g, "oec", 4))
        with open(path, "wb") as f:
            f.write(b"not an npz file")

        fresh = PartitionCache(cache_dir=store)
        pg = fresh.lookup_or_build(g, "oec", 4, builder)
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.builds == 1
        pg.validate()

    def test_store_failure_is_best_effort(self, g, tmp_path, monkeypatch):
        cache = PartitionCache(cache_dir=str(tmp_path / "pcache"))

        def boom(*a, **kw):
            raise OSError("disk full")

        monkeypatch.setattr("repro.partition.cache.tempfile.mkstemp", boom)
        builder, _ = _counting_builder("oec")
        tracer = Tracer()
        with use_tracer(tracer):
            pg = cache.lookup_or_build(g, "oec", 2, builder)  # must not raise
        pg.validate()
        assert cache.stats.stores == 0
        # the time spent on the failed write still leaves an event
        assert _outcomes(tracer, "cache.store") == ["failed"]
        assert tracer.counters.get("partition.cache.stores") == 0


class TestGlobalCache:
    def test_partition_uses_global_cache(self, g, restore_global_cache):
        configure(cache_dir=None)
        p1 = partition(g, "iec", 4)
        p2 = partition(g, "iec", 4)
        assert p1 is p2
        assert get_cache().stats.memory_hits >= 1

    def test_cache_false_bypasses(self, g, restore_global_cache):
        configure(cache_dir=None)
        p1 = partition(g, "iec", 4, cache=False)
        p2 = partition(g, "iec", 4, cache=False)
        assert p1 is not p2
        assert get_cache().stats.builds == 0
        assert len(get_cache()) == 0

    def test_configure_sets_disk_store(self, g, tmp_path, restore_global_cache):
        configure(cache_dir=str(tmp_path / "store"))
        partition(g, "oec", 2)
        assert get_cache().stats.stores == 1
        assert any((tmp_path / "store").iterdir())

    def test_clear_resets_counters(self, g, restore_global_cache):
        configure(cache_dir=None)
        partition(g, "oec", 2)
        assert get_cache().stats.builds == 1
        clear()
        assert len(get_cache()) == 0
        assert get_cache().stats.builds == 0


class TestShardSpill:
    def test_shard_round_trip(self, g, tmp_path):
        store = str(tmp_path / "pcache")
        writer = PartitionCache(cache_dir=store, spill_shards=True)
        builder, calls = _counting_builder("iec")
        built = writer.lookup_or_build(g, "iec", 4, builder)
        path = writer._disk_path(PartitionCache.key_for(g, "iec", 4))
        assert path.endswith(".shards")
        assert os.path.isdir(path)

        reader = PartitionCache(cache_dir=store, spill_shards=True)
        loaded = reader.lookup_or_build(g, "iec", 4, builder)
        assert calls == [("iec", 4)]
        assert reader.stats.disk_hits == 1
        loaded.validate()
        _assert_partitions_equal(built, loaded)

    def test_shard_formats_do_not_collide(self, g, tmp_path):
        """A shard cache and an npz cache in the same directory address
        different entries, so flipping the flag never misloads."""
        store = str(tmp_path / "pcache")
        builder, calls = _counting_builder("iec")
        PartitionCache(cache_dir=store, spill_shards=True).lookup_or_build(
            g, "iec", 2, builder
        )
        PartitionCache(cache_dir=store).lookup_or_build(g, "iec", 2, builder)
        assert len(calls) == 2

    def test_corrupt_shard_dir_rebuilds(self, g, tmp_path):
        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store, spill_shards=True)
        builder, _ = _counting_builder("iec")
        cache.lookup_or_build(g, "iec", 2, builder)
        path = cache._disk_path(PartitionCache.key_for(g, "iec", 2))
        for name in os.listdir(path):
            os.unlink(os.path.join(path, name))

        fresh = PartitionCache(cache_dir=store, spill_shards=True)
        pg = fresh.lookup_or_build(g, "iec", 2, builder)
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.builds == 1
        pg.validate()


class TestDiskByteCap:
    def _entry(self, cache, g, parts):
        return cache._disk_path(PartitionCache.key_for(g, "oec", parts))

    def test_lru_prune_evicts_oldest(self, g, tmp_path):
        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store)
        builder, _ = _counting_builder("oec")
        cache.lookup_or_build(g, "oec", 2, builder)
        cache.lookup_or_build(g, "oec", 4, builder)
        first = self._entry(cache, g, 2)
        second = self._entry(cache, g, 4)
        # budget: the recently-used entry fits, the stale one does not
        cache.max_disk_bytes = os.path.getsize(second) + 64
        os.utime(first, (1, 1))  # unambiguously least recently used
        cache._prune_disk()
        assert not os.path.exists(first)
        assert os.path.exists(second)
        assert cache.stats.pruned == 1

    def test_disk_hit_refreshes_recency(self, g, tmp_path):
        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store)
        builder, _ = _counting_builder("oec")
        cache.lookup_or_build(g, "oec", 2, builder)
        first = self._entry(cache, g, 2)
        os.utime(first, (1, 1))
        # a fresh cache's disk hit touches the entry back to "now"
        warm = PartitionCache(cache_dir=store)
        warm.lookup_or_build(g, "oec", 2, builder)
        assert os.path.getmtime(first) > 1

    def test_unbounded_cache_never_prunes(self, g, tmp_path):
        cache = PartitionCache(cache_dir=str(tmp_path / "pcache"))
        builder, _ = _counting_builder("oec")
        cache.lookup_or_build(g, "oec", 2, builder)
        cache.lookup_or_build(g, "oec", 4, builder)
        assert cache.stats.pruned == 0
        assert os.path.exists(self._entry(cache, g, 2))
        assert os.path.exists(self._entry(cache, g, 4))


class TestCoarseClockRecency:
    """Disk-LRU recency on coarse-mtime filesystems.

    A refresh that lands on the *same* timestamp as a stale sibling must
    still outrank it.  Pre-fix, the prune walk sorted purely by mtime and
    broke ties by name, so a just-refreshed entry whose name sorted first
    was evicted ahead of the genuinely stale one.  The injected frozen
    clock is the worst possible coarseness: time never advances at all.
    """

    def test_refresh_survives_prune_despite_frozen_clock(self, g, tmp_path):
        frozen = 1_000_000.0
        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store, clock=lambda: frozen)
        builder, _ = _counting_builder("oec")
        cache.lookup_or_build(g, "oec", 2, builder)
        cache.lookup_or_build(g, "oec", 4, builder)
        paths = {
            parts: cache._disk_path(PartitionCache.key_for(g, "oec", parts))
            for parts in (2, 4)
        }
        for p in paths.values():
            assert os.path.getmtime(p) == frozen  # both stores tied
        # refresh whichever entry the name tiebreak would evict first, so
        # a recency-blind sort provably picks the wrong victim
        hot_parts = min(paths, key=lambda k: os.path.basename(paths[k]))
        refreshed = paths[hot_parts]
        stale = paths[4 if hot_parts == 2 else 2]
        cache.clear_memory()
        assert cache.get(g, "oec", hot_parts) is not None  # disk hit
        assert os.path.getmtime(refreshed) > frozen  # strictly advanced
        cache.max_disk_bytes = os.path.getsize(refreshed) + 64
        cache._prune_disk()
        assert os.path.exists(refreshed)
        assert not os.path.exists(stale)
        assert cache.stats.pruned == 1

    def test_touch_strictly_advances_past_ties(self, g, tmp_path):
        frozen = 500.0
        cache = PartitionCache(
            cache_dir=str(tmp_path / "pcache"), clock=lambda: frozen
        )
        builder, _ = _counting_builder("oec")
        cache.lookup_or_build(g, "oec", 2, builder)
        path = cache._disk_path(PartitionCache.key_for(g, "oec", 2))
        assert os.path.getmtime(path) == frozen
        cache._touch(path)
        first = os.path.getmtime(path)
        cache._touch(path)
        assert first > frozen
        assert os.path.getmtime(path) > first


class TestConcurrentEvictionRaces:
    """A sibling worker can evict shared-store entries at any moment;
    every disk probe must degrade to a miss, never an exception."""

    def _warm(self, g, tmp_path):
        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store)
        builder, calls = _counting_builder("oec")
        cache.lookup_or_build(g, "oec", 2, builder)
        path = cache._disk_path(PartitionCache.key_for(g, "oec", 2))
        return cache, builder, calls, path

    def test_entry_vanishing_mid_load_is_a_clean_miss(
        self, g, tmp_path, monkeypatch
    ):
        cache, builder, calls, path = self._warm(g, tmp_path)
        cache.clear_memory()

        import repro.partition.cache as mod

        def vanishing_load(p, graph):
            os.unlink(path)  # the sibling's prune wins the race
            raise FileNotFoundError(p)

        monkeypatch.setattr(mod, "load_partitions", vanishing_load)
        tracer = Tracer()
        with use_tracer(tracer):
            pg = cache.lookup_or_build(g, "oec", 2, builder)
        assert pg is not None
        assert len(calls) == 2  # rebuilt, not crashed
        assert _outcomes(tracer, "cache.disk_load") == ["vanished"]
        assert tracer.counters.get("partition.cache.discarded") == 0

    def test_prune_skips_entry_deleted_mid_walk(
        self, g, tmp_path, monkeypatch
    ):
        cache, builder, _, path = self._warm(g, tmp_path)
        cache.lookup_or_build(g, "oec", 4, builder)
        cache.max_disk_bytes = 1  # everything is over budget

        real_getmtime = os.path.getmtime

        def racing_getmtime(p):
            if p == path and os.path.exists(p):
                os.unlink(p)  # sibling evicts it between listdir and stat
            return real_getmtime(p)

        monkeypatch.setattr(os.path, "getmtime", racing_getmtime)
        cache._prune_disk()  # must not raise
        assert not os.path.exists(path)

    def test_entry_nbytes_of_vanished_entry_is_zero(self, tmp_path):
        assert PartitionCache._entry_nbytes(str(tmp_path / "gone.npz")) == 0

    def test_prune_survives_cache_dir_removal(self, g, tmp_path):
        import shutil

        cache, _, _, _ = self._warm(g, tmp_path)
        cache.max_disk_bytes = 1
        shutil.rmtree(cache.cache_dir)
        cache._prune_disk()  # must not raise


class TestPutGet:
    def test_get_returns_none_on_cold_cache(self, g):
        assert PartitionCache().get(g, "oec", 2) is None

    def test_put_then_get_round_trips(self, g, tmp_path):
        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store)
        pg = POLICIES["oec"](g, 2)
        cache.put(g, "oec", 2, pg)
        assert cache.get(g, "oec", 2) is pg  # memory hit
        # a sibling cache sees it through the shared disk store
        warm = PartitionCache(cache_dir=store)
        _assert_partitions_equal(warm.get(g, "oec", 2), pg)
        assert warm.stats.disk_hits == 1

    def test_planted_entry_preempts_the_builder(self, g, tmp_path):
        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store)
        pg = POLICIES["oec"](g, 2)
        cache.put(g, "oec", 2, pg)
        builder, calls = _counting_builder("oec")
        got = cache.lookup_or_build(g, "oec", 2, builder)
        assert got is pg
        assert calls == []  # the serve patch path short-circuits builds

    def test_get_touches_disk_recency(self, g, tmp_path):
        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store)
        pg = POLICIES["oec"](g, 2)
        cache.put(g, "oec", 2, pg)
        path = cache._disk_path(PartitionCache.key_for(g, "oec", 2))
        os.utime(path, (1, 1))
        warm = PartitionCache(cache_dir=store)
        warm.get(g, "oec", 2)
        assert os.path.getmtime(path) > 1


class TestOneProbe:
    """``get`` and ``lookup_or_build`` share one memory-then-disk probe:
    the same counters, the same warnings, the same spans."""

    def test_tracer_counters_equal_cache_stats(self, g, tmp_path):
        cache = PartitionCache(cache_dir=str(tmp_path / "pcache"))
        builder, _ = _counting_builder("oec")
        tracer = Tracer()
        with use_tracer(tracer):
            assert cache.get(g, "oec", 2) is None
            cache.lookup_or_build(g, "oec", 2, builder)  # build + store
            cache.get(g, "oec", 2)  # memory hit
            cache.put(g, "cvc", 2, POLICIES["cvc"](g, 2))  # store
            cache.clear_memory()
            cache.get(g, "cvc", 2)  # disk hit
            cache.lookup_or_build(g, "oec", 2, builder)  # disk hit
            cache.lookup_or_build(g, "oec", 2, builder)  # memory hit
        assert cache.stats == CacheStats(
            memory_hits=2, disk_hits=2, builds=1, stores=2
        )
        counted = {
            f.name: tracer.counters.get(f"partition.cache.{f.name}")
            for f in dataclasses.fields(CacheStats)
        }
        assert counted == dataclasses.asdict(cache.stats)

    @pytest.mark.parametrize("spill_shards", [False, True])
    def test_truncated_entry_is_a_reported_miss(
        self, g, tmp_path, caplog, spill_shards
    ):
        store = str(tmp_path / "pcache")
        PartitionCache(cache_dir=store, spill_shards=spill_shards).put(
            g, "oec", 2, POLICIES["oec"](g, 2)
        )
        cache = PartitionCache(cache_dir=store, spill_shards=spill_shards)
        path = cache._disk_path(PartitionCache.key_for(g, "oec", 2))
        victim = os.path.join(path, "owner.npy") if spill_shards else path
        os.truncate(victim, os.path.getsize(victim) // 2)

        builder, calls = _counting_builder("oec")
        tracer = Tracer()
        with use_tracer(tracer), caplog.at_level(
            logging.WARNING, logger="repro.partition.cache"
        ):
            assert cache.get(g, "oec", 2) is None
            cache.lookup_or_build(g, "oec", 2, builder).validate()  # rebuilt
            cache.clear_memory()
            assert cache.get(g, "oec", 2) is not None  # and stored again
        assert calls == [("oec", 2)]
        # both entry points end the load span and say what happened
        assert _outcomes(tracer, "cache.disk_load") == ["corrupt", "corrupt", "hit"]
        assert tracer.counters.get("partition.cache.discarded") == 2
        assert tracer.counters.get("partition.cache.disk_hits") == 1
        warned = [
            r for r in caplog.records
            if "discarding unreadable cache file" in r.getMessage()
        ]
        assert len(warned) == 2
