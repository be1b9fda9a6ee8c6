"""Tests for the content-hash partition cache (memory LRU + disk store)."""

import dataclasses
import logging
import os
import shutil
import tempfile

import numpy as np
import pytest

from repro.check import CheckLevel, check_partition
from repro.errors import GraphFormatError
from repro.fuzz import SHAPES, build_shape
from repro.generators import rmat
from repro.graph import add_random_weights, from_edges
from repro.graph.container import ContainerWriter, read_header
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
from repro.partition.io import _FORMAT
from tests.test_partition_golden import inputs as golden_inputs
from tests.test_partition_io import assert_same_partitioning


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
        check_partition(loaded, CheckLevel.CHEAP)
        assert_same_partitioning(built, loaded)

    def test_a_released_entry_comes_back_from_disk(self, g, tmp_path):
        cache = PartitionCache(cache_dir=str(tmp_path / "pcache"))
        builder, calls = _counting_builder("oec")
        built = cache.lookup_or_build(g, "oec", 4, builder)
        key = PartitionCache.key_for(g, "oec", 4)
        cache.release(key)
        cache.release(key)  # not in memory any more: a no-op
        assert len(cache) == 0 and cache.stats.released == 1
        assert_same_partitioning(built, cache.lookup_or_build(g, "oec", 4, builder))
        assert calls == [("oec", 4)] and cache.stats.disk_hits == 1

    def test_an_entry_without_its_file_is_not_released(self, g, tmp_path):
        cache = PartitionCache(cache_dir=str(tmp_path / "pcache"))
        builder, _ = _counting_builder("oec")
        cache.lookup_or_build(g, "oec", 4, builder)
        key = PartitionCache.key_for(g, "oec", 4)
        os.remove(cache._disk_path(key))
        cache.release(key)  # a later need would rebuild: keep it
        assert len(cache) == 1 and cache.stats.released == 0

    def test_corrupt_file_rebuilds(self, g, tmp_path):
        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store)
        builder, calls = _counting_builder("oec")
        cache.lookup_or_build(g, "oec", 4, builder)

        path = cache._disk_path(PartitionCache.key_for(g, "oec", 4))
        with open(path, "wb") as f:
            f.write(b"not a partition container")

        fresh = PartitionCache(cache_dir=store)
        pg = fresh.lookup_or_build(g, "oec", 4, builder)
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.builds == 1
        check_partition(pg, CheckLevel.CHEAP)

    def test_store_failure_is_best_effort(self, g, tmp_path, monkeypatch):
        cache = PartitionCache(cache_dir=str(tmp_path / "pcache"))

        def boom(*a, **kw):
            raise OSError("disk full")

        monkeypatch.setattr(tempfile, "mkstemp", boom)
        builder, _ = _counting_builder("oec")
        tracer = Tracer()
        with use_tracer(tracer):
            pg = cache.lookup_or_build(g, "oec", 2, builder)  # must not raise
        check_partition(pg, CheckLevel.CHEAP)
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
        # a spill is the same one file per entry as a RAM entry
        assert os.listdir(store) == [os.path.basename(path)]
        assert "g2l" not in read_header(path, _FORMAT)["sections"]

        reader = PartitionCache(cache_dir=store, spill_shards=True)
        loaded = reader.lookup_or_build(g, "iec", 4, builder)
        assert calls == [("iec", 4)]
        assert reader.stats.disk_hits == 1
        check_partition(loaded, CheckLevel.CHEAP)
        assert_same_partitioning(built, loaded)
        for part in loaded.parts:  # served from the file, not from RAM
            assert isinstance(part.local_to_global.base, np.memmap)
            assert isinstance(part.graph.indices.base, np.memmap)

    def test_shard_formats_do_not_collide(self, g, tmp_path):
        """A spill cache and a RAM cache in the same directory address the
        same entry, and flipping the flag never rebuilds: there is one
        layout, so an entry either cache wrote loads in the other mode as
        it is — a RAM-written entry memmap-loads with nothing rebuilt in
        anonymous memory."""
        store = str(tmp_path / "pcache")
        builder, calls = _counting_builder("iec")
        spill = PartitionCache(cache_dir=store, spill_shards=True)
        built = spill.lookup_or_build(g, "iec", 2, builder)
        ram = PartitionCache(cache_dir=store)
        assert_same_partitioning(ram.lookup_or_build(g, "iec", 2, builder), built)
        assert len(calls) == 1 and ram.stats.disk_hits == 1

        from_ram = ram.lookup_or_build(g, "iec", 4, builder)
        again = PartitionCache(cache_dir=store, spill_shards=True)
        mapped = again.lookup_or_build(g, "iec", 4, builder)
        assert len(calls) == 2 and again.stats.disk_hits == 1
        check_partition(mapped, CheckLevel.CHEAP)
        assert_same_partitioning(mapped, from_ram)
        for part in mapped.parts:
            assert isinstance(part.local_to_global.base, np.memmap)

    def test_corrupt_shard_dir_rebuilds(self, g, tmp_path):
        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store, spill_shards=True)
        builder, _ = _counting_builder("iec")
        cache.lookup_or_build(g, "iec", 2, builder)
        path = cache._disk_path(PartitionCache.key_for(g, "iec", 2))
        os.truncate(path, 0)

        fresh = PartitionCache(cache_dir=store, spill_shards=True)
        pg = fresh.lookup_or_build(g, "iec", 2, builder)
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.builds == 1
        check_partition(pg, CheckLevel.CHEAP)


class TestDiskByteCap:
    """There is no byte cap: a store keeps every entry, and ``pruned``
    (still a ``CacheStats`` field for positional readers) stays 0."""

    def _entry(self, cache, g, parts):
        return cache._disk_path(PartitionCache.key_for(g, "oec", parts))

    def test_unbounded_cache_never_prunes(self, g, tmp_path):
        cache = PartitionCache(cache_dir=str(tmp_path / "pcache"))
        builder, _ = _counting_builder("oec")
        cache.lookup_or_build(g, "oec", 2, builder)
        cache.lookup_or_build(g, "oec", 4, builder)
        assert cache.stats.pruned == 0
        assert os.path.exists(self._entry(cache, g, 2))
        assert os.path.exists(self._entry(cache, g, 4))


class TestConcurrentEvictionRaces:
    """Something outside the cache can remove a shared-store entry, or the
    whole directory, at any moment: a probe degrades to a miss and a store
    to a logged failure, never an exception."""

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
            os.unlink(path)  # removed between the existence check and the load
            raise FileNotFoundError(p)

        monkeypatch.setattr(mod, "load_partitions", vanishing_load)
        tracer = Tracer()
        with use_tracer(tracer):
            pg = cache.lookup_or_build(g, "oec", 2, builder)
        assert pg is not None
        assert len(calls) == 2  # rebuilt, not crashed
        assert _outcomes(tracer, "cache.disk_load") == ["vanished"]
        assert tracer.counters.get("partition.cache.discarded") == 0

    @pytest.mark.parametrize("spill_shards", [False, True])
    def test_cache_dir_removed_mid_run_rebuilds(
        self, g, tmp_path, monkeypatch, caplog, spill_shards
    ):
        """The directory goes while a store is writing: that store fails
        with a warning, the entry stored before it is gone too, and the
        next lookup rebuilds it."""
        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store, spill_shards=spill_shards)
        builder, calls = _counting_builder("oec")
        cache.lookup_or_build(g, "oec", 2, builder)
        real_commit = ContainerWriter.commit

        def removing_commit(writer, meta, sync):
            shutil.rmtree(store)
            return real_commit(writer, meta, sync)

        monkeypatch.setattr(ContainerWriter, "commit", removing_commit)
        tracer = Tracer()
        with use_tracer(tracer), caplog.at_level(
            logging.WARNING, logger="repro.partition.cache"
        ):
            cache.lookup_or_build(g, "oec", 4, builder)
            monkeypatch.undo()
            cache.clear_memory()
            check_partition(
                cache.lookup_or_build(g, "oec", 2, builder), CheckLevel.CHEAP
            )
        assert calls == [("oec", 2), ("oec", 4), ("oec", 2)]
        assert _outcomes(tracer, "cache.store") == ["failed", "stored"]
        assert [
            r for r in caplog.records
            if "could not persist partitions" in r.getMessage()
        ]
        assert cache.stats.stores == 2 and cache.stats.discarded == 0


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
        assert_same_partitioning(warm.get(g, "oec", 2), pg)
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
            cache.put(g, "iec", 2, POLICIES["iec"](g, 2))  # store
            os.truncate(cache._disk_path(cache.key_for(g, "iec", 2)), 40)
            cache.clear_memory()
            cache.get(g, "cvc", 2)  # disk hit
            assert cache.get(g, "iec", 2) is None  # discarded
            cache.lookup_or_build(g, "oec", 2, builder)  # disk hit
            cache.lookup_or_build(g, "oec", 2, builder)  # memory hit
        assert cache.stats == CacheStats(
            memory_hits=2, disk_hits=2, builds=1, stores=3, discarded=1
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
        os.truncate(path, os.path.getsize(path) // 2)

        builder, calls = _counting_builder("oec")
        tracer = Tracer()
        with use_tracer(tracer), caplog.at_level(
            logging.WARNING, logger="repro.partition.cache"
        ):
            assert cache.get(g, "oec", 2) is None
            rebuilt = cache.lookup_or_build(g, "oec", 2, builder)
            check_partition(rebuilt, CheckLevel.CHEAP)
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


# ---------------------------------------------------------------------- #
# faults: a damaged entry is a logged discard and one rebuild
# ---------------------------------------------------------------------- #
#: sections of a weighted cvc / P=4 entry, in file order; every one of
#: them is non-empty for the graph below
SECTIONS = (
    "vertex_owner", "counts", "indptr", "indices", "l2g", "is_master",
    "weights", "mirror_plan", "mirror_idx", "master_plan", "master_idx",
)
#: the sections an mmap load checks (io._LAYOUT_SECTIONS); a flipped byte
#: in any other one is not detected under mmap (docs/scale.md)
LAYOUT = ("counts", "mirror_plan", "master_plan")
HEADER_BYTES = {"magic": 0, "version": len(_FORMAT.magic), "json": 200}


def _flip(path, offset):
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))


def _damage(path, kind, where):
    """Apply one fault to the entry at ``path``."""
    if kind == "empty":
        os.truncate(path, 0)
    elif kind == "foreign":
        with open(path, "wb") as f:
            f.write(b"PK\x03\x04" + b"\0" * 8192)  # what an .npz starts with
    elif kind == "flip-header":
        _flip(path, HEADER_BYTES[where])
    else:
        sec = read_header(path, _FORMAT)["sections"][where]
        assert sec["nbytes"] > 0, where
        if kind == "truncate":
            os.truncate(path, sec["offset"])
        else:
            _flip(path, sec["offset"] + sec["nbytes"] // 2)


def _faults(spill_shards):
    """Every fault a load in that mode must detect: a RAM load all of them,
    an mmap load every one that damages the header, the size or a layout
    section."""
    return (
        [("empty", ""), ("foreign", "")]
        + [("flip-header", where) for where in HEADER_BYTES]
        + [("truncate", name) for name in SECTIONS]
        + [("flip", name) for name in (LAYOUT if spill_shards else SECTIONS)]
    )


class TestDamagedEntries:
    @pytest.fixture(scope="class")
    def wg(self):
        return add_random_weights(rmat(8, edge_factor=8, seed=5), seed=2)

    @pytest.mark.parametrize(
        "spill_shards,kind,where",
        [(spill, *fault) for spill in (False, True) for fault in _faults(spill)],
    )
    def test_damage_is_a_logged_discard_and_one_rebuild(
        self, wg, tmp_path, caplog, spill_shards, kind, where
    ):
        store = str(tmp_path / "pcache")
        from_scratch = POLICIES["cvc"](wg, 4)
        PartitionCache(cache_dir=store, spill_shards=spill_shards).put(
            wg, "cvc", 4, from_scratch
        )
        cache = PartitionCache(cache_dir=store, spill_shards=spill_shards)
        path = cache._disk_path(PartitionCache.key_for(wg, "cvc", 4))
        _damage(path, kind, where)

        builder, calls = _counting_builder("cvc")
        tracer = Tracer()
        with use_tracer(tracer), caplog.at_level(
            logging.WARNING, logger="repro.partition.cache"
        ):
            got = cache.lookup_or_build(wg, "cvc", 4, builder)
            cache.clear_memory()
            again = cache.lookup_or_build(wg, "cvc", 4, builder)
        assert calls == [("cvc", 4)]  # exactly one rebuild, stored over it
        assert _outcomes(tracer, "cache.disk_load") == ["corrupt", "hit"]
        assert cache.stats.disk_hits == 1
        discards = [
            r for r in caplog.records
            if "discarding unreadable cache file" in r.getMessage()
        ]
        assert len(discards) == 1
        assert os.listdir(store) == [os.path.basename(path)]  # no debris
        for pg in (got, again):
            assert_same_partitioning(from_scratch, pg)

    @pytest.mark.parametrize("spill_shards", [False, True])
    def test_entry_removed_between_check_and_load(
        self, wg, tmp_path, monkeypatch, spill_shards
    ):
        """The real loader meets the missing file: a clean miss, no
        warning, one rebuild."""
        import repro.partition.cache as mod

        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store, spill_shards=spill_shards)
        builder, calls = _counting_builder("cvc")
        cache.lookup_or_build(wg, "cvc", 4, builder)
        cache.clear_memory()
        name = "load_partition_shards" if spill_shards else "load_partitions"
        real = getattr(mod, name)

        def racing_load(path, graph):
            os.unlink(path)  # removed between the existence check and the load
            return real(path, graph)

        monkeypatch.setattr(mod, name, racing_load)
        tracer = Tracer()
        with use_tracer(tracer):
            check_partition(
                cache.lookup_or_build(wg, "cvc", 4, builder), CheckLevel.CHEAP
            )
        assert len(calls) == 2
        assert _outcomes(tracer, "cache.disk_load") == ["vanished"]

    @pytest.mark.parametrize("spill_shards", [False, True])
    def test_a_bug_in_the_loader_is_not_a_corrupt_file(
        self, wg, tmp_path, monkeypatch, spill_shards
    ):
        """``_probe`` used to catch ``Exception``: a loader that always
        raised rebuilt every partition on every warm run and the only
        symptom was ``partition.builds``."""
        import repro.partition.cache as mod

        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store, spill_shards=spill_shards)
        builder, calls = _counting_builder("cvc")
        cache.lookup_or_build(wg, "cvc", 4, builder)
        cache.clear_memory()

        def buggy_load(path, graph):
            raise TypeError("unsupported operand type(s)")

        name = "load_partition_shards" if spill_shards else "load_partitions"
        monkeypatch.setattr(mod, name, buggy_load)
        for probe in (
            lambda: cache.get(wg, "cvc", 4),
            lambda: cache.lookup_or_build(wg, "cvc", 4, builder),
        ):
            with pytest.raises(TypeError, match="unsupported operand"):
                probe()
        assert len(calls) == 1

    def test_unreadable_means_these_three_and_nothing_else(
        self, wg, tmp_path, monkeypatch
    ):
        import repro.partition.cache as mod
        from repro.errors import PartitioningError

        cache = PartitionCache(cache_dir=str(tmp_path / "pcache"))
        cache.put(wg, "cvc", 4, POLICIES["cvc"](wg, 4))
        cache.clear_memory()
        for exc in (PermissionError("denied"), GraphFormatError("bad"),
                    PartitioningError("other graph")):
            def failing_load(path, graph, exc=exc):
                raise exc

            monkeypatch.setattr(mod, "load_partitions", failing_load)
            assert cache.get(wg, "cvc", 4) is None


class TestLegacyEntries:
    """A ``cache_dir`` from before the container format keeps its ``.npz``
    files and ``.shards`` directories: never loaded, never removed."""

    def test_legacy_entries_are_never_loaded(self, g, tmp_path):
        """Same key, old suffix: the probe does not even open it."""
        store = str(tmp_path / "pcache")
        cache = PartitionCache(cache_dir=store)
        path = cache._disk_path(PartitionCache.key_for(g, "oec", 2))
        stem = path[: -len(".parts")]
        with open(stem + ".npz", "wb") as f:
            f.write(b"not even a zip")
        os.makedirs(stem + ".shards")
        builder, calls = _counting_builder("oec")
        tracer = Tracer()
        with use_tracer(tracer):
            cache.lookup_or_build(g, "oec", 2, builder)
        assert calls == [("oec", 2)]
        assert _outcomes(tracer, "cache.disk_load") == []
        assert sorted(os.listdir(store)) == sorted(
            os.path.basename(stem) + ext for ext in (".npz", ".parts", ".shards")
        )


class TestBuiltEqualsLoaded:
    """A partitioning written to the disk tier and read back by a fresh
    cache is the one that was built, array for array: over every fuzz
    shape and the partition golden's hand-built inputs, whose rows are out
    of order (``unsorted``: the in-order build's fallback) or repeat an
    edge (``parallel``)."""

    @pytest.mark.parametrize("policy", ["oec", "iec", "hvc", "cvc"])
    def test_the_disk_tier_returns_what_was_built(self, policy, tmp_path):
        graphs = [build_shape(s, np.random.default_rng(7)) for s in sorted(SHAPES)]
        graphs += [golden_inputs()["unsorted"], golden_inputs()["parallel"]]
        writer = PartitionCache(cache_dir=str(tmp_path))
        for graph in graphs:
            for parts in (2, 4):
                built = writer.lookup_or_build(graph, policy, parts, POLICIES[policy])
                reader = PartitionCache(cache_dir=str(tmp_path))
                loaded = reader.get(graph, policy, parts)
                assert reader.stats.disk_hits == 1, (graph.name, parts)
                assert_same_partitioning(built, loaded)
