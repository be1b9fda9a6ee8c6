"""Tests for all partitioning policies and the generic builder."""

import importlib
import tracemalloc

import numpy as np
import pytest

from repro.check import CheckLevel, check_partition
from repro.errors import ConfigurationError, InvariantViolation, PartitioningError
from repro.generators import rmat, webcrawl
from repro.graph import add_random_weights, from_edges
from repro.graph.order import SCAN_BLOCK
from repro.partition import (
    POLICIES,
    cvc,
    hvc,
    iec,
    metis_like,
    oec,
    partition,
    partition_stats,
    random_vertex_cut,
)
from repro.partition.base import build_partitions
from repro.partition.edgecut import blocked_owner_from_degrees

#: the module, which the package's ``hvc`` function shadows
hvc_module = importlib.import_module("repro.partition.hvc")

ALL_POLICIES = sorted(POLICIES)


@pytest.fixture(scope="module")
def g():
    return rmat(9, edge_factor=8, seed=3)


@pytest.fixture(scope="module")
def crawl():
    return webcrawl(2000, 12.0, seed=9)


class TestEveryPolicy:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("parts", [1, 2, 4, 8])
    def test_validates(self, g, policy, parts):
        pg = partition(g, policy, parts, cache=False)
        # masters unique, edges conserved, exchanges consistent
        check_partition(pg, CheckLevel.CHEAP)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_edge_conservation(self, g, policy):
        pg = partition(g, policy, 4, cache=False)
        assert pg.local_edge_counts().sum() == g.num_edges

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_single_partition_trivial(self, g, policy):
        pg = partition(g, policy, 1, cache=False)
        assert pg.replication_factor == pytest.approx(1.0)
        assert pg.parts[0].num_mirrors == 0

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_gather_roundtrip(self, g, policy):
        pg = partition(g, policy, 4, cache=False)
        # label every proxy with its global id; gather must reconstruct ids
        labels = [p.local_to_global.astype(np.int64) for p in pg.parts]
        out = pg.gather_master_labels(labels)
        assert np.array_equal(out, np.arange(g.num_vertices))

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_replication_at_least_one(self, g, policy):
        pg = partition(g, policy, 8, cache=False)
        assert pg.replication_factor >= 1.0


class TestEdgeCuts:
    def test_oec_mirrors_have_no_out_edges(self, g):
        pg = oec(g, 4)
        for p in pg.parts:
            assert not np.any(p.has_out_edges() & ~p.is_master)

    def test_iec_mirrors_have_no_in_edges(self, g):
        pg = iec(g, 4)
        for p in pg.parts:
            assert not np.any(p.has_in_edges() & ~p.is_master)

    def test_oec_edge_balance(self, g):
        s = partition_stats(oec(g, 4))
        assert s.static_balance < 1.5

    def test_iec_edge_balance(self, g):
        s = partition_stats(iec(g, 4))
        assert s.static_balance < 1.5

    def test_oec_edge_with_source_master(self, g):
        pg = oec(g, 4)
        for p in pg.parts:
            src_local = p.graph.edge_sources()
            assert np.all(p.is_master[src_local])

    def test_iec_edge_with_dest_master(self, g):
        pg = iec(g, 4)
        for p in pg.parts:
            assert np.all(p.is_master[p.graph.indices])


class TestCVC:
    def test_grid_shape_8(self, g):
        pg = cvc(g, 8)
        assert pg.grid in [(4, 2), (2, 4)]
        assert pg.grid[0] * pg.grid[1] == 8

    def test_row_invariant(self, g):
        """Proxies with outgoing edges sit in the master's grid row."""
        pg = cvc(g, 8)
        pr, pc = pg.grid
        for p in pg.parts:
            out_v = np.flatnonzero(p.has_out_edges())
            gids = p.local_to_global[out_v]
            master_rows = pg.vertex_owner[gids] // pc
            assert np.all(master_rows == p.pid // pc)

    def test_col_invariant(self, g):
        """Proxies with incoming edges sit in the master's grid column."""
        pg = cvc(g, 8)
        pr, pc = pg.grid
        for p in pg.parts:
            in_v = np.flatnonzero(p.has_in_edges())
            gids = p.local_to_global[in_v]
            master_cols = pg.vertex_owner[gids] % pc
            assert np.all(master_cols == p.pid % pc)

    def test_fewer_partners_than_edge_cut_at_scale(self):
        g = rmat(10, edge_factor=8, seed=1)
        s_cvc = partition_stats(cvc(g, 16))
        s_iec = partition_stats(iec(g, 16))
        assert s_cvc.max_comm_partners < s_iec.max_comm_partners

    def test_explicit_grid(self, g):
        pg = cvc(g, 6, grid=(3, 2))
        assert pg.grid == (3, 2)
        check_partition(pg, CheckLevel.CHEAP)

    def test_bad_grid_rejected(self, g):
        with pytest.raises(ValueError):
            cvc(g, 6, grid=(4, 2))

    def test_grid_position(self, g):
        pg = cvc(g, 8)
        pr, pc = pg.grid
        assert pg.grid_position(0) == (0, 0)
        assert pg.grid_position(pc) == (1, 0)

    def test_grid_position_requires_grid(self, g):
        pg = oec(g, 4)
        with pytest.raises(PartitioningError):
            pg.grid_position(0)


class TestHVC:
    def test_hub_in_edges_spread(self, crawl):
        """High in-degree vertices' in-edges land on many partitions."""
        pg = hvc(crawl, 8)
        hub = int(np.argmax(crawl.in_degrees()))
        holders = set()
        for p in pg.parts:
            l = p.to_local(hub)
            if l >= 0 and p.graph.reverse().out_degrees()[l] > 0:
                holders.add(p.pid)
        assert len(holders) >= 4

    def test_low_degree_in_edges_at_master(self, crawl, monkeypatch):
        monkeypatch.setattr(hvc_module, "HUB_FACTOR", 1e9)
        pg = hvc(crawl, 8)  # everything "low" => IEC-by-hash
        for p in pg.parts:
            assert np.all(p.is_master[p.graph.indices])


class TestMasterIds:
    def test_memoized_frozen_and_equal_to_the_flag_scan(self, g):
        """Consecutive master ids (oec: local ids are masters first) come
        back with the ``slice`` they equal, gapped ones (random vertex
        cut) with themselves; either indexes like the id array."""
        kinds = set()
        values = np.arange(g.num_vertices, dtype=np.float64) * 0.5
        for policy in ("oec", "hvc", "random"):
            for part in partition(g, policy, 4, cache=False).parts:
                ids, sel = part.master_ids()
                assert part.master_ids()[0] is ids  # computed once
                assert not ids.flags.writeable
                with pytest.raises(ValueError):
                    ids[0] = 0
                np.testing.assert_array_equal(
                    ids, np.flatnonzero(part.is_master)
                )
                kinds.add(type(sel))
                state = values[: part.num_local].copy()
                np.testing.assert_array_equal(state[sel], state[ids])
                state[sel] += 1.0
                expect = values[: part.num_local].copy()
                expect[ids] += 1.0
                np.testing.assert_array_equal(state, expect)
        assert kinds == {slice, np.ndarray}

    def test_a_partition_without_masters(self):
        empty = from_edges([0], [1], num_vertices=2)
        pg = build_partitions(
            empty, np.zeros(2, dtype=np.int32), np.zeros(1, dtype=np.int32),
            2, "custom",
        )
        ids, sel = pg.parts[1].master_ids()
        assert len(ids) == 0 and len(np.arange(3.0)[sel]) == 0


class TestRandomAndMetis:
    def test_random_deterministic(self, g):
        a = random_vertex_cut(g, 4, seed=5)
        b = random_vertex_cut(g, 4, seed=5)
        assert np.array_equal(a.vertex_owner, b.vertex_owner)

    def test_random_every_partition_nonempty(self, g):
        pg = random_vertex_cut(g, 8, seed=0)
        assert all(p.num_masters > 0 for p in pg.parts)

    def test_metis_like_cut_beats_random(self, crawl):
        """Locality ordering must reduce replication vs random placement."""
        r = partition_stats(random_vertex_cut(crawl, 8, seed=0))
        m = partition_stats(metis_like(crawl, 8))
        assert m.replication_factor < r.replication_factor

    def test_metis_like_balanced(self, crawl):
        s = partition_stats(metis_like(crawl, 8))
        assert s.static_balance < 2.0


class TestFrontend:
    def test_unknown_policy(self, g):
        with pytest.raises(ConfigurationError):
            partition(g, "zigzag", 2)

    def test_zero_partitions(self, g):
        with pytest.raises(ConfigurationError):
            partition(g, "oec", 0)

    def test_cache_returns_same_object(self, g):
        a = partition(g, "oec", 2, cache=True)
        b = partition(g, "oec", 2, cache=True)
        assert a is b

    def test_stats_fields(self, g):
        s = partition_stats(partition(g, "cvc", 4, cache=False))
        assert s.num_partitions == 4
        assert len(s.edges_per_partition) == 4
        assert s.static_balance >= 1.0
        assert s.row()[0] == "cvc"


class TestBuilderValidation:
    def test_bad_vertex_owner_shape(self, g):
        with pytest.raises(PartitioningError):
            build_partitions(
                g, np.zeros(3, np.int32), np.zeros(g.num_edges, np.int32), 2, "x"
            )

    def test_bad_edge_owner_range(self, g):
        eo = np.zeros(g.num_edges, np.int32)
        eo[0] = 7
        with pytest.raises(PartitioningError):
            build_partitions(g, np.zeros(g.num_vertices, np.int32), eo, 2, "x")

    def test_empty_partition_allowed(self):
        """A partition owning nothing and holding no edges is legal."""
        g2 = from_edges([0, 1], [1, 0], num_vertices=2)
        pg = build_partitions(
            g2,
            np.zeros(2, np.int32),
            np.zeros(2, np.int32),
            2,
            "manual",
        )
        check_partition(pg, CheckLevel.CHEAP)
        assert pg.parts[1].num_local == 0


def _union1d_membership(g, vo, eo, p):
    """Local oracle: the per-partition ``np.union1d`` scan (O(n*P)) that
    ``build_partitions`` used before its membership was vectorized."""
    sel = np.flatnonzero(eo == p)
    endpoints = np.union1d(g.edge_sources()[sel], g.indices[sel])
    return np.union1d(endpoints, np.flatnonzero(vo == p))


class TestMembershipEquivalence:
    """The flag-pass membership must reproduce the original per-partition
    ``np.union1d`` scan exactly."""

    @pytest.mark.parametrize("parts", [1, 3, 8])
    def test_vectorized_matches_reference(self, g, parts):
        rng = np.random.default_rng(11)
        vo = rng.integers(0, parts, g.num_vertices).astype(np.int32)
        eo = rng.integers(0, parts, g.num_edges).astype(np.int32)
        fast = build_partitions(g, vo, eo, parts, "manual")
        check_partition(fast, CheckLevel.CHEAP)
        np.testing.assert_array_equal(fast.vertex_owner, vo)
        src = g.edge_sources()
        for part in fast.parts:
            l2g = _union1d_membership(g, vo, eo, part.pid)
            np.testing.assert_array_equal(part.local_to_global, l2g)
            assert part.local_to_global.dtype == l2g.dtype
            g2l = np.full(g.num_vertices, -1, dtype=np.int32)
            g2l[l2g] = np.arange(len(l2g))
            np.testing.assert_array_equal(
                part.to_local(np.arange(g.num_vertices)), g2l
            )
            np.testing.assert_array_equal(part.is_master, vo[l2g] == part.pid)
            # the local CSR is the owner's bucket of the global one, relabeled
            sel = np.flatnonzero(eo == part.pid)
            np.testing.assert_array_equal(
                part.graph.edge_sources(), g2l[src[sel]]
            )
            np.testing.assert_array_equal(part.graph.indices, g2l[g.indices[sel]])


def _held_arrays(part):
    """Every array a :class:`LocalPartition` holds: its own fields, its
    local graph's, the exchange lists and whatever it memoized."""
    from repro.graph import CSRGraph

    out, todo = [], list(vars(part).values())
    while todo:
        x = todo.pop()
        if isinstance(x, np.ndarray):
            out.append(x)
        elif isinstance(x, dict):
            todo.extend(x.values())
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
        elif isinstance(x, CSRGraph):
            todo.extend(getattr(x, k, None) for k in CSRGraph.__slots__)
    return out


class TestFootprint:
    """A partition's host bytes follow its own vertex and edge counts.  A
    dense ``|V|``-long global-to-local map in each of them made a
    partitioning cost ``|V| * P * 4`` bytes more than its graph: 32 MiB
    for the few thousand edges below.  The CHEAP ``partition-footprint``
    checker holds every partitioning to the same rule."""

    @pytest.mark.parametrize("policy", ["oec", "iec", "hvc", "cvc"])
    def test_a_partition_holds_only_its_own_vertices(self, policy):
        n, P = 1 << 18, 32
        rng = np.random.default_rng(5)
        src, dst = rng.integers(0, n, size=(2, 4000))
        sparse = from_edges(src, dst, num_vertices=n)
        pg = partition(sparse, policy, P, cache=False)
        check_partition(pg, CheckLevel.CHEAP)
        total = 0
        for part in pg.parts:
            arrays = _held_arrays(part)
            assert max(len(a) for a in arrays) <= part.num_local + 1
            held = sum(a.nbytes for a in arrays)
            assert held <= 32 * (part.num_local + part.graph.num_edges) + 1024
            total += held
        assert total < 32 * n  # 8 MiB; the dense maps alone were 32

    def test_the_cheap_check_rejects_a_dense_map(self):
        n = 1 << 12
        rng = np.random.default_rng(5)
        src, dst = rng.integers(0, n, size=(2, 4000))
        pg = partition(from_edges(src, dst, num_vertices=n), "oec", 8, cache=False)
        part = pg.parts[3]
        part.__dict__["global_to_local"] = np.full(n, -1, dtype=np.int32)
        with pytest.raises(InvariantViolation) as err:
            check_partition(pg, CheckLevel.CHEAP)
        assert err.value.checker == "partition-footprint"

    def test_oec_partitions_adopt_the_graphs_weights(self, g):
        weighted = add_random_weights(g, seed=4)
        pg = partition(weighted, "oec", 4, cache=False)
        for part in pg.parts:
            assert np.shares_memory(part.graph.weights, weighted.weights)
            assert not part.graph.weights.flags.writeable

    @staticmethod
    def _weighted(n, m):
        rng = np.random.default_rng(9)
        src, dst = rng.integers(0, n, size=(2, m))
        weighted = from_edges(src, dst, num_vertices=n, weights=rng.integers(1, 100, m))
        weighted.out_degrees()  # the graph's own memo, not the build's
        partition(from_edges([0], [1]), "oec", 2, cache=False)  # imports
        return weighted

    def test_a_built_partitioning_holds_one_word_an_edge(self):
        """A bucket in CSR order is adopted: its relabeled destinations
        are the local ``indices`` and its weights are the graph's, so the
        build keeps 4 B an edge (a copied ``weights`` made it 8)."""
        n, m = 1 << 10, 1 << 17
        weighted = self._weighted(n, m)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pg = partition(weighted, "oec", 2, cache=False)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert pg.local_edge_counts().sum() == m
        assert held <= 4 * m + 128 * n

    def test_an_in_order_build_allocates_no_per_edge_source_array(self):
        """The traced peak of an OEC build, not what it keeps: a bucket in
        CSR order is the positions ``[lo, hi)``, its rows read off
        ``indptr`` and its bounds off the sorted owners, so beyond the 4 B
        an edge of relabeled destinations it holds only block-sized
        scratch.  A whole-graph ``edge_sources()``, each bucket's relabeled
        sources and an intp copy of the owners peaked ~10 B an edge higher."""
        n, m = 1 << 10, 1 << 17
        weighted = self._weighted(n, m)
        owner = blocked_owner_from_degrees(weighted.out_degrees(), 2)
        edge_owner = np.repeat(owner, weighted.out_degrees())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pg = build_partitions(weighted, owner, edge_owner, 2, "oec")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert pg.local_edge_counts().sum() == m
        assert peak <= 4 * m + 128 * n + SCAN_BLOCK

    @pytest.mark.parametrize("policy", [cvc, hvc])
    def test_a_vertex_cut_holds_no_per_edge_owner_temporaries(self, policy):
        """The traced peak of a CVC / HVC policy plus its build.  The
        owners are one int32 array computed in place (HVC hashes only the
        hub in-edges, their sources found on ``indptr``), so the peak is
        the permuted build's (~20 B an edge) plus those 4 B.  Whole-graph
        ``edge_sources()`` and source / destination owner arrays held
        through the build peaked 8 B an edge higher."""
        n, m = 1 << 10, 1 << 17
        weighted = self._weighted(n, m)
        weighted.in_degrees()  # the graph's own memo, as out_degrees
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pg = policy(weighted, 4)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert pg.local_edge_counts().sum() == m
        assert peak <= 24 * m + 128 * n
