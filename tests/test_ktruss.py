"""Tests for the k-truss extension benchmark."""

import networkx as nx
import numpy as np
import pytest

from repro.apps import ktruss
from repro.generators import rmat
from repro.graph import from_edges
from repro.graph.transform import make_undirected
from repro.hw import bridges
from repro.partition import partition
from tests.nx_interop import to_networkx


@pytest.fixture(scope="module")
def sym():
    return make_undirected(rmat(9, edge_factor=6, seed=5))


@pytest.fixture(scope="module")
def nx_ref(sym):
    g = nx.Graph(to_networkx(sym))
    g.remove_edges_from(nx.selfloop_edges(g))
    return g


def ref_edges(nx_ref, k):
    sub = nx.k_truss(nx_ref, k)
    return {(min(u, v), max(u, v)) for u, v in sub.edges()}


class TestKTruss:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("policy", ["cvc", "oec"])
    def test_matches_networkx(self, sym, nx_ref, k, policy):
        pg = partition(sym, policy, 8)
        res = ktruss(pg, bridges(8), k, scale_factor=10.0)
        alive = set(
            zip(res.src[res.alive].tolist(), res.dst[res.alive].tolist())
        )
        assert alive == ref_edges(nx_ref, k)

    def test_small_enumeration_blocks_change_nothing(self, sym, monkeypatch):
        # the triangle enumeration cuts its candidates into blocks of the
        # ambient edge budget; a 7-candidate budget makes hundreds of them
        pg = partition(sym, "cvc", 4)
        want = ktruss(pg, bridges(4), 5)
        monkeypatch.setenv("REPRO_BLOCK_EDGES", "7")
        got = ktruss(pg, bridges(4), 5)
        np.testing.assert_array_equal(got.alive, want.alive)
        assert got.stats.rounds == want.stats.rounds
        assert got.stats.work_items == want.stats.work_items

    def test_k2_keeps_everything(self, sym):
        """Every edge is trivially in the 2-truss."""
        pg = partition(sym, "oec", 4)
        res = ktruss(pg, bridges(4), 2)
        assert res.alive.all()

    def test_huge_k_kills_everything(self, sym):
        pg = partition(sym, "oec", 4)
        res = ktruss(pg, bridges(4), 1000)
        assert res.num_surviving == 0

    def test_triangle_free_graph_dies_at_k3(self):
        star = make_undirected(
            from_edges([0] * 10, range(1, 11), num_vertices=11)
        )
        pg = partition(star, "oec", 2)
        res = ktruss(pg, bridges(2), 3)
        assert res.num_surviving == 0

    def test_clique_survives(self):
        # K5 is a 5-truss: every edge is in 3 triangles
        src, dst = [], []
        for i in range(5):
            for j in range(5):
                if i != j:
                    src.append(i)
                    dst.append(j)
        k5 = from_edges(src, dst, num_vertices=5)
        pg = partition(k5, "oec", 2)
        res = ktruss(pg, bridges(2), 5)
        assert res.num_surviving == 10

    def test_invalid_k(self, sym):
        pg = partition(sym, "oec", 2)
        with pytest.raises(ValueError):
            ktruss(pg, bridges(2), 1)

    def test_stats_populated(self, sym):
        pg = partition(sym, "cvc", 8)
        res = ktruss(pg, bridges(8), 5, scale_factor=100.0)
        s = res.stats
        assert s.benchmark == "ktruss"
        assert s.rounds >= 1
        assert s.execution_time > 0
        assert s.work_items > 0

    def test_monotone_in_k(self, sym):
        pg = partition(sym, "cvc", 4)
        sizes = [
            ktruss(pg, bridges(4), k).num_surviving for k in (3, 4, 5, 6)
        ]
        assert sizes == sorted(sizes, reverse=True)
