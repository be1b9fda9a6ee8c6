"""Tests for graph transformations and builders."""

import networkx as nx
import numpy as np
import pytest

from repro.constants import MAX_EDGE_WEIGHT
from repro.graph import (
    add_random_weights,
    from_edges,
    from_networkx,
    make_undirected,
    relabel,
    to_networkx,
)


def chain(n=5):
    return from_edges(range(n - 1), range(1, n), num_vertices=n)


class TestWeights:
    def test_weights_in_range(self):
        g = add_random_weights(chain(50), seed=1)
        assert g.weights.min() >= 1
        assert g.weights.max() <= MAX_EDGE_WEIGHT

    def test_deterministic(self):
        a = add_random_weights(chain(50), seed=7)
        b = add_random_weights(chain(50), seed=7)
        assert np.array_equal(a.weights, b.weights)

    def test_different_seed_differs(self):
        a = add_random_weights(chain(200), seed=1)
        b = add_random_weights(chain(200), seed=2)
        assert not np.array_equal(a.weights, b.weights)

    def test_topology_unchanged(self):
        g = chain(10)
        w = add_random_weights(g)
        assert np.array_equal(g.indptr, w.indptr)
        assert np.array_equal(g.indices, w.indices)


class TestUndirected:
    def test_symmetric(self):
        g = make_undirected(from_edges([0, 1], [1, 2], num_vertices=3))
        edges = set(zip(g.edge_sources().tolist(), g.indices.tolist()))
        assert (1, 0) in edges and (2, 1) in edges

    def test_no_duplicate_edges(self):
        g = make_undirected(from_edges([0, 1], [1, 0], num_vertices=2))
        assert g.num_edges == 2

    def test_degree_symmetry(self):
        g = make_undirected(from_edges([0, 0, 1], [1, 2, 2], num_vertices=3))
        assert np.array_equal(g.out_degrees(), g.in_degrees())


class TestRelabel:
    def test_identity(self):
        g = chain(4)
        assert relabel(g, np.arange(4)) == g

    def test_preserves_structure(self):
        g = from_edges([0, 1, 2], [1, 2, 0], num_vertices=3)
        perm = np.array([2, 0, 1])
        h = relabel(g, perm)
        orig = set(zip(g.edge_sources().tolist(), g.indices.tolist()))
        new = set(zip(h.edge_sources().tolist(), h.indices.tolist()))
        assert new == {(perm[a], perm[b]) for a, b in orig}

    def test_bad_perm_rejected(self):
        with pytest.raises(ValueError):
            relabel(chain(3), np.array([0, 0, 1]))


class TestNetworkxRoundTrip:
    def test_roundtrip_digraph(self):
        g0 = nx.gnp_random_graph(30, 0.1, seed=3, directed=True)
        csr = from_networkx(g0)
        g1 = to_networkx(csr)
        assert set(g0.edges()) == set(g1.edges())

    def test_undirected_networkx_symmetrized(self):
        g0 = nx.path_graph(4)
        csr = from_networkx(g0)
        assert csr.num_edges == 6  # 3 undirected edges -> 6 arcs

    def test_weights_roundtrip(self):
        g0 = nx.DiGraph()
        g0.add_weighted_edges_from([(0, 1, 5), (1, 2, 9)])
        csr = from_networkx(g0, weight_attr="weight")
        assert sorted(csr.weights.tolist()) == [5, 9]
