"""Tests for graph property measurement (Table I machinery)."""

import networkx as nx
import numpy as np

from repro.graph import from_edges, properties
from repro.graph.properties import approximate_diameter, bfs_levels
from tests.nx_interop import from_networkx


def path(n):
    return from_edges(range(n - 1), range(1, n), num_vertices=n)


class TestBfsLevels:
    def test_path_levels(self):
        levels = bfs_levels(path(5), 0)
        assert levels.tolist() == [0, 1, 2, 3, 4]

    def test_undirected_reaches_backwards(self):
        levels = bfs_levels(path(5), 4)
        assert levels.tolist() == [4, 3, 2, 1, 0]

    def test_disconnected(self):
        g = from_edges([0], [1], num_vertices=4)
        levels = bfs_levels(g, 0)
        assert levels[2] == -1 and levels[3] == -1


class TestDiameter:
    def test_path_diameter_exact(self):
        assert approximate_diameter(path(10), num_sweeps=4, seed=0) == 9

    def test_cycle_lower_bound(self):
        n = 12
        g = from_edges(range(n), [(i + 1) % n for i in range(n)], num_vertices=n)
        d = approximate_diameter(g, num_sweeps=4, seed=0)
        assert d == 6  # undirected cycle diameter n/2

    def test_star_diameter(self):
        g = from_edges([0] * 9, range(1, 10), num_vertices=10)
        assert approximate_diameter(g) == 2

    def test_empty(self):
        g = from_edges([], [], num_vertices=0)
        assert approximate_diameter(g) == 0

    def test_matches_networkx_on_random_connected(self):
        nxg = nx.connected_watts_strogatz_graph(40, 4, 0.3, seed=5)
        g = from_networkx(nxg)
        true_d = nx.diameter(nxg)
        est = approximate_diameter(g, num_sweeps=6, seed=0)
        assert est <= true_d
        assert est >= max(1, true_d - 2)  # double sweep is a tight lower bound


class TestProperties:
    def test_table1_row_fields(self):
        p = properties(path(6), name="p6")
        assert p.name == "p6"
        assert p.num_vertices == 6
        assert p.num_edges == 5
        assert p.max_out_degree == 1
        assert p.max_in_degree == 1
        assert p.approx_diameter == 5

    def test_scale_factor_scales_size(self):
        small = properties(path(6), scale_factor=1.0)
        big = properties(path(6), scale_factor=1000.0)
        assert np.isclose(big.size_gb, small.size_gb * 1000.0)

    def test_row_tuple(self):
        row = properties(path(4), name="x").row()
        assert row[0] == "x"
        assert len(row) == 8
