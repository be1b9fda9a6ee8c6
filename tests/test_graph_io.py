"""Tests for graph serialization."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    add_random_weights,
    from_edges,
    load_edgelist,
    open_csr,
    save_edgelist,
    write_csr_store,
)


@pytest.fixture
def g():
    return from_edges([0, 0, 1, 3], [1, 2, 3, 0], num_vertices=4)


class TestEdgelist:
    def test_roundtrip(self, g, tmp_path):
        p = tmp_path / "g.el"
        save_edgelist(g, p)
        h = load_edgelist(p, num_vertices=4)
        assert h == g

    def test_roundtrip_weighted(self, g, tmp_path):
        gw = add_random_weights(g, seed=3)
        p = tmp_path / "g.wel"
        save_edgelist(gw, p)
        h = load_edgelist(p, num_vertices=4)
        assert h == gw

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "c.el"
        p.write_text("# a comment\n0 1\n1 2\n")
        h = load_edgelist(p)
        assert h.num_edges == 2

    def test_bad_columns(self, tmp_path):
        p = tmp_path / "bad.el"
        p.write_text("0 1 2 3\n")
        with pytest.raises(GraphFormatError):
            load_edgelist(p)

    def test_empty_needs_vertex_count(self, tmp_path):
        p = tmp_path / "e.el"
        p.write_text("# nothing\n")
        with pytest.raises(GraphFormatError):
            load_edgelist(p)
        assert load_edgelist(p, num_vertices=3).num_vertices == 3

    def test_an_empty_weighted_edge_list_stays_weighted_when_asked(self, tmp_path):
        """A 0-edge weighted graph writes an empty file; auto-detection
        reads it as unweighted, an explicit ``weighted=True`` may not."""
        empty = from_edges([], [], num_vertices=3, weights=np.empty(0, np.uint32))
        p = tmp_path / "e.wel"
        save_edgelist(empty, p)
        assert p.stat().st_size == 0
        assert not load_edgelist(p, num_vertices=3).has_weights
        h = load_edgelist(p, num_vertices=3, weighted=True)
        assert h == empty
        assert h.weights.dtype == empty.weights.dtype


class TestBinary:
    """The binary format is the store container (``repro.graph.store``;
    its own suite is tests/test_graph_store.py)."""

    def test_roundtrip(self, g, tmp_path):
        p = str(tmp_path / "g.csr")
        write_csr_store(g, p)
        assert open_csr(p) == g

    def test_roundtrip_weighted_and_named(self, tmp_path):
        gw = add_random_weights(
            from_edges([0, 0, 1, 3], [1, 2, 3, 0], num_vertices=4, name="named"),
            seed=1,
        )
        p = str(tmp_path / "g.csr")
        write_csr_store(gw, p)
        h = open_csr(p, mode="ram")
        assert h == gw and h.name == "named"

    def test_rejects_foreign_npz(self, tmp_path):
        p = tmp_path / "foreign.npz"
        np.savez(p, a=np.arange(3))
        with pytest.raises(GraphFormatError):
            open_csr(str(p))
