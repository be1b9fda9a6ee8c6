"""Unit tests for the CSR graph substrate."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, from_edges


def tiny() -> CSRGraph:
    #  0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0, 3 isolated
    return from_edges([0, 0, 1, 2], [1, 2, 2, 0], num_vertices=4)


class TestConstruction:
    def test_counts(self):
        g = tiny()
        assert g.num_vertices == 4
        assert g.num_edges == 4

    def test_indptr_monotone(self):
        g = tiny()
        assert np.all(np.diff(g.indptr) >= 0)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.num_edges

    def test_neighbors(self):
        g = tiny()
        assert sorted(g.neighbors(0).tolist()) == [1, 2]
        assert g.neighbors(3).tolist() == []

    def test_immutable(self):
        g = tiny()
        with pytest.raises(ValueError):
            g.indices[0] = 3

    def test_empty_graph(self):
        g = from_edges([], [], num_vertices=5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.out_degrees().sum() == 0

    def test_zero_vertices(self):
        g = from_edges([], [], num_vertices=0)
        assert g.num_vertices == 0

    def test_self_loop_and_parallel_edges(self):
        g = from_edges([0, 0, 0], [0, 1, 1], num_vertices=2)
        assert g.num_edges == 3
        assert g.neighbors(0).tolist() == [0, 1, 1]

    def test_dedup(self):
        g = from_edges([0, 0, 0], [1, 1, 2], num_vertices=3, dedup=True)
        assert g.num_edges == 2

    def test_dedup_keeps_first_weight(self):
        g = from_edges([0, 0], [1, 1], num_vertices=2, weights=[7, 9], dedup=True)
        assert g.weights.tolist() == [7]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_ordered_input_is_copied_not_adopted(self, dtype):
        """Nothing is permuted when the input is already in (src, dst)
        order, so the built graph must still own its arrays: freezing them
        may not reach the caller's buffers."""
        src = np.array([0, 0, 1, 2], dtype=dtype)
        dst = np.array([1, 2, 2, 0], dtype=dtype)
        w = np.array([4, 3, 2, 1], dtype=np.uint32)  # already WEIGHT_DTYPE
        g = from_edges(src, dst, num_vertices=3, weights=w)
        for mine in (src, dst, w):
            assert mine.flags.writeable
            for theirs in (g.indptr, g.indices, g.weights):
                assert not np.shares_memory(mine, theirs)
        w[0] = 99
        assert g.weights.tolist() == [4, 3, 2, 1]

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64, np.float64])
    def test_vertex_id_dtype_does_not_change_the_graph(self, dtype):
        """Signed ids are read in their own width, everything else through
        int64; either way the graph is the one int64 ids build."""
        src, dst, w = [2, 0, 2, 1, 0], [1, 2, 0, 1, 2], [5, 4, 3, 2, 1]
        want = from_edges(
            np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
            num_vertices=3, weights=w, dedup=True,
        )
        got = from_edges(
            np.array(src, dtype=dtype), np.array(dst, dtype=dtype),
            num_vertices=3, weights=w, dedup=True,
        )
        assert got.content_hash() == want.content_hash()
        assert got.indices.dtype == want.indices.dtype

    def test_bad_indptr_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1, 0], dtype=np.int32))

    def test_out_of_range_destination_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1]), np.array([5], dtype=np.int32))

    def test_mismatched_weights_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges([0], [1], num_vertices=2, weights=[1, 2])

    def test_vertex_exceeding_bound_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edges([0], [9], num_vertices=3)


class TestDegrees:
    def test_out_degrees(self):
        g = tiny()
        assert g.out_degrees().tolist() == [2, 1, 1, 0]

    def test_in_degrees(self):
        g = tiny()
        assert g.in_degrees().tolist() == [1, 1, 2, 0]

    def test_degree_sum_is_edge_count(self):
        g = tiny()
        assert g.out_degrees().sum() == g.num_edges
        assert g.in_degrees().sum() == g.num_edges

    def test_edge_sources(self):
        g = tiny()
        assert g.edge_sources().tolist() == [0, 0, 1, 2]


class TestReverse:
    def test_reverse_degrees_swap(self):
        g = tiny()
        r = g.reverse()
        assert r.out_degrees().tolist() == g.in_degrees().tolist()
        assert r.in_degrees().tolist() == g.out_degrees().tolist()

    def test_reverse_edges(self):
        g = tiny()
        r = g.reverse()
        fwd = set(zip(g.edge_sources().tolist(), g.indices.tolist()))
        bwd = set(zip(r.indices.tolist(), r.edge_sources().tolist()))
        assert fwd == bwd

    def test_reverse_cached(self):
        g = tiny()
        assert g.reverse() is g.reverse()
        assert g.reverse().reverse() is g

    def test_reverse_is_topology_only(self):
        """No reader of a transpose reads a weight, so it carries none; its
        own reverse is the weighted original, not a rebuild."""
        g = from_edges([0, 0, 1, 2], [1, 2, 0, 1], num_vertices=3, weights=[5, 9, 2, 7])
        r = g.reverse()
        assert r.weights is None
        fwd = sorted(zip(g.edge_sources().tolist(), g.indices.tolist()))
        bwd = sorted(zip(r.indices.tolist(), r.edge_sources().tolist()))
        assert fwd == bwd
        assert r.reverse() is g
        assert r.reverse().weights.tolist() == [5, 9, 2, 7]

    def test_double_reverse_equals_original(self):
        g = from_edges([0, 0, 2, 3], [1, 3, 1, 0], num_vertices=4, weights=[1, 2, 3, 4])
        rr = g.reverse().reverse()
        assert rr == g


class TestMisc:
    def test_nbytes_positive(self):
        assert tiny().nbytes() > 0

    def test_weights_increase_nbytes(self):
        g = from_edges([0], [1], num_vertices=2, weights=[3])
        assert g.nbytes(include_weights=True) > g.nbytes(include_weights=False)

    def test_equality(self):
        assert tiny() == tiny()
        g2 = from_edges([0], [1], num_vertices=4)
        assert tiny() != g2

    def test_repr_contains_counts(self):
        assert "4" in repr(tiny())
