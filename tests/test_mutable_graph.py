"""MutableGraph: timestamped batches, snapshots, and hash freshness."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.generators import rmat
from repro.graph import EdgeBatch, MutableGraph, from_edges
from repro.graph.mutable import derived_weights
from repro.graph.transform import add_random_weights


def tri(weighted=False):
    w = np.array([3, 5, 2], dtype=np.uint32) if weighted else None
    return from_edges([0, 1, 2], [1, 2, 0], num_vertices=4, weights=w)


class TestApply:
    def test_insert_appends_edges(self):
        mg = MutableGraph(tri())
        mg.insert_edges([0, 3], [3, 0], timestamp=1)
        assert mg.num_edges == 5
        assert mg.version == 1
        snap = mg.snapshot()
        assert snap.num_edges == 5
        assert snap.num_vertices == 4

    def test_delete_removes_all_occurrences(self):
        g = from_edges([0, 0, 1], [1, 1, 2], num_vertices=3)
        mg = MutableGraph(g)
        mg.delete_edges([0], [1], timestamp=1)
        assert mg.num_edges == 1  # both parallel (0,1) copies die

    def test_delete_of_absent_pair_is_noop(self):
        mg = MutableGraph(tri())
        mg.delete_edges([3], [2], timestamp=1)
        assert mg.num_edges == 3

    def test_deletes_apply_before_inserts_within_a_batch(self):
        mg = MutableGraph(tri())
        mg.apply(EdgeBatch(
            timestamp=1,
            insert_src=np.array([0]), insert_dst=np.array([1]),
            delete_src=np.array([0]), delete_dst=np.array([1]),
        ))
        # the old (0,1) died, the new one landed: net count unchanged
        assert mg.num_edges == 3
        src, dst = mg.edge_list()
        assert ((src == 0) & (dst == 1)).sum() == 1

    def test_out_of_range_endpoint_rejected(self):
        mg = MutableGraph(tri())
        with pytest.raises(GraphFormatError):
            mg.insert_edges([0], [4], timestamp=1)
        with pytest.raises(GraphFormatError):
            mg.delete_edges([-1], [0], timestamp=1)

    def test_timestamps_must_be_monotone(self):
        mg = MutableGraph(tri())
        mg.insert_edges([0], [3], timestamp=5)
        with pytest.raises(GraphFormatError):
            mg.insert_edges([1], [3], timestamp=4)

    def test_log_and_batches_since(self):
        mg = MutableGraph(tri())
        mg.insert_edges([0], [3], timestamp=1)
        mg.delete_edges([0], [1], timestamp=2)
        assert len(mg.log) == 2
        assert (len(mg.log[0].insert_src), len(mg.log[1].delete_src)) == (1, 1)


class TestWeights:
    def test_derived_weights_deterministic_and_bounded(self):
        s = np.array([1, 2, 3], dtype=np.int64)
        d = np.array([4, 5, 6], dtype=np.int64)
        w1 = derived_weights(s, d, 7)
        w2 = derived_weights(s, d, 7)
        assert np.array_equal(w1, w2)
        assert (w1 >= 1).all()
        w3 = derived_weights(s, d, 8)
        assert not np.array_equal(w1, w3)  # timestamp feeds the mix

    def test_insert_preserves_weight_dtype(self):
        base = add_random_weights(rmat(4, edge_factor=2, seed=1), seed=1)
        mg = MutableGraph(base)
        mg.insert_edges([0], [1], timestamp=1)
        assert mg.snapshot().weights.dtype == base.weights.dtype

    def test_explicit_insert_weights(self):
        mg = MutableGraph(tri(weighted=True))
        mg.insert_edges([3], [0], weights=[9], timestamp=1)
        snap = mg.snapshot()
        src = snap.edge_sources()
        w = snap.weights[(src == 3) & (snap.indices == 0)]
        assert list(w) == [9]


class TestSnapshotAndHash:
    def test_snapshot_is_canonical(self):
        # two histories reaching the same edge multiset hash identically
        a = MutableGraph(tri())
        a.insert_edges([3, 2], [0, 3], timestamp=1)
        b = MutableGraph(tri())
        b.insert_edges([2], [3], timestamp=1)
        b.insert_edges([3], [0], timestamp=2)
        assert a.content_hash() == b.content_hash()

    def test_snapshot_cached_per_version(self):
        mg = MutableGraph(tri())
        assert mg.snapshot() is mg.snapshot()
        mg.insert_edges([0], [3], timestamp=1)
        assert mg.snapshot() is mg.snapshot()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_apply_after_snapshot_of_unmutated_base(self, weighted):
        """The unmutated edge list is already ordered, so ``from_edges``
        permutes nothing; the snapshot must not adopt (and freeze) the
        arrays the next ``apply`` goes on to use."""
        mg = MutableGraph(tri(weighted))
        snap = mg.snapshot()
        assert snap == mg.base
        for held in (mg._src, mg._dst, mg._w):
            if held is not None:
                assert not np.shares_memory(held, snap.indices)
                assert snap.weights is None or not np.shares_memory(
                    held, snap.weights
                )
        mg.insert_edges([0], [3], timestamp=1)
        mg.delete_edges([1], [2], timestamp=2)
        after = mg.snapshot()
        assert after.num_edges == 3
        assert snap == mg.base  # the earlier snapshot did not move
        if weighted:
            assert sorted(after.weights.tolist())[:2] == [2, 3]

    def test_content_hash_tracks_mutations(self):
        """Satellite regression: the hash must incorporate the pending
        mutation log — a mutated graph can never reuse its old key."""
        mg = MutableGraph(tri())
        h0 = mg.content_hash()
        assert h0 == mg.base.content_hash()  # clean wrapper is transparent
        mg.insert_edges([0], [3], timestamp=1)
        h1 = mg.content_hash()
        assert h1 != h0
        mg.delete_edges([0], [3], timestamp=2)
        # back to the original edge multiset -> back to the original key
        assert mg.content_hash() == h0

    def test_mutated_graph_yields_fresh_labels_not_cached_ones(self):
        """End-to-end staleness regression: query, mutate, re-query —
        the second answer must reflect the mutation, even with every
        content-keyed cache warm."""
        from repro.validation import reference_bfs

        g = from_edges([0, 1], [1, 2], num_vertices=4)
        mg = MutableGraph(g)
        results = {}

        def query():
            # a content-keyed result cache, as the serve layer keeps one
            key = mg.content_hash()
            if key not in results:
                results[key] = reference_bfs(mg.snapshot(), 0)
            return results[key]

        before = query()
        assert before[3] == np.iinfo(np.uint32).max  # unreachable
        mg.insert_edges([2], [3], timestamp=1)
        after = query()
        assert after[3] == 3  # fresh labels, not the stale cache entry
        assert len(results) == 2
