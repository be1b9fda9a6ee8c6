"""Tests for partition serialization."""

import numpy as np
import pytest

from repro.check import CheckLevel, check_partition
from repro.errors import GraphFormatError, PartitioningError
from repro.generators import rmat, webcrawl
from repro.partition import (
    load_partitions,
    partition,
    save_partitions,
)


@pytest.fixture(scope="module")
def crawl():
    return webcrawl(3000, 12.0, seed=2)


class TestPartitionIO:
    def test_roundtrip(self, crawl, tmp_path):
        pg = partition(crawl, "cvc", 8, cache=False)
        path = tmp_path / "parts.npz"
        save_partitions(pg, path)
        pg2 = load_partitions(path, crawl)
        check_partition(pg2, CheckLevel.CHEAP)
        assert pg2.policy == "cvc"
        assert pg2.grid == pg.grid
        assert pg2.replication_factor == pg.replication_factor
        for a, b in zip(pg.parts, pg2.parts):
            assert a.graph == b.graph
            assert np.array_equal(a.local_to_global, b.local_to_global)
            assert np.array_equal(a.is_master, b.is_master)
            assert set(a.mirror_exchange) == set(b.mirror_exchange)

    def test_loaded_partitions_run(self, crawl, tmp_path):
        from repro.apps import get_app
        from repro.engine import BSPEngine, RunContext
        from repro.hw import bridges
        from repro.validation import reference_bfs

        pg = partition(crawl, "hvc", 4, cache=False)
        path = tmp_path / "parts.npz"
        save_partitions(pg, path)
        pg2 = load_partitions(path, crawl)
        src = int(np.argmax(crawl.out_degrees()))
        ctx = RunContext(
            num_global_vertices=crawl.num_vertices, source=src,
            global_out_degrees=crawl.out_degrees(),
        )
        res = BSPEngine(
            pg2, bridges(4), get_app("bfs"), check_memory=False
        ).run(ctx)
        assert np.array_equal(res.labels, reference_bfs(crawl, src))

    def test_rejects_wrong_graph(self, crawl, tmp_path):
        pg = partition(crawl, "oec", 4, cache=False)
        path = tmp_path / "parts.npz"
        save_partitions(pg, path)
        other = rmat(8, edge_factor=4, seed=9)
        with pytest.raises(PartitioningError):
            load_partitions(path, other)

    def test_rejects_foreign_file(self, crawl, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, a=np.arange(4))
        with pytest.raises(GraphFormatError):
            load_partitions(path, crawl)

    def test_weighted_partitions_roundtrip(self, tmp_path):
        from repro.graph.transform import add_random_weights

        g = add_random_weights(rmat(8, edge_factor=6, seed=1), seed=0)
        pg = partition(g, "oec", 4, cache=False)
        path = tmp_path / "w.npz"
        save_partitions(pg, path)
        pg2 = load_partitions(path, g)
        assert all(p.graph.has_weights for p in pg2.parts if p.graph.num_edges)
