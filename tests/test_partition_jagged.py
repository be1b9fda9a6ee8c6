"""Tests for the jagged vertex-cut and its one-sided invariant."""

import numpy as np
import pytest

from repro.comm import FieldSpec, GluonComm
from repro.generators import rmat
from repro.partition import jagged, partition, partition_stats
from tests.test_comm_gluon import partners

DIST = FieldSpec(name="d", dtype=np.uint32, reduce_op="min",
                 read_at="src", write_at="dst")


@pytest.fixture(scope="module")
def g():
    return rmat(10, edge_factor=8, seed=1)


class TestStructure:
    def test_valid(self, g):
        pg = jagged(g, 8)
        pg.validate()
        assert pg.policy == "jagged"
        assert pg.grid is not None

    def test_registered(self, g):
        assert partition(g, "jagged", 4, cache=False).policy == "jagged"

    def test_bad_grid(self, g):
        with pytest.raises(ValueError):
            jagged(g, 8, grid=(3, 2))

    def test_row_invariant_kept(self, g):
        """Out-edges stay in the master's grid row (as CVC)."""
        pg = jagged(g, 8)
        pr, pc = pg.grid
        for p in pg.parts:
            out_g = p.local_to_global[p.has_out_edges()]
            assert np.all(pg.vertex_owner[out_g] // pc == p.pid // pc)

    def test_broadcast_row_restricted(self, g):
        pg = jagged(g, 8)
        pr, pc = pg.grid
        comm = GluonComm(pg, [DIST])
        for p in range(8):
            for q in partners(comm, "d", "broadcast", p):
                assert q // pc == p // pc

    def test_reduce_not_column_restricted(self, g):
        """The jagged trade-off: the column invariant is given up."""
        pg = jagged(g, 8)
        pr, pc = pg.grid
        comm = GluonComm(pg, [DIST])
        assert any(
            q % pc != p % pc
            for p in range(8)
            for q in partners(comm, "d", "reduce", p)
        )

    def test_better_static_balance_than_cvc(self, g):
        """Per-row-block column splits adapt to skew that CVC's single
        global column boundary cannot."""
        jg = partition_stats(jagged(g, 8))
        cv = partition_stats(partition(g, "cvc", 8, cache=False))
        assert jg.static_balance <= cv.static_balance + 0.01


class TestCorrectness:
    def test_bfs_exact(self, g):
        from repro.apps import get_app
        from repro.engine import BSPEngine, RunContext
        from repro.hw import bridges
        from repro.validation import reference_bfs

        src = int(np.argmax(g.out_degrees()))
        ctx = RunContext(num_global_vertices=g.num_vertices, source=src,
                         global_out_degrees=g.out_degrees())
        pg = jagged(g, 8)
        res = BSPEngine(pg, bridges(8), get_app("bfs"), check_memory=False).run(ctx)
        assert np.array_equal(res.labels, reference_bfs(g, src))
