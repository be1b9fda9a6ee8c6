"""Tests for the extension features: bc, tc, GPUDirect, overlap and DGX-2."""

import networkx as nx
import numpy as np
import pytest

from repro.apps import count_triangles, get_app, run_bc
from repro.apps.bc import BrandesBackward, BrandesForward
from repro.apps.tc import reference_triangle_count
from repro.engine import BASPEngine, BSPEngine, RunContext
from repro.errors import ConfigurationError
from repro.generators import rmat
from repro.graph import to_networkx
from repro.graph.transform import add_random_weights, make_undirected
from repro.hw import bridges, dgx2, tuxedo
from repro.partition import partition
from repro.validation.reference import reference_bc_single_source


@pytest.fixture(scope="module")
def g():
    return add_random_weights(rmat(9, edge_factor=8, seed=3), seed=0)


@pytest.fixture(scope="module")
def bc_ctx(g):
    return RunContext(
        num_global_vertices=g.num_vertices,
        source=int(np.argmax(g.out_degrees())),
        global_out_degrees=g.out_degrees(),
    )


class TestBetweennessCentrality:
    @pytest.mark.parametrize("policy", ["oec", "iec", "hvc", "cvc"])
    def test_matches_reference(self, g, bc_ctx, policy):
        pg = partition(g, policy, 8)
        bc, _ = run_bc(pg, bridges(8), bc_ctx)
        ref = reference_bc_single_source(g, bc_ctx.source)
        assert np.allclose(bc, ref)

    def test_forward_sigma_counts_paths(self, g, bc_ctx):
        pg = partition(g, "cvc", 4)
        res = BSPEngine(
            pg, bridges(4), BrandesForward(), check_memory=False
        ).run(bc_ctx)
        # sigma of the source is 1; unreached vertices have sigma 0
        assert res.labels[bc_ctx.source] == 1.0
        from repro.validation import reference_bfs

        dist = reference_bfs(g, bc_ctx.source)
        assert np.array_equal(res.extra["dist"], dist)
        assert np.all(res.labels[dist == np.iinfo(np.uint32).max] == 0.0)

    def test_backward_requires_payload(self, g, bc_ctx):
        pg = partition(g, "cvc", 4)
        with pytest.raises(ValueError):
            BSPEngine(
                pg, bridges(4), BrandesBackward(), check_memory=False
            ).run(bc_ctx)

    def test_bc_is_bsp_only(self, g, bc_ctx):
        pg = partition(g, "cvc", 4)
        with pytest.raises(ConfigurationError):
            BASPEngine(pg, bridges(4), BrandesForward(), check_memory=False)

    def test_stats_combined(self, g, bc_ctx):
        pg = partition(g, "oec", 4)
        _, stats = run_bc(pg, bridges(4), bc_ctx)
        assert stats.benchmark == "bc"
        assert stats.execution_time > 0


class TestTriangleCounting:
    @pytest.fixture(scope="class")
    def sym(self):
        return make_undirected(rmat(9, edge_factor=6, seed=5))

    def test_reference_matches_networkx(self, sym):
        ref = reference_triangle_count(sym)
        nxg = nx.Graph(to_networkx(sym))
        assert ref == sum(nx.triangles(nxg).values()) // 3

    @pytest.mark.parametrize("policy", ["oec", "cvc", "hvc", "metis-like"])
    def test_distributed_count_exact(self, sym, policy):
        pg = partition(sym, policy, 8)
        cnt, stats = count_triangles(pg, bridges(8), scale_factor=10.0)
        assert cnt == reference_triangle_count(sym)
        assert stats.execution_time > 0
        assert stats.comm_volume_bytes > 0

    def test_triangle_free_graph(self):
        # a star has no triangles
        from repro.graph import from_edges

        star = make_undirected(
            from_edges([0] * 20, range(1, 21), num_vertices=21)
        )
        pg = partition(star, "oec", 4)
        cnt, _ = count_triangles(pg, bridges(4))
        assert cnt == 0


class TestGPUDirectAndOverlap:
    def test_gpudirect_strictly_faster(self, g, bc_ctx):
        pg = partition(g, "cvc", 8)
        base = BSPEngine(
            pg, bridges(8), get_app("sssp"), check_memory=False,
            scale_factor=1000.0,
        ).run(bc_ctx)
        direct = BSPEngine(
            pg, bridges(8, gpudirect=True), get_app("sssp"),
            check_memory=False, scale_factor=1000.0,
        ).run(bc_ctx)
        assert direct.stats.execution_time < base.stats.execution_time
        assert np.array_equal(direct.labels, base.labels)

    def test_overlap_bounds(self, g):
        pg = partition(g, "cvc", 4)
        with pytest.raises(ConfigurationError):
            BSPEngine(pg, bridges(4), get_app("bfs"), overlap_comm=1.5)

    def test_overlap_monotone(self, g, bc_ctx):
        pg = partition(g, "cvc", 8)
        times = []
        for f in (0.0, 0.5, 1.0):
            res = BSPEngine(
                pg, bridges(8), get_app("sssp"), check_memory=False,
                scale_factor=1000.0, overlap_comm=f,
            ).run(bc_ctx)
            times.append(res.stats.execution_time)
        assert times[2] <= times[1] <= times[0]

    def test_dgx2_cluster(self):
        c = dgx2(16)
        assert c.num_gpus == 16
        assert c.num_hosts == 1
        assert c.gpudirect
        with pytest.raises(ConfigurationError):
            dgx2(17)

    def test_dgx2_runs_correctly(self, g, bc_ctx):
        pg = partition(g, "cvc", 16)
        res = BSPEngine(
            pg, dgx2(16), get_app("bfs"), check_memory=False
        ).run(bc_ctx)
        from repro.validation import reference_bfs

        assert np.array_equal(res.labels, reference_bfs(g, bc_ctx.source))
