"""Unit tests for application kernels and shared compute helpers."""

import numpy as np
import pytest

from repro.apps import get_app
from repro.engine import BSPEngine, RunContext
from repro.errors import ConfigurationError
from repro.graph import from_edges
from repro.graph.expand import expand_edges
from repro.hw import bridges
from repro.idset import scatter_changed
from repro.partition import partition


class TestExpandFrontier:
    def g(self):
        return from_edges([0, 0, 1, 2, 2, 2], [1, 2, 2, 0, 1, 3], num_vertices=4)

    def test_all_edges_of_frontier(self):
        g = self.g()
        counts, dsts, w = expand_edges(g, np.array([0, 2]))
        assert len(dsts) == 5  # deg(0)=2, deg(2)=3
        assert w is None
        # counts spell each frontier vertex out per edge
        srcs = np.repeat(np.array([0, 2]), counts)
        expected = {(0, 1), (0, 2), (2, 0), (2, 1), (2, 3)}
        assert set(zip(srcs.tolist(), dsts.tolist())) == expected

    def test_empty_frontier(self):
        counts, dsts, _ = expand_edges(self.g(), np.empty(0, dtype=np.int64))
        assert len(counts) == 0 and len(dsts) == 0

    def test_isolated_vertex(self):
        counts, dsts, _ = expand_edges(self.g(), np.array([3]))
        assert counts.tolist() == [0] and len(dsts) == 0

    def test_weights_parallel(self):
        g = from_edges([0, 0], [1, 2], num_vertices=3, weights=[7, 9])
        _, dsts, w = expand_edges(g, np.array([0]), with_weights=True)
        assert sorted(zip(dsts.tolist(), w.tolist())) == [(1, 7), (2, 9)]


class TestScatterOps:
    def test_scatter_min_reports_only_decreases(self):
        labels = np.array([5, 5, 5], dtype=np.uint32)
        changed = scatter_changed("min", labels, np.array([0, 1, 1]), np.array([7, 3, 4], dtype=np.uint32))
        assert changed.tolist() == [1]
        assert labels.tolist() == [5, 3, 5]

    def test_scatter_min_duplicates_take_minimum(self):
        labels = np.array([10], dtype=np.uint32)
        scatter_changed("min", labels, np.array([0, 0, 0]), np.array([9, 2, 5], dtype=np.uint32))
        assert labels[0] == 2

    def test_scatter_min_empty(self):
        labels = np.array([1], dtype=np.uint32)
        out = scatter_changed("min", labels, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32))
        assert len(out) == 0

    def test_scatter_add_accumulates(self):
        labels = np.zeros(3, dtype=np.int64)
        touched = scatter_changed("add", labels, np.array([1, 1, 2]), np.array([1, 1, 1]))
        assert labels.tolist() == [0, 2, 1]
        assert touched.tolist() == [1, 2]


class TestRegistry:
    def test_every_registered_app_instantiates(self):
        from repro.apps.registry import APPS

        for name in APPS:
            app = get_app(name)
            assert app.name == name
            assert app.fields()
            assert app.sync_plan()

    def test_unknown_app(self):
        with pytest.raises(ConfigurationError):
            get_app("hits")

    def test_study_benchmarks_are_registered(self):
        from repro.apps.registry import APPS, STUDY_BENCHMARKS

        assert set(STUDY_BENCHMARKS) <= set(APPS)
        assert len(STUDY_BENCHMARKS) == 5


class TestDirectionOptimizingSwitch:
    def test_pull_round_on_dense_frontier(self):
        """A frontier holding most edges triggers the pull path."""
        from repro.apps.bfs import DirectionOptBFS
        from repro.constants import INF

        # star: source sees every vertex -> frontier edges = |E|
        g = from_edges([0] * 30, range(1, 31), num_vertices=31)
        pg = partition(g, "oec", 1, cache=False)
        app = DirectionOptBFS()
        ctx = RunContext(num_global_vertices=31, source=0,
                         global_out_degrees=g.out_degrees())
        state = app.init_state(pg.parts[0], ctx)
        frontier = app.initial_frontier(pg.parts[0], ctx, state)
        out = app.compute(pg.parts[0], ctx, state, frontier)
        # the pull round scans in-edges of the 30 unvisited vertices
        assert out.edges_processed == 30
        assert np.all(state["dist"][1:] == 1)

    def test_pull_rounds_match_push_bfs(self, small_graph, ctx):
        """Forcing every round down the pull path (alpha=0) must give the
        same distances as plain push BFS — the lazily-built pull cache
        (reverse graph + shrinking unvisited pool) cannot change results
        across rounds."""
        from repro.apps.bfs import DirectionOptBFS

        pg = partition(small_graph, "cvc", 4, cache=False)
        push = BSPEngine(
            pg, bridges(4), get_app("bfs"), check_memory=False
        ).run(ctx)
        do = DirectionOptBFS()
        do.alpha = 0.0
        pull = BSPEngine(pg, bridges(4), do, check_memory=False).run(ctx)
        np.testing.assert_array_equal(push.labels, pull.labels)
        assert pull.stats.rounds == push.stats.rounds

    def test_default_switch_matches_push_bfs(self, small_graph, ctx):
        """With the stock alpha the mixed push/pull schedule still lands
        on identical distances."""
        pg = partition(small_graph, "cvc", 4, cache=False)
        push = BSPEngine(
            pg, bridges(4), get_app("bfs"), check_memory=False
        ).run(ctx)
        mixed = BSPEngine(
            pg, bridges(4), get_app("bfs-do"), check_memory=False
        ).run(ctx)
        np.testing.assert_array_equal(push.labels, mixed.labels)


class TestKcoreInternals:
    def test_vertex_processed_once_per_partition(self, small_sym, ctx):
        pg = partition(small_sym, "cvc", 4)
        app = get_app("kcore")
        eng = BSPEngine(pg, bridges(4), app, check_memory=False)
        res = eng.run(ctx)
        # no vertex's final degree can exceed its initial degree
        init = ctx.global_degrees
        assert np.all(res.labels.astype(np.int64) <= init)

    def test_k_zero_kills_nothing(self, small_sym, ctx):
        import dataclasses

        c = dataclasses.replace(ctx, k=0)
        pg = partition(small_sym, "oec", 4)
        res = BSPEngine(pg, bridges(4), get_app("kcore"), check_memory=False).run(c)
        assert np.array_equal(res.labels.astype(np.int64), ctx.global_degrees)

    def test_huge_k_kills_everything(self, small_sym, ctx):
        import dataclasses

        from repro.apps.kcore import KCore

        c = dataclasses.replace(ctx, k=10**6)
        pg = partition(small_sym, "oec", 4)
        res = BSPEngine(pg, bridges(4), get_app("kcore"), check_memory=False).run(c)
        assert not KCore.in_core(res.labels.astype(np.int64), c.k).any()


class TestPagerankInternals:
    def test_dangling_vertices_keep_base_rank(self, ctx, small_graph):
        pg = partition(small_graph, "oec", 4)
        res = BSPEngine(pg, bridges(4), get_app("pr"), check_memory=False).run(ctx)
        no_in = small_graph.in_degrees() == 0
        assert np.allclose(res.labels[no_in], 1.0 - ctx.damping)

    def test_missing_out_degrees_rejected(self, small_graph):
        ctx = RunContext(num_global_vertices=small_graph.num_vertices)
        pg = partition(small_graph, "oec", 2)
        with pytest.raises(ValueError):
            BSPEngine(
                pg, bridges(2), get_app("pr"), check_memory=False
            ).run(ctx)

    def test_rank_mass_close_to_reference_total(self, small_graph, ctx):
        from repro.validation import reference_pagerank

        pg = partition(small_graph, "cvc", 4)
        res = BSPEngine(pg, bridges(4), get_app("pr"), check_memory=False).run(ctx)
        ref = reference_pagerank(small_graph, tol=1e-6, max_iter=2000)
        assert res.labels.sum() == pytest.approx(ref.sum(), rel=1e-3)

    def test_static_round_memo_is_keyed_on_the_frontier_object(
        self, small_graph, ctx
    ):
        """Frontier, row selector, pricing degrees and pull plan are one
        memo, rebuilt for another frontier *object* — not merely another
        length, which is all the parent compared."""
        app = get_app("pr")
        part = partition(small_graph, "oec", 2).parts[0]
        state = app.init_state(part, ctx)
        frontier = app.initial_frontier(part, ctx, state)
        assert app.initial_frontier(part, ctx, state) is frontier
        out = app.compute(part, ctx, state, frontier)
        memo = state["_topo"]
        assert memo[0] is frontier and out.frontier_degrees is memo[2]
        assert app.compute(part, ctx, state, frontier).frontier_degrees is memo[2]
        assert state["_topo"] is memo
        other = frontier.copy()  # same length: the parent kept its plan
        app.compute(part, ctx, state, other)
        assert state["_topo"] is not memo and state["_topo"][0] is other

    def test_no_state_array_aliases_the_pull_workspace(self, small_graph, ctx):
        app = get_app("pr")
        part = partition(small_graph, "oec", 2).parts[1]
        state = app.init_state(part, ctx)
        frontier = app.initial_frontier(part, ctx, state)
        for _ in range(2):
            out = app.compute(part, ctx, state, frontier)
            app.master_compute(part, ctx, state)
        ws = state["_topo"][3].workspace
        assert len(ws) == part.graph.num_edges
        arrays = [v for v in state.values() if isinstance(v, np.ndarray)]
        arrays += [out.frontier_degrees, *out.updated.values()]
        assert len(arrays) >= 8
        assert not any(np.shares_memory(a, ws) for a in arrays)
