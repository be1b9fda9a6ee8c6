"""Two-level (intra-host -> network) synchronization.

The envelope guarantee: hierarchical aggregation concatenates payloads,
it never combines them, so the receiver applies the exact same values in
the exact same order — labels must be bit-identical to flat sync for
every app, policy, and engine, on every graph shape the fuzzer can draw.
What *may* change: wire message counts (down), wire bytes (down, by the
folded headers), and network-leg timing.
"""

import numpy as np
import pytest

from repro.apps import get_app
from repro.comm import CommConfig
from repro.comm.hier import group_cross_host
from repro.engine import BASPEngine, BSPEngine
from repro.apps.registry import SYMMETRIC_APPS
from repro.fuzz.cases import Case, make_context
from repro.fuzz.gen import random_graph
from repro.graph.transform import add_random_weights, make_undirected
from repro.hw import ContentionConfig, bridges
from repro.hw.cluster import dgx2
from repro.partition import partition

_ENGINES = {"bsp": BSPEngine, "basp": BASPEngine}


def labels_equivalent(app_name, engine, flat, hier) -> bool:
    """Bitwise everywhere except async pagerank.

    BSP applies every message within its round regardless of arrival
    time, so hier timing changes can never reach the labels.  BASP is
    asynchronous: hier shifts arrivals, which reshuffles the application
    interleaving — exact apps still land on the same fixed point, but
    pagerank's float accumulation order moves in the low-order bits
    (exactly why the fuzzer keeps ``pr`` out of ``EXACT_APPS``); it gets
    the repo's standard pagerank tolerance instead.
    """
    if engine == "basp" and app_name in ("pr", "pr-push"):
        return bool(
            np.allclose(flat.labels, hier.labels, rtol=1e-3, atol=1e-9)
        )
    return np.array_equal(flat.labels, hier.labels)


def run_pair(graph, ctx, app_name, policy, engine, parts=8, cluster=None,
             **comm_kw):
    """Run flat vs hierarchical on identical inputs; return both results."""
    if cluster is None:
        cluster = bridges(parts)
    app = get_app(app_name)
    pg = partition(graph, policy, cluster.num_gpus, cache=False)
    results = []
    for hierarchical in (False, True):
        eng = _ENGINES[engine](
            pg, cluster, app,
            comm_config=CommConfig(hierarchical=hierarchical, **comm_kw),
            check_memory=False,
        )
        results.append(eng.run(ctx))
    return results


# --------------------------------------------------------------------------- #
# unit: the grouping itself
# --------------------------------------------------------------------------- #
class TestGrouping:
    def test_groups_by_host_pair_in_first_appearance_order(self):
        hsrc = np.array([0, 0, 1, 0, 1])
        hdst = np.array([1, 1, 0, 2, 0])
        cross = np.ones(5, dtype=bool)
        nbytes = np.array([100.0, 200.0, 50.0, 10.0, 40.0])
        aggs = group_cross_host(hsrc, hdst, cross, nbytes, 1.0)
        assert [(a.src_host, a.dst_host) for a in aggs] == [
            (0, 1), (1, 0), (0, 2)
        ]
        assert list(aggs[0].members) == [0, 1]
        assert list(aggs[1].members) == [2, 4]
        assert list(aggs[2].members) == [3]

    def test_saved_bytes_are_folded_headers(self):
        from repro.comm.buffers import HEADER_BYTES

        hsrc = np.array([0, 0, 0])
        hdst = np.array([1, 1, 1])
        cross = np.ones(3, dtype=bool)
        nbytes = np.array([100.0, 200.0, 300.0])
        (agg,) = group_cross_host(hsrc, hdst, cross, nbytes, 2.0)
        assert agg.saved_bytes == HEADER_BYTES * 2.0 * 2
        assert agg.wire_bytes == 600.0 - agg.saved_bytes

    def test_keys_split_aggregates(self):
        hsrc = np.array([0, 0])
        hdst = np.array([1, 1])
        cross = np.ones(2, dtype=bool)
        nbytes = np.array([100.0, 200.0])
        aggs = group_cross_host(
            hsrc, hdst, cross, nbytes, 1.0, keys=[("x", "r"), ("y", "r")]
        )
        assert len(aggs) == 2

    def test_non_cross_messages_excluded(self):
        hsrc = np.array([0, 0])
        hdst = np.array([0, 1])
        cross = np.array([False, True])
        aggs = group_cross_host(hsrc, hdst, cross, np.array([1.0, 2.0]), 1.0)
        assert len(aggs) == 1
        assert list(aggs[0].members) == [1]


# --------------------------------------------------------------------------- #
# label equivalence across the configuration space
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("app_name", ["bfs", "sssp", "cc", "pr"])
@pytest.mark.parametrize("policy", ["cvc", "oec", "iec"])
@pytest.mark.parametrize("engine", ["bsp", "basp"])
def test_labels_identical_across_apps(
    small_graph, small_sym, ctx, app_name, policy, engine
):
    if engine == "basp" and not get_app(app_name).async_capable:
        pytest.skip(f"{app_name} is not async-capable")
    graph = small_sym if get_app(app_name).needs_symmetric else small_graph
    flat, hier = run_pair(graph, ctx, app_name, policy, engine)
    assert labels_equivalent(app_name, engine, flat, hier)
    assert hier.stats.inter_host_messages <= flat.stats.inter_host_messages
    assert hier.stats.comm_volume_bytes <= flat.stats.comm_volume_bytes


def test_fuzzer_shapes_label_equivalence():
    """Hier on/off agree on every graph shape the fuzzer can draw."""
    rng = np.random.default_rng(2026)
    checked = 0
    for i in range(12):
        shape, graph = random_graph(rng)
        app_name = ["bfs", "cc", "pr", "sssp"][i % 4]
        if app_name in SYMMETRIC_APPS:
            graph = add_random_weights(make_undirected(graph), seed=i)
        if graph.num_vertices == 0:
            continue
        engine = "basp" if get_app(app_name).async_capable and i % 2 else "bsp"
        case = Case(app=app_name, policy="cvc", parts=4, engine=engine,
                    num_vertices=graph.num_vertices)
        ctx = make_context(graph, case)
        flat, hier = run_pair(graph, ctx, app_name, "cvc", engine, parts=4)
        assert labels_equivalent(app_name, engine, flat, hier), (
            f"hier changed labels on {shape}/{app_name}/{engine}"
        )
        checked += 1
    assert checked >= 8


class TestMessageReduction:
    def test_cross_host_messages_drop(self, small_graph, ctx):
        flat, hier = run_pair(small_graph, ctx, "bfs", "cvc", "bsp")
        # bridges-8 = 4 hosts x 2 GPUs: pairs sharing a (host, host) edge
        # must coalesce
        assert hier.stats.inter_host_messages < flat.stats.inter_host_messages
        assert hier.stats.num_messages < flat.stats.num_messages
        assert hier.stats.hier_aggregates > 0
        assert flat.stats.hier_aggregates == 0

    def test_rounds_and_work_unchanged_bsp(self, small_graph, ctx):
        flat, hier = run_pair(small_graph, ctx, "bfs", "cvc", "bsp")
        assert hier.stats.rounds == flat.stats.rounds
        assert hier.stats.work_items == flat.stats.work_items


class TestCombinations:
    def test_hier_with_as_comm(self, small_graph, ctx):
        flat, hier = run_pair(
            small_graph, ctx, "bfs", "cvc", "bsp", update_only=False
        )
        assert np.array_equal(flat.labels, hier.labels)
        assert hier.stats.inter_host_messages < flat.stats.inter_host_messages

    @pytest.mark.parametrize("engine", ["bsp", "basp"])
    def test_hier_with_contention(self, small_graph, ctx, engine):
        cluster = bridges(8, contention=ContentionConfig())
        flat, hier = run_pair(
            small_graph, ctx, "bfs", "cvc", engine, cluster=cluster
        )
        assert np.array_equal(flat.labels, hier.labels)
        if engine == "bsp":
            # a BSP sync step batches every pair at once, so same-host
            # partners must coalesce
            assert (hier.stats.inter_host_messages
                    < flat.stats.inter_host_messages)
        else:
            # BASP sends per local round from one device at a time, so
            # aggregation opportunities depend on the partner layout;
            # it must never *add* wire messages
            assert (hier.stats.inter_host_messages
                    <= flat.stats.inter_host_messages)

    def test_hier_with_contention_and_overlap_bsp(self, small_graph, ctx):
        cluster = bridges(8, contention=ContentionConfig())
        app = get_app("bfs")
        pg = partition(small_graph, "cvc", 8, cache=False)
        flat_eng = BSPEngine(pg, cluster, app, check_memory=False,
                             overlap_comm=0.5)
        hier_eng = BSPEngine(
            pg, cluster, app, check_memory=False, overlap_comm=0.5,
            comm_config=CommConfig(hierarchical=True),
        )
        flat, hier = flat_eng.run(ctx), hier_eng.run(ctx)
        assert np.array_equal(flat.labels, hier.labels)


class TestSingleHostNoOp:
    def test_dgx2_hier_is_exact_noop(self, small_graph, ctx):
        # one host => zero cross-host messages => nothing to aggregate;
        # the hierarchical path must reproduce flat timing bit-for-bit
        flat, hier = run_pair(
            small_graph, ctx, "bfs", "cvc", "bsp", cluster=dgx2(8)
        )
        assert np.array_equal(flat.labels, hier.labels)
        assert hier.stats.execution_time == flat.stats.execution_time
        assert hier.stats.comm_volume_bytes == flat.stats.comm_volume_bytes
        assert hier.stats.num_messages == flat.stats.num_messages
        assert hier.stats.inter_host_messages == 0
        assert hier.stats.hier_aggregates == 0

    def test_dgx2_basp_hier_is_exact_noop(self, small_graph, ctx):
        flat, hier = run_pair(
            small_graph, ctx, "bfs", "cvc", "basp", cluster=dgx2(8)
        )
        assert np.array_equal(flat.labels, hier.labels)
        assert hier.stats.execution_time == flat.stats.execution_time
        assert hier.stats.inter_host_messages == 0


class TestVariantLabel:
    def test_dirgl_hier_label(self):
        from repro.frameworks.dirgl import DIrGL

        assert DIrGL(hierarchical=True).variant_label().endswith("+Hier")
        assert "+Hier" not in DIrGL().variant_label()
