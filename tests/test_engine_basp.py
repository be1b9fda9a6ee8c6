"""Behavioral tests for the bulk-asynchronous engine."""

import numpy as np
import pytest

from repro.apps import get_app
from repro.engine import BASPEngine, BSPEngine
from repro.errors import ConfigurationError
from repro.hw import bridges
from repro.partition import partition


def run(app_name, graph, ctx, engine_cls, policy="cvc", parts=8):
    pg = partition(graph, policy, parts)
    return engine_cls(
        pg, bridges(parts), get_app(app_name), check_memory=False
    ).run(ctx)


class TestAsyncSemantics:
    def test_local_rounds_diverge_across_partitions(self, small_graph, ctx):
        res = run("sssp", small_graph, ctx, BASPEngine)
        assert res.stats.local_rounds_max >= res.stats.local_rounds_min

    def test_more_local_rounds_than_bsp(self, small_graph, ctx):
        """Stale reads cause redundant local rounds (Section V-B4)."""
        bsp = run("sssp", small_graph, ctx, BSPEngine)
        basp = run("sssp", small_graph, ctx, BASPEngine)
        assert basp.stats.local_rounds_max >= bsp.stats.rounds

    def test_redundant_work_items(self, small_graph, ctx):
        """BASP performs at least as many edge traversals as BSP."""
        bsp = run("sssp", small_graph, ctx, BSPEngine)
        basp = run("sssp", small_graph, ctx, BASPEngine)
        assert basp.stats.work_items >= bsp.stats.work_items

    def test_breakdown_fields_populated(self, small_graph, ctx):
        res = run("bfs", small_graph, ctx, BASPEngine)
        s = res.stats
        assert s.execution_time > 0
        assert s.max_compute > 0
        assert s.max_compute + s.min_wait + s.device_comm == pytest.approx(
            s.execution_time, rel=1e-6
        )

    def test_async_rejects_incapable_app(self, small_graph, ctx):
        app = get_app("bfs")
        app.async_capable = False
        pg = partition(small_graph, "cvc", 4)
        with pytest.raises(ConfigurationError):
            BASPEngine(pg, bridges(4), app)

    def test_comm_volume_positive(self, small_graph, ctx):
        res = run("bfs", small_graph, ctx, BASPEngine)
        assert res.stats.comm_volume_bytes > 0


class TestConstructorValidation:
    @pytest.mark.parametrize(
        "bad",
        [{"throttle_wait": -1.0}, {"overlap_comm": 1.5}, {"executor": "fibers"}],
        ids=lambda kw: next(iter(kw)),
    )
    def test_bad_argument_rejected_before_sync_plan_build(
        self, small_graph, monkeypatch, bad
    ):
        from repro.comm.gluon import GluonComm

        def built(*args, **kwargs):
            raise AssertionError("GluonComm built before validation")

        monkeypatch.setattr(GluonComm, "__init__", built)
        pg = partition(small_graph, "cvc", 4)
        with pytest.raises(ConfigurationError):
            BASPEngine(pg, bridges(4), get_app("bfs"), **bad)


class TestBenchmarkBoundaries:
    """What ``benchmarks/perf`` relies on to time the engine layer."""

    def test_class_body_defines_init_and_run(self):
        # its shims resolve names with vars(owner)[name]: an inherited
        # __init__ or run is a KeyError that fails every workload
        assert "__init__" in vars(BASPEngine) and "run" in vars(BASPEngine)

    def test_run_reaches_shimmed_functions_by_late_lookup(
        self, small_graph, ctx, request
    ):
        # the engine exists before the wrappers do: a bound method captured
        # at construction would leave its count at zero.  pr at P=8 sends
        # both phases, prices its flushes and prices compute through the
        # load balancer
        from tests.conftest import REACHED_BY_A_PR_RUN

        pg = partition(small_graph, "cvc", 8)
        eng = BASPEngine(pg, bridges(8), get_app("pr"), check_memory=False)
        calls = request.getfixturevalue("boundary_calls")
        eng.run(ctx)
        assert calls["BASPEngine.run"] == 1
        unreached = [k for k in REACHED_BY_A_PR_RUN if not calls[k]]
        assert not unreached, calls

class TestDeterminism:
    def test_basp_is_deterministic(self, small_graph, ctx):
        a = run("sssp", small_graph, ctx, BASPEngine)
        b = run("sssp", small_graph, ctx, BASPEngine)
        assert np.array_equal(a.labels, b.labels)
        assert a.stats.execution_time == b.stats.execution_time
        assert a.stats.local_rounds_max == b.stats.local_rounds_max


class TestStragglerBehavior:
    def test_async_reduces_wait_share_on_imbalanced_partitions(
        self, small_graph, ctx
    ):
        """BASP's raison d'etre: decoupled execution shrinks blocking time
        relative to the run's span when partitions are imbalanced."""
        bsp = run("sssp", small_graph, ctx, BSPEngine, policy="hvc")
        basp = run("sssp", small_graph, ctx, BASPEngine, policy="hvc")
        bsp_wait_share = bsp.stats.per_partition_wait.max() / max(
            bsp.stats.execution_time, 1e-12
        )
        basp_wait_share = basp.stats.per_partition_wait.max() / max(
            basp.stats.execution_time, 1e-12
        )
        # not universally guaranteed, but holds for this fixed workload
        assert basp_wait_share <= bsp_wait_share * 1.5
