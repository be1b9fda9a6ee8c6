"""Behavioral tests for the BSP engine: timing, stats, memory enforcement."""

import numpy as np
import pytest

from repro.apps import get_app
from repro.comm import CommConfig
from repro.engine import BSPEngine, RunContext
from repro.errors import ConvergenceError, SimulatedOOMError
from repro.hw import bridges, tuxedo
from repro.hw.memory import LUX_PROFILE
from repro.partition import partition


def engine(small_graph, policy="cvc", parts=8, scale=1.0, **kw):
    pg = partition(small_graph, policy, parts)
    return BSPEngine(
        pg, bridges(parts), get_app("bfs"), scale_factor=scale, **kw
    )


class TestStats:
    def test_breakdown_sums_to_execution_time(self, small_graph, ctx):
        res = engine(small_graph, check_memory=False).run(ctx)
        s = res.stats
        assert s.execution_time > 0
        assert s.max_compute > 0
        assert s.device_comm >= 0
        total = s.max_compute + s.min_wait + s.device_comm
        assert total == pytest.approx(s.execution_time, rel=1e-6)

    def test_comm_volume_positive(self, small_graph, ctx):
        res = engine(small_graph, check_memory=False).run(ctx)
        assert res.stats.comm_volume_bytes > 0
        assert res.stats.num_messages > 0

    def test_rounds_recorded(self, small_graph, ctx):
        res = engine(small_graph, check_memory=False).run(ctx)
        assert res.stats.rounds >= 2
        assert res.stats.local_rounds_min == res.stats.rounds

    def test_work_items_at_least_edges_reachable(self, small_graph, ctx):
        res = engine(small_graph, check_memory=False).run(ctx)
        assert res.stats.work_items > 0

    def test_replication_factor_copied(self, small_graph, ctx):
        res = engine(small_graph, check_memory=False).run(ctx)
        assert res.stats.replication_factor >= 1.0

    def test_memory_recorded(self, small_graph, ctx):
        res = engine(small_graph, check_memory=True).run(ctx)
        assert res.stats.memory_max_bytes > 0
        assert res.stats.memory_balance >= 1.0

    def test_dynamic_balance(self, small_graph, ctx):
        res = engine(small_graph, check_memory=False).run(ctx)
        assert res.stats.dynamic_balance >= 1.0


class TestScaleFactor:
    def test_times_scale_with_factor(self, small_graph, ctx):
        t1 = engine(small_graph, scale=1.0, check_memory=False).run(ctx)
        t2 = engine(small_graph, scale=1000.0, check_memory=False).run(ctx)
        assert t2.stats.execution_time > 20 * t1.stats.execution_time
        assert t2.stats.comm_volume_bytes > 500 * t1.stats.comm_volume_bytes

    def test_answers_unaffected_by_scale(self, small_graph, ctx):
        t1 = engine(small_graph, scale=1.0, check_memory=False).run(ctx)
        t2 = engine(small_graph, scale=1e6, check_memory=False).run(ctx)
        assert np.array_equal(t1.labels, t2.labels)


class TestMemoryEnforcement:
    def test_oom_at_paper_scale(self, small_graph, ctx):
        # a scale factor blowing each partition past 16 GB must OOM
        with pytest.raises(SimulatedOOMError):
            engine(small_graph, scale=1e7, check_memory=True).run(ctx)

    def test_lux_profile_ooms_earlier(self, small_graph, ctx):
        # Lux's static pool is ~5.85 GB: a scale that fits D-IrGL kills Lux
        scale = 1.05e6
        engine(small_graph, scale=scale, check_memory=True).run(ctx)  # fits
        with pytest.raises(SimulatedOOMError):
            engine(
                small_graph, scale=scale, check_memory=True,
                memory_profile=LUX_PROFILE,
            ).run(ctx)


class TestCommConfigEffects:
    def test_uo_reduces_volume_vs_as(self, small_graph, ctx):
        uo = engine(small_graph, check_memory=False,
                    comm_config=CommConfig(update_only=True)).run(ctx)
        asr = engine(small_graph, check_memory=False,
                     comm_config=CommConfig(update_only=False)).run(ctx)
        assert uo.stats.comm_volume_bytes < asr.stats.comm_volume_bytes

    def test_explicit_ids_increase_volume(self, small_graph, ctx):
        memo = engine(small_graph, check_memory=False,
                      comm_config=CommConfig(update_only=False)).run(ctx)
        raw = engine(
            small_graph, check_memory=False,
            comm_config=CommConfig(update_only=False, memoize_addresses=False),
        ).run(ctx)
        assert raw.stats.comm_volume_bytes > memo.stats.comm_volume_bytes


class TestTermination:
    def test_non_convergence_raises(self, small_graph, ctx):
        import dataclasses

        tiny_ctx = dataclasses.replace(ctx, max_rounds=1)
        with pytest.raises(ConvergenceError):
            engine(small_graph, check_memory=False).run(tiny_ctx)

    def test_unreachable_source_converges_fast(self, small_graph, ctx):
        import dataclasses

        # a vertex with no out-edges: bfs ends after one round
        sink = int(np.flatnonzero(small_graph.out_degrees() == 0)[0])
        c2 = dataclasses.replace(ctx, source=sink)
        res = engine(small_graph, check_memory=False).run(c2)
        assert res.stats.rounds <= 2
        assert (res.labels == 0).sum() == 1


class TestBenchmarkBoundaries:
    """What ``benchmarks/perf`` relies on to time the engine layer."""

    def test_class_body_defines_init_and_run(self):
        # its shims resolve names with vars(owner)[name]: an inherited
        # __init__ or run is a KeyError that fails every workload
        assert "__init__" in vars(BSPEngine) and "run" in vars(BSPEngine)

    def test_run_reaches_shimmed_functions_by_late_lookup(
        self, small_graph, ctx, request
    ):
        # the engine exists before the wrappers do: a bound method captured
        # at construction would leave its count at zero.  pr at P=8 sends
        # both phases, prices its flushes and prices compute through the
        # load balancer
        from tests.conftest import REACHED_BY_A_PR_RUN

        pg = partition(small_graph, "cvc", 8)
        eng = BSPEngine(pg, bridges(8), get_app("pr"), check_memory=False)
        calls = request.getfixturevalue("boundary_calls")
        eng.run(ctx)
        assert calls["BSPEngine.run"] == 1
        unreached = [k for k in REACHED_BY_A_PR_RUN if not calls[k]]
        assert not unreached, calls

class TestHeterogeneousCluster:
    def test_tuxedo_runs(self, small_graph, ctx):
        pg = partition(small_graph, "oec", 6)
        res = BSPEngine(
            pg, tuxedo(6), get_app("bfs"), check_memory=False
        ).run(ctx)
        from repro.validation import reference_bfs

        assert np.array_equal(res.labels, reference_bfs(small_graph, ctx.source))
