"""Tests for deterministic fault injection."""

import numpy as np
import pytest

from repro.apps import get_app
from repro.engine import BASPEngine, BSPEngine, FaultPlan, RunContext
from repro.errors import SimulatedCrashError
from repro.hw import bridges
from repro.partition import partition


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan({0: 1})

    def test_check_fires_at_and_after_round(self):
        plan = FaultPlan({2: 5})
        plan.check(2, 4)  # before: fine
        with pytest.raises(SimulatedCrashError):
            plan.check(2, 5)
        with pytest.raises(SimulatedCrashError):
            plan.check(2, 9)

    def test_other_gpus_unaffected(self):
        plan = FaultPlan({2: 0})
        plan.check(0, 100)
        plan.check(1, 100)


class TestEngineIntegration:
    def test_bsp_crash_mid_run(self, small_graph, ctx):
        pg = partition(small_graph, "cvc", 4)
        eng = BSPEngine(
            pg, bridges(4), get_app("bfs"), check_memory=False,
            fault_plan=FaultPlan({1: 2}),
        )
        with pytest.raises(SimulatedCrashError):
            eng.run(ctx)

    def test_bsp_no_crash_without_plan(self, small_graph, ctx):
        pg = partition(small_graph, "cvc", 4)
        res = BSPEngine(
            pg, bridges(4), get_app("bfs"), check_memory=False,
        ).run(ctx)
        assert res.stats.rounds > 0

    def test_crash_after_convergence_never_fires(self, small_graph, ctx):
        pg = partition(small_graph, "cvc", 4)
        eng = BSPEngine(
            pg, bridges(4), get_app("bfs"), check_memory=False,
            fault_plan=FaultPlan({0: 10_000}),
        )
        res = eng.run(ctx)  # converges long before round 10k
        assert res.stats.rounds < 10_000

    def test_basp_crash(self, small_graph, ctx):
        pg = partition(small_graph, "cvc", 4)
        eng = BASPEngine(
            pg, bridges(4), get_app("sssp"), check_memory=False,
            fault_plan=FaultPlan({0: 1}),
        )
        with pytest.raises(SimulatedCrashError):
            eng.run(ctx)

    def test_scaling_driver_records_crash_as_missing(self, small_graph, ctx):
        """The study's missing-point path handles crashes like the paper."""
        from repro.generators import load_dataset
        from repro.runtime.cells import SystemSpec
        from repro.study import strong_scaling

        ds = load_dataset("tiny-s")
        res = strong_scaling(
            {"crashy": SystemSpec.dirgl(policy="cvc")},
            "bfs", ds, gpu_counts=(2,), fault_plan=((0, 0),),
        )
        assert res.times("crashy") == [None]
        assert res.points["crashy"][0].failure.startswith(
            "crash: GPU 0 crashed at round 0"
        )
