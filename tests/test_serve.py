"""The analytics service: queueing, traffic, and the event loop."""

import json

import numpy as np
import pytest

from repro.serve.cli import main as serve_main
from repro.serve.cli import run_trace
from repro.serve.queueing import AdmissionController, WFQQueue
from repro.serve.service import ServeConfig
from repro.serve.traffic import (
    MutationEvent,
    Request,
    TrafficConfig,
    batch_from_event,
    generate_trace,
)


class TestWFQ:
    def test_fifo_within_one_flow(self):
        q = WFQQueue()
        for item in "abc":
            q.push("c0", item)
        assert [q.pop(), q.pop(), q.pop()] == ["a", "b", "c"]
        assert q.pop() is None

    def test_heavier_flow_drains_first(self):
        q = WFQQueue()
        q.set_weight("heavy", 3.0)
        q.push("light", "l1")
        q.push("heavy", "h1")
        q.push("light", "l2")
        q.push("heavy", "h2")
        # finish tags: light 1, 2; heavy 1/3, 2/3
        assert [q.pop() for _ in range(4)] == ["h1", "h2", "l1", "l2"]

    def test_equal_weights_interleave_by_arrival(self):
        q = WFQQueue()
        q.push("a", "a1")
        q.push("b", "b1")
        q.push("a", "a2")
        q.push("b", "b2")
        assert [q.pop() for _ in range(4)] == ["a1", "b1", "a2", "b2"]

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WFQQueue().set_weight("x", 0.0)

    def test_idle_flow_does_not_bank_credit(self):
        q = WFQQueue()
        q.push("a", "a1")
        q.pop()  # virtual clock advances to a's finish tag
        q.push("b", "b1")
        q.push("a", "a2")
        # b gets max(V, 0) + 1 = a's tag basis: no starvation of a
        assert q.pop() == "b1"
        assert q.pop() == "a2"


class TestAdmission:
    def test_depth_cap(self):
        a = AdmissionController(max_queue_depth=2)
        assert a.admit(0) and a.admit(1)
        assert not a.admit(2)
        assert (a.admitted, a.rejected) == (2, 1)


class TestTraffic:
    def test_trace_is_deterministic(self):
        cfg = TrafficConfig(seed=9, num_requests=40)
        assert generate_trace(cfg).to_json() == generate_trace(cfg).to_json()

    def test_events_time_ordered(self):
        trace = generate_trace(TrafficConfig(seed=2, num_requests=50,
                                             mutate_every=10))
        times = [e.time for e in trace.events()]
        assert times == sorted(times)
        assert trace.mutations  # the mutation axis actually fired

    def test_deletes_reference_live_edges(self):
        trace = generate_trace(TrafficConfig(seed=4, num_requests=40,
                                             mutate_every=10))
        graphs = trace.build_graphs()
        for ev in trace.events():
            if isinstance(ev, MutationEvent):
                g = graphs[ev.graph_id]
                src, dst = g.edge_list()
                live = set(zip(src.tolist(), dst.tolist()))
                for pair in zip(ev.delete_src, ev.delete_dst):
                    assert pair in live
                g.apply(batch_from_event(ev))

    def test_source_params_in_range(self):
        trace = generate_trace(TrafficConfig(seed=5, num_requests=60))
        graphs = trace.build_graphs()
        for r in trace.requests:
            for name, value in r.params:
                if name == "source":
                    assert 0 <= value < graphs[r.graph_id].num_vertices


# a small, fast, coalesce-heavy workload shared by the service tests
TRAFFIC = TrafficConfig(
    seed=13, num_requests=36, num_clients=3, mean_interarrival=0.001,
    apps=("bfs", "cc", "pr"), graphs=((5, 3.0), (6, 3.0)), mutate_every=12,
)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TRAFFIC)


@pytest.fixture(scope="module")
def report(trace):
    return run_trace(trace, ServeConfig(workers=2), jobs=1)


class TestService:
    def test_all_requests_accounted(self, trace, report):
        c = report.counters
        assert c["requests"] == TRAFFIC.num_requests
        assert len(report.requests) == TRAFFIC.num_requests
        assert c["failed"] == 0
        served = [r for r in report.requests if r["served_by"] != "rejected"]
        assert all(r["latency"] is not None for r in served)

    def test_mutations_applied(self, trace, report):
        assert report.counters["mutations"] == len(trace.mutations)

    def test_coalescing_and_caching_fire(self, report):
        assert report.counters["coalesced"] > 0
        assert report.counters["cache_hits"] > 0
        # far fewer physical executions than requests
        assert report.counters["executions"] < report.counters["requests"]

    def test_latencies_are_simulated_and_positive(self, report):
        lat = report.latency
        assert lat["count"] > 0
        assert 0 < lat["median"] <= lat["p90"] <= lat["max"]
        assert lat["makespan"] > 0

    def test_report_byte_identical_across_fresh_services(self, trace, report):
        again = run_trace(trace, ServeConfig(workers=2), jobs=1)
        assert again.to_json() == report.to_json()

    def test_naive_baseline_runs_everything(self, trace):
        naive = run_trace(trace, ServeConfig.naive(workers=2), jobs=1)
        c = naive.counters
        assert c["coalesced"] == 0
        assert c["cache_hits"] == 0
        assert c["delta_runs"] == 0
        assert c["executions"] == c["requests"]  # every request runs

    def test_serve_beats_naive_on_median_latency(self, trace, report):
        naive = run_trace(trace, ServeConfig.naive(workers=2), jobs=1)
        assert report.latency["median"] < naive.latency["median"]

    def test_admission_sheds_load_under_pressure(self, trace):
        cfg = ServeConfig(
            workers=1, max_queue_depth=1, coalesce=False,
            result_cache_entries=0, incremental=False, patch_mode="never",
        )
        rep = run_trace(trace, cfg, jobs=1)
        assert rep.counters["rejected"] > 0
        rejected = [r for r in rep.requests if r["served_by"] == "rejected"]
        assert len(rejected) == rep.counters["rejected"]
        assert all(r["latency"] is None for r in rejected)

    def test_incremental_verified_against_full(self, trace):
        # differential mode re-runs every delta through the engine and
        # raises on any label divergence — completing cleanly IS the test
        cfg = ServeConfig(workers=2, verify_incremental=True)
        rep = run_trace(trace, cfg, jobs=1)
        assert rep.counters["failed"] == 0

    def test_mutation_invalidates_result_cache(self, trace):
        rep = run_trace(trace, ServeConfig(workers=2), jobs=1)
        # group served results by (graph, app, params); across a mutation
        # the content hash changes, so crc streams may change but every
        # request in between serves a consistent answer
        by_key = {}
        for r in rep.requests:
            if r["served_by"] == "rejected" or r["labels_crc"] is None:
                continue
            by_key.setdefault(
                (r["graph_id"], r["app"], tuple(map(tuple, r["params"]))),
                [],
            ).append(r["labels_crc"])
        assert any(len(set(v)) > 1 for v in by_key.values()), (
            "mutations never changed any served answer — staleness "
            "regression would be invisible to this workload"
        )


    def test_an_out_of_range_source_fails_that_request_only(
        self, trace, monkeypatch
    ):
        """A request at ``("source", -1)`` names no vertex: its run is a
        ``ConfigurationError`` and the request is reported failed, while
        every other request of the trace is still served."""
        import dataclasses

        from repro.errors import ConfigurationError
        from repro.runtime.sweep import SweepExecutor

        requests = list(trace.requests)
        i = next(i for i, r in enumerate(requests) if r.app == "bfs")
        requests[i] = dataclasses.replace(requests[i], params=(("source", -1),))
        bad_rid = requests[i].rid
        failed = []
        real_map = SweepExecutor.map

        def spying_map(self, specs, *args, **kwargs):
            outcomes = real_map(self, specs, *args, **kwargs)
            failed.extend(out for out in outcomes if not out.ok)
            return outcomes

        monkeypatch.setattr(SweepExecutor, "map", spying_map)
        rep = run_trace(
            dataclasses.replace(trace, requests=requests),
            ServeConfig(workers=2), jobs=1,
        )
        assert rep.counters["failed"] == 1
        for r in rep.requests:
            if r["rid"] == bad_rid:
                assert r["served_by"] == "failed"
            else:
                assert r["served_by"] in ("executed", "coalesced", "cached")
                assert r["labels_crc"] is not None
        assert len(failed) == 1
        assert failed[0].failure_kind == ConfigurationError.kind
        with pytest.raises(ConfigurationError, match=r"source vertex -1\b"):
            failed[0].raise_failure()


class TestEachSettingHasOneRoute:
    """A setting reaches the service one way, so the route that installed
    it cannot change a decision."""

    def test_patch_gate_reads_the_ambient_check_level(self):
        # patching is off under any check level, whether ``run_trace``
        # installed it or the caller did
        from repro.check import use_check_level

        trace = generate_trace(TrafficConfig(
            seed=11, num_clients=4, num_requests=60, mean_interarrival=0.002,
            apps=("bfs", "cc", "pr", "sssp"), graphs=((8, 8.0),),
            mutate_every=5,
        ))
        config = ServeConfig(workers=2, parts=4)
        by_argument = run_trace(trace, config, jobs=1, check="cheap")
        with use_check_level("cheap"):
            ambient = run_trace(trace, config, jobs=1)
        assert by_argument.counters["patches"] == 0
        assert ambient.counters["patches"] == 0

    def test_trace_weights_reach_wfq(self):
        # one worker, a burst of arrivals: the queue is deep, so a weight
        # on c0 must pull its executions forward
        shape = dict(
            seed=3, num_clients=4, num_requests=80, mean_interarrival=1e-7,
            apps=("bfs", "cc"), graphs=((9, 8.0),), mutate_every=0,
        )
        config = ServeConfig.naive(workers=1)

        def c0_latency(**weights):
            trace = generate_trace(TrafficConfig(**shape, **weights))
            report = run_trace(trace, config, jobs=1)
            return report.per_client["c0"]["mean_latency"]

        assert c0_latency(client_weights={"c0": 8.0}) < c0_latency()


class TestRunTraceLeavesNoTrace:
    def test_own_spool_restores_the_partition_cache_it_found(
        self, trace, tmp_path
    ):
        """``run_trace`` deletes the spool it creates, so it may not leave
        the process-wide partition cache pointing into it (the next
        ``partition()`` would fail to persist — gates depended on their
        order because of it)."""
        from repro.partition.cache import configure, get_cache

        mine = configure(cache_dir=str(tmp_path / "mine"))
        try:
            run_trace(trace, ServeConfig(workers=2), jobs=1)
            assert get_cache() is mine  # the object, its memory LRU included
            # a caller-provided spool outlives the call, and the executor
            # that pointed the cache into it still puts back what it found
            spool = str(tmp_path / "spool")
            run_trace(trace, ServeConfig(workers=2), jobs=1, spool_dir=spool)
            assert get_cache() is mine
        finally:
            configure(cache_dir=None)


class TestCLI:
    def test_simulate_writes_report_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = serve_main([
            "--simulate", "--seed", "13", "--requests", "24",
            "--graphs", "5:3", "--mean-interarrival", "0.001",
            "--jobs", "1", "--report", str(out), "--quiet",
        ])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["counters"]["failed"] == 0
        assert rep["counters"]["requests"] == 24

    def test_trace_out_round_trips(self, tmp_path):
        out = tmp_path / "trace.json"
        rc = serve_main([
            "--simulate", "--seed", "3", "--requests", "12",
            "--graphs", "5:3", "--jobs", "1",
            "--report", str(tmp_path / "r.json"),
            "--trace-out", str(out), "--quiet",
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data["requests"]) == 12
