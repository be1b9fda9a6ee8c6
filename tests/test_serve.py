"""The analytics service: queueing, traffic, and the event loop."""

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve.cli import main as serve_main
from repro.serve.cli import run_trace
from repro.serve.queueing import WFQQueue
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

    @pytest.mark.parametrize("weights", [
        {"c0": math.nan},
        {"c0": math.inf},
        {"c0": 0.0},
        {"c9": 2.0},
    ], ids=repr)
    def test_a_bad_client_weight_is_refused_when_built(self, weights):
        # let through, a NaN weight starves its client, a zero one stops
        # the run mid-way in WFQQueue.set_weight, and a client the trace
        # never generates is silently ignored
        with pytest.raises(ConfigurationError, match="client_weights"):
            TrafficConfig(num_clients=4, client_weights=weights)


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
    return run_trace(trace, ServeConfig(workers=2))


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
        again = run_trace(trace, ServeConfig(workers=2))
        assert again.to_json() == report.to_json()

    def test_naive_baseline_runs_everything(self, trace):
        naive = run_trace(trace, ServeConfig(workers=2, naive=True))
        c = naive.counters
        assert c["coalesced"] == 0
        assert c["cache_hits"] == 0
        assert c["delta_runs"] == 0
        assert c["executions"] == c["requests"]  # every request runs

    def test_serve_beats_naive_on_median_latency(self, trace, report):
        naive = run_trace(trace, ServeConfig(workers=2, naive=True))
        assert report.latency["median"] < naive.latency["median"]

    def test_admission_sheds_load_under_pressure(self, trace):
        cfg = ServeConfig(workers=1, max_queue_depth=1, naive=True)
        rep = run_trace(trace, cfg)
        c = rep.counters
        assert c["rejected"] > 0
        # naive: nothing is cached or coalesced, so every request meets
        # the door
        assert c["admitted"] + c["rejected"] == c["requests"]
        rejected = [r for r in rep.requests if r["served_by"] == "rejected"]
        assert len(rejected) == rep.counters["rejected"]
        assert all(r["latency"] is None for r in rejected)

    def test_incremental_verified_against_full(self, trace):
        # differential mode re-runs every delta through the engine and
        # raises on any label divergence — completing cleanly IS the test
        cfg = ServeConfig(workers=2, verify_incremental=True)
        rep = run_trace(trace, cfg)
        assert rep.counters["failed"] == 0

    def test_mutation_invalidates_result_cache(self, trace):
        rep = run_trace(trace, ServeConfig(workers=2))
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
        from repro.runtime import cells

        requests = list(trace.requests)
        i = next(i for i, r in enumerate(requests) if r.app == "bfs")
        requests[i] = dataclasses.replace(requests[i], params=(("source", -1),))
        bad_rid = requests[i].rid
        failed = []
        real_run_task = cells.run_task

        def spying_run_task(spec):
            out = real_run_task(spec)
            if not out.ok:
                failed.append(out)
            return out

        monkeypatch.setattr(cells, "run_task", spying_run_task)
        rep = run_trace(
            dataclasses.replace(trace, requests=requests),
            ServeConfig(workers=2),
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


#: apps whose labels are bit-identical however the graph was partitioned
#: (a patched partitioning legitimately reorders pr's float sums)
EXACT_APPS = frozenset({"bfs", "bfs-do", "sssp", "cc", "cc-pj"})


class TestServedAnswersAreExact:
    """An answer does not depend on how it was produced: every served
    label CRC equals a from-scratch run on the snapshot its request saw
    at arrival, whether it was executed, coalesced or cached."""

    TRAFFIC = TrafficConfig(
        seed=11, num_clients=4, num_requests=60, mean_interarrival=0.002,
        apps=("bfs", "cc", "pr", "sssp"), graphs=((8, 8.0),), mutate_every=5,
    )
    PARTS = 4

    def _from_scratch(self, trace, config, tmp_path) -> dict:
        """rid -> the CRC one from-scratch run gives its arrival snapshot."""
        from repro.graph.store import write_csr_store
        from repro.partition.cache import configure, get_cache, set_cache
        from repro.runtime.cells import CellSpec, SystemSpec, run_task
        from repro.serve.backend import EXECUTION, PLATFORM

        graphs = trace.build_graphs()
        crcs: dict[tuple, int] = {}
        expected = {}
        found = get_cache()
        configure()  # nothing the served run partitioned is reused
        try:
            for ev in trace.events():
                if isinstance(ev, MutationEvent):
                    graphs[ev.graph_id].apply(batch_from_event(ev))
                    continue
                snapshot = graphs[ev.graph_id].snapshot()
                key = (snapshot.content_hash(), ev.app, ev.params)
                if key not in crcs:
                    path = str(tmp_path / f"{key[0][:16]}.csr")
                    write_csr_store(snapshot, path)
                    out = run_task(CellSpec(
                        key=key,
                        system=SystemSpec.dirgl(
                            policy=config.policy, execution=EXECUTION
                        ),
                        benchmark=ev.app,
                        dataset=f"store+ram:{path}",
                        num_gpus=config.parts,
                        platform=PLATFORM,
                        check_memory=False,
                        ctx_overrides=ev.params,
                    ))
                    assert out.ok, out.failure
                    crcs[key] = out.labels_crc
                expected[ev.rid] = crcs[key]
        finally:
            set_cache(found)
        return expected

    @staticmethod
    def _wrong(report, expected, apps) -> tuple[int, int]:
        """(wrong answers, answers checked) among the served requests."""
        served = [
            r for r in report.requests
            if r["served_by"] in ("executed", "coalesced", "cached")
            and r["app"] in apps
        ]
        wrong = sum(r["labels_crc"] != expected[r["rid"]] for r in served)
        return wrong, len(served)

    def test_every_served_answer_equals_a_from_scratch_run(
        self, tmp_path, monkeypatch
    ):
        from repro.graph.mutable import MutableGraph
        from repro.serve.service import _Execution

        trace = generate_trace(self.TRAFFIC)
        config = ServeConfig(workers=2, parts=self.PARTS)
        naive = ServeConfig(workers=2, parts=self.PARTS, naive=True)
        expected = self._from_scratch(trace, config, tmp_path)
        every_app = set(self.TRAFFIC.apps)

        report = run_trace(trace, config)
        c = report.counters
        # the trace exercises every way of producing an answer
        assert min(c["patches"], c["delta_runs"], c["coalesced"],
                   c["cache_hits"]) > 0
        wrong, checked = self._wrong(report, expected, EXACT_APPS)
        assert (wrong, checked) == (0, 52)
        wrong, checked = self._wrong(
            run_trace(trace, naive), expected, every_app
        )
        assert (wrong, checked) == (0, self.TRAFFIC.num_requests)

        # the oracle catches the two bugs a served answer could hide
        plants = {
            "coalescing across versions": [
                (MutableGraph, "version", property(lambda self: 0)),
            ],
            "a result cache keyed without content": [
                (MutableGraph, "content_hash", lambda self: self.name),
                (_Execution, "chash", property(
                    lambda self: self.graph.name, lambda self, value: None
                )),
            ],
        }
        for name, patches in plants.items():
            with monkeypatch.context() as m:
                for owner, attr, value in patches:
                    m.setattr(owner, attr, value)
                planted = run_trace(trace, config)
            wrong, _ = self._wrong(planted, expected, EXACT_APPS)
            assert wrong > 0, f"the oracle missed {name}"


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
        by_argument = run_trace(trace, config, check="cheap")
        with use_check_level("cheap"):
            ambient = run_trace(trace, config)
        assert by_argument.counters["patches"] == 0
        assert ambient.counters["patches"] == 0

    def test_trace_weights_reach_wfq(self):
        # one worker, a burst of arrivals: the queue is deep, so a weight
        # on c0 must pull its executions forward
        shape = dict(
            seed=3, num_clients=4, num_requests=80, mean_interarrival=1e-7,
            apps=("bfs", "cc"), graphs=((9, 8.0),), mutate_every=0,
        )
        config = ServeConfig(workers=1, naive=True)

        def c0_latency(**weights):
            trace = generate_trace(TrafficConfig(**shape, **weights))
            report = run_trace(trace, config)
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
            run_trace(trace, ServeConfig(workers=2))
            assert get_cache() is mine  # the object, its memory LRU included
            # a caller-provided spool outlives the call, and ``run_trace``,
            # which pointed the cache into it, still puts back what it found
            spool = str(tmp_path / "spool")
            run_trace(trace, ServeConfig(workers=2), spool_dir=spool)
            assert get_cache() is mine
        finally:
            configure(cache_dir=None)

    def test_the_spool_holds_partitionings_not_snapshots(self, tmp_path):
        """Every execution runs on the snapshot the service holds, so
        nothing writes a snapshot to disk: the partition cache is all a
        spool holds."""
        trace = generate_trace(TrafficConfig(seed=3, num_requests=20, apps=("bfs",)))
        spool = tmp_path / "spool"
        rep = run_trace(trace, ServeConfig(workers=2), spool_dir=str(spool))
        assert rep.counters["failed"] == 0
        assert [p.name for p in spool.iterdir()] == ["partition-cache"]
        assert list((spool / "partition-cache").glob("*.parts"))


class TestServedStateLivesForItsBatch:
    def test_no_batch_leaves_partitionings_or_datasets_behind(self, monkeypatch):
        """The spool is the only cache that outlives an execution: every
        ``run_batch`` returns with the partition cache's memory tier empty,
        and no served snapshot stays in the dataset loader's memo once
        ``run_trace`` returns."""
        from repro.generators.datasets import load_dataset
        from repro.partition.cache import get_cache
        from repro.serve.backend import ExecBackend

        after: list[int] = []
        run_batch = ExecBackend.run_batch

        def counting(self, task):
            result = run_batch(self, task)
            after.append(len(get_cache()))
            return result

        monkeypatch.setattr(ExecBackend, "run_batch", counting)
        trace = generate_trace(TrafficConfig(
            seed=5, num_requests=80, mean_interarrival=0.002, mutate_every=10,
        ))
        before = load_dataset.cache_info().currsize
        rep = run_trace(
            trace, ServeConfig(workers=2, verify_incremental=True)
        )
        assert rep.counters["failed"] == 0
        assert after and after == [0] * len(after)
        assert load_dataset.cache_info().currsize == before

    def test_the_memo_keeps_no_labels(self, monkeypatch):
        """A physical memo hit answers with the run's cost, CRC, rounds and
        failure; a label array kept per content key would grow with the
        trace and nothing reads it."""
        from repro.serve.backend import ExecBackend

        backends = {}
        run_batch = ExecBackend.run_batch

        def capturing(self, task):
            backends[id(self)] = self
            return run_batch(self, task)

        monkeypatch.setattr(ExecBackend, "run_batch", capturing)
        trace = generate_trace(TrafficConfig(
            seed=5, num_requests=80, mean_interarrival=0.002, mutate_every=10,
        ))
        rep = run_trace(trace, ServeConfig(workers=2))
        assert rep.counters["failed"] == 0
        (backend,) = backends.values()
        assert backend._memo
        for hit in backend._memo.values():
            assert not any(isinstance(v, np.ndarray) for v in vars(hit).values())


class TestSpoolReuse:
    def test_a_damaged_spool_entry_is_rewritten_not_trusted(self, tmp_path):
        """A spool outlives its run; a later run that finds one flipped
        byte in a partition-cache entry discards it (a CRC mismatch),
        rebuilds and stores the partitioning over it, and serves the same
        answers."""
        from repro import obs
        from repro.graph.container import read_header
        from repro.partition.io import _FORMAT

        trace = generate_trace(TrafficConfig(seed=3, num_requests=20, apps=("bfs",)))
        spool = str(tmp_path / "spool")
        first = run_trace(trace, ServeConfig(workers=2), spool_dir=spool)
        entry = sorted((tmp_path / "spool").glob("partition-cache/*.parts"))[0]
        data = bytearray(entry.read_bytes())
        data[read_header(entry, _FORMAT)["sections"]["vertex_owner"]["offset"]] ^= 0xFF
        entry.write_bytes(bytes(data))
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            second = run_trace(trace, ServeConfig(workers=2), spool_dir=spool)
        assert tracer.counters.get("partition.cache.discarded") == 1
        assert first.counters["failed"] == second.counters["failed"] == 0
        assert [r["labels_crc"] for r in second.requests] == [
            r["labels_crc"] for r in first.requests
        ]


class TestCLI:
    def test_simulate_writes_report_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = serve_main([
            "--seed", "13", "--requests", "24",
            "--graphs", "5:3", "--mean-interarrival", "0.001",
            "--report", str(out), "--quiet",
        ])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["counters"]["failed"] == 0
        assert rep["counters"]["requests"] == 24

    def test_a_served_trace_runs_in_one_process(self, trace, tmp_path):
        with pytest.raises(ConfigurationError, match="jobs must be 1"):
            run_trace(trace, ServeConfig(workers=2), jobs=2)
        # the option is gone: argparse rejects it as a usage error
        with pytest.raises(SystemExit) as exc:
            serve_main(["--jobs", "2", "--report", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    def test_trace_out_round_trips(self, tmp_path):
        out = tmp_path / "trace.json"
        rc = serve_main([
            "--seed", "3", "--requests", "12",
            "--graphs", "5:3",
            "--report", str(tmp_path / "r.json"),
            "--trace-out", str(out), "--quiet",
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data["requests"]) == 12
