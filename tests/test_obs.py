"""Tests for the ``repro.obs`` tracing/observability layer: the tracer
and counter primitives, the Chrome-trace exporter, the ambient tracer
under the engines and ``run_task``, and — crucially — the equivalence
guarantee that tracing never changes simulated results."""

import io
import json
import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.frameworks.dirgl import DIrGL
from repro.generators.datasets import load_dataset
from repro.obs import (
    NULL_TRACER,
    CounterRegistry,
    Tracer,
    read_trace,
    summarize_trace,
    to_chrome,
    write_chrome,
)
from repro.obs.cli import main as trace_cli_main
from repro.obs.cli import summarize_files
from repro.runtime.cells import CellSpec, SystemSpec, run_task


@pytest.fixture(autouse=True)
def clean_obs_state():
    """No test may leak an ambient tracer or trace directory."""
    yield
    obs.set_tracer(None)
    obs.configure(None)


def _cell(key, bench="bfs", system=None, **kw):
    return CellSpec(
        key=key,
        system=system or SystemSpec.dirgl(policy="iec", execution="sync"),
        benchmark=bench,
        dataset="tiny-s",
        num_gpus=2,
        check_memory=False,
        **kw,
    )


class TestTracer:
    def test_span_records_duration_and_args(self):
        tr = Tracer()
        ev = tr.begin("compute", "compute", tid=2, args={"round": 0})
        tr.end(ev, edges=10)
        (rec,) = tr.events()
        assert rec["ph"] == "X"
        assert rec["tid"] == 2
        assert rec["dur"] >= 0
        assert rec["args"] == {"round": 0, "edges": 10}

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        assert tr.begin("a", "b") is None
        tr.end(None)  # must be a silent no-op
        tr.instant("i", "c")
        tr.count("n")
        tr.thread_name(0, "lane")
        assert len(tr) == 0
        assert len(tr.counters) == 0
        assert tr.thread_names() == {}

    def test_null_tracer_is_disabled(self):
        assert not NULL_TRACER.enabled
        assert len(NULL_TRACER) == 0

    def test_instant_is_thread_scoped(self):
        tr = Tracer()
        tr.instant("round_sim", "round", tid=1, args={"round": 3})
        (rec,) = tr.events()
        assert rec["ph"] == "i" and rec["s"] == "t" and rec["tid"] == 1

    def test_thread_safety(self):
        tr = Tracer()

        def work(tid):
            for _ in range(200):
                ev = tr.begin("s", "c", tid=tid)
                tr.end(ev)
                tr.count("n")

        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tr) == 8 * 200
        assert tr.counters.get("n") == 8 * 200


class TestCounterRegistry:
    def test_add_set_get(self):
        c = CounterRegistry()
        c.add("msgs")
        c.add("msgs", 2)
        c.set("bytes", 64)
        assert c.get("msgs") == 3
        assert c.get("bytes") == 64
        assert c.get("missing", -1) == -1
        assert "msgs" in c and "missing" not in c
        assert len(c) == 2

    def test_update_with_prefix_accumulates(self):
        c = CounterRegistry()
        c.update({"rounds": 5}, prefix="engine.")
        c.update({"rounds": 2}, prefix="engine.")
        assert c.as_dict() == {"engine.rounds": 7}


class TestAmbientTracer:
    def test_default_is_off(self):
        assert obs.current_tracer() is NULL_TRACER
        assert obs.active_trace_dir() is None

    def test_set_tracer_returns_previous_and_normalizes_disabled(self):
        t = Tracer()
        assert obs.set_tracer(t) is NULL_TRACER
        assert obs.current_tracer() is t
        # off has one spelling, whichever way it is asked for
        assert obs.set_tracer(Tracer(enabled=False)) is t
        assert obs.current_tracer() is NULL_TRACER
        obs.set_tracer(t)
        obs.set_tracer(None)
        assert obs.current_tracer() is NULL_TRACER

    def test_use_tracer_restores(self):
        outer = Tracer()
        obs.set_tracer(outer)
        with obs.use_tracer(Tracer()) as inner:
            assert obs.current_tracer() is inner
        assert obs.current_tracer() is outer

    def test_configure_creates_directory(self, tmp_path):
        target = tmp_path / "a" / "traces"
        obs.configure(trace_dir=target)
        assert os.path.isdir(target)
        assert obs.active_trace_dir() == str(target)
        obs.configure(None)
        assert obs.active_trace_dir() is None


def _demo_tracer() -> Tracer:
    """A small hand-built trace with every event kind the stack emits."""
    tr = Tracer(pid=7)
    tr.thread_name(0, "partition 0")
    tr.thread_name(1, "engine")
    ev = tr.begin("compute", "compute", tid=0, args={"round": 0})
    tr.end(ev, edges=10)
    tr.instant(
        "round_sim",
        "round",
        tid=1,
        args={
            "round": 0,
            "compute_s": [0.5, 0.25],
            "wait_s": [0.0, 0.25],
            "device_s": [0.1, 0.1],
        },
    )
    tr.instant(
        "run_summary",
        "engine",
        tid=1,
        args={
            "execution_time": 1.0,
            "max_compute": 0.5,
            "min_wait": 0.0,
            "device_comm": 0.2,
            "rounds": 1,
            "num_messages": 3,
            "comm_volume_bytes": 24,
        },
    )
    tr.count("comm.reduce.rank.messages", 3)
    return tr


class TestExport:
    def test_to_chrome_shape(self):
        doc = to_chrome(_demo_tracer(), process_name="demo")
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["name"] == "process_name"
        assert meta[0]["args"]["name"] == "demo"
        lanes = {e["tid"]: e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert lanes == {0: "partition 0", 1: "engine"}
        counters = [e for e in events if e["ph"] == "C"]
        assert counters[0]["name"] == "comm.reduce.rank.messages"
        assert counters[0]["args"]["value"] == 3
        assert all(e["pid"] == 7 for e in events)

    def test_write_chrome_read_trace_round_trip(self, tmp_path):
        path = tmp_path / "demo.trace.json"
        assert write_chrome(_demo_tracer(), path) == str(path)
        assert not os.path.exists(f"{path}.tmp")  # atomic rename cleaned up
        events = read_trace(path)
        assert {e["ph"] for e in events} == {"M", "X", "i", "C"}
        # the file is plain JSON, loadable by Perfetto / chrome://tracing
        with open(path) as f:
            assert "traceEvents" in json.load(f)

    def test_read_trace_bare_array_form(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([{"ph": "X", "name": "s"}]))
        assert read_trace(path) == [{"ph": "X", "name": "s"}]

    def test_summarize_trace(self):
        summary = summarize_trace(to_chrome(_demo_tracer())["traceEvents"])
        assert summary["run_summary"]["rounds"] == 1
        assert summary["run_summary"]["execution_time"] == 1.0
        assert summary["per_partition_sim"]["compute_s"] == [0.5, 0.25]
        assert summary["span_counts"]["compute"] == 1
        assert summary["counters"]["comm.reduce.rank.messages"] == 3
        assert summary["wall_us_by_cat"]["compute"] >= 0


class TestEngineTracing:
    """The acceptance path: a 4-GPU BSP pagerank cell traced end to end."""

    @pytest.fixture(scope="class")
    def traced_pr(self):
        ds = load_dataset("tiny-s")
        tracer = Tracer()
        with obs.use_tracer(tracer):
            res = DIrGL(policy="iec", execution="sync").run(
                "pr", ds, 4, check_memory=False
            )
        return tracer, res

    def test_compute_spans_cover_every_round_and_partition(self, traced_pr):
        tracer, res = traced_pr
        compute = [e for e in tracer.events() if e["name"] == "compute"]
        pairs = {(e["args"]["round"], e["tid"]) for e in compute}
        # pagerank keeps every partition active every round, so the trace
        # must hold one compute span per (round, partition) pair
        assert pairs == {
            (r, p) for r in range(res.stats.rounds) for p in range(4)
        }
        assert len(compute) == 4 * res.stats.rounds

    def test_sync_spans_and_engine_lane(self, traced_pr):
        tracer, res = traced_pr
        cats = {e["cat"] for e in tracer.events() if e["ph"] == "X"}
        assert {"compute", "sync", "round", "engine"} <= cats
        lanes = tracer.thread_names()
        assert lanes[4] == "engine"
        assert lanes[0].startswith("partition")

    def test_run_summary_matches_stats(self, traced_pr):
        tracer, res = traced_pr
        summary = summarize_trace(to_chrome(tracer)["traceEvents"])
        run = summary["run_summary"]
        assert run["rounds"] == res.stats.rounds
        assert run["execution_time"] == res.stats.execution_time
        assert run["num_messages"] == res.stats.num_messages
        assert run["comm_volume_bytes"] == res.stats.comm_volume_bytes
        # GluonComm recorded per-field message/byte counters
        assert any(k.startswith("comm.") for k in summary["counters"])

    @pytest.mark.parametrize("execution", ["sync", "async"])
    def test_tracing_does_not_change_results(self, execution):
        ds = load_dataset("tiny-s")

        def go(tracer):
            fw = DIrGL(policy="iec", execution=execution)
            if tracer is None:
                return fw.run("pr", ds, 4, check_memory=False)
            with obs.use_tracer(tracer):
                return fw.run("pr", ds, 4, check_memory=False)

        base = go(None)
        for res in (go(Tracer()), go(Tracer(enabled=False))):
            assert res.stats.execution_time == base.stats.execution_time
            assert res.stats.rounds == base.stats.rounds
            assert res.stats.num_messages == base.stats.num_messages
            assert res.stats.comm_volume_bytes == base.stats.comm_volume_bytes
            assert np.array_equal(res.labels, base.labels)


class TestRunTaskTracing:
    def test_run_task_exports_per_cell_trace(self, tmp_path):
        obs.configure(trace_dir=tmp_path)
        out = run_task(_cell(("fig", "x", 2)))
        assert out.ok
        path = out.extra["trace_path"]
        assert os.path.basename(path) == "fig-x-2.trace.json"
        summary = summarize_trace(read_trace(path))
        assert summary["cell"]["key"] == str(("fig", "x", 2))
        assert summary["cell"]["ok"] is True
        assert summary["run_summary"]["rounds"] == out.stats.rounds
        # the per-cell tracer was ambient only for the cell's duration
        assert obs.current_tracer() is NULL_TRACER

    def test_run_task_without_trace_dir_writes_nothing(self):
        out = run_task(_cell("plain"))
        assert out.ok
        assert "trace_path" not in out.extra

    def test_ambient_tracer_takes_precedence_over_trace_dir(self, tmp_path):
        obs.configure(trace_dir=tmp_path)
        tracer = Tracer()
        with obs.use_tracer(tracer):
            out = run_task(_cell("shared"))
        assert out.ok
        # the caller's tracer got the events; no per-cell file was written
        assert "trace_path" not in out.extra
        assert any(e["name"] == "cell" for e in tracer.events())
        assert os.listdir(tmp_path) == []


class TestTraceCLI:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "demo.trace.json"
        write_chrome(_demo_tracer(), path, process_name="demo")
        return path

    def test_summarize_files_prints_tables(self, trace_path):
        buf = io.StringIO()
        (summary,) = summarize_files([trace_path], out=buf)
        text = buf.getvalue()
        assert "simulated breakdown" in text
        assert "per-partition simulated seconds" in text
        assert "wall-clock by span category" in text
        assert "counters" in text
        assert summary["run_summary"]["rounds"] == 1

    def test_cli_summarize(self, trace_path, capsys):
        assert trace_cli_main(["summarize", str(trace_path), "--json"]) == 0
        out = capsys.readouterr().out
        assert "simulated breakdown" in out
        assert '"rounds": 1' in out

    def test_cli_csv(self, trace_path, tmp_path):
        out_csv = tmp_path / "t.csv"
        assert trace_cli_main(["csv", str(trace_path), "-o", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "ph,name,cat,pid,tid,ts_us,dur_us,args"
        assert any(line.startswith("M,process_name") for line in lines)
        assert any(line.startswith("X,compute") for line in lines)
        assert any(line.startswith("C,comm.reduce.rank.messages") for line in lines)

    @pytest.mark.parametrize("damage,command", [
        *(
            (damage, command)
            for damage in (
                "missing", "truncated", "null", "events-not-a-list",
                "event-not-an-object",
            )
            for command in ("summarize", "csv")
        ),
        # csv copies an event's fields as they are; summarize reads them
        ("span-duration-not-a-number", "summarize"),
        ("summary-args-not-an-object", "summarize"),
    ])
    def test_cli_reports_a_bad_trace_file(self, trace_path, command, damage, capsys):
        if damage == "missing":
            trace_path.unlink()
        elif damage == "truncated":
            trace_path.write_text(trace_path.read_text()[:40])
        else:
            trace_path.write_text({
                "null": "null",
                "events-not-a-list": '{"traceEvents": 5}',
                "event-not-an-object": "[1, 2]",
                "span-duration-not-a-number":
                    '[{"ph": "X", "cat": "c", "name": "n", "dur": "x"}]',
                "summary-args-not-an-object":
                    '[{"ph": "i", "name": "run_summary", "args": 5}]',
            }[damage])
        assert trace_cli_main([command, str(trace_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigurationError: cannot read trace {trace_path}")

    def test_csv_into_a_missing_directory_is_a_usage_error(
        self, trace_path, tmp_path, capsys
    ):
        out_csv = tmp_path / "nope" / "t.csv"
        assert trace_cli_main(["csv", str(trace_path), "-o", str(out_csv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigurationError: cannot write {out_csv}")
