"""Self-checks of the benchmark harness on ``tiny-s``-sized inputs.

Run explicitly (it is not part of tier-1)::

    PYTHONPATH=src:. python -m pytest benchmarks/perf/test_harness.py -q
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.perf import cli, compare, harness, layers, spans, verify, workloads
from benchmarks.perf.workloads import CellWorkload, _dirgl, pick_source

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# --------------------------------------------------------------------- #
# self-time arithmetic
# --------------------------------------------------------------------- #
class TickClock:
    """Every reading is one second after the previous one."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_nested_children_subtracted_once():
    rec = spans.SpanRecorder(clock=TickClock())
    leaf = rec.wrap(lambda: None, "leaf")
    mid = rec.wrap(lambda: (leaf(), leaf()), "mid")
    rec.call("root", lambda: (mid(), leaf()))

    seconds, calls = spans.self_times(rec.spans)
    durations = {}
    for key, _, t0, t1 in rec.spans:
        durations.setdefault(key, []).append(t1 - t0)
    # each leaf spans one tick; mid holds two leaves between its own ticks
    assert durations["leaf"] == [1.0, 1.0, 1.0]
    assert durations["mid"] == [5.0]
    assert durations["root"] == [9.0]
    assert calls == {"root": 1, "mid": 1, "leaf": 3}
    assert seconds == {"leaf": 3.0, "mid": 3.0, "root": 3.0}
    assert sum(seconds.values()) == durations["root"][0]


def test_self_time_recursion_charged_once():
    rec = spans.SpanRecorder(clock=TickClock())

    def fact(n):
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = rec.wrap(fact, "fact")
    assert rec.call("root", wrapped, 4) == 24

    seconds, calls = spans.self_times(rec.spans)
    root = next(t1 - t0 for key, _, t0, t1 in rec.spans if key == "root")
    assert calls["fact"] == 5
    # five nested frames, two ticks each, the innermost one tick: the
    # outer frames must not be charged for the inner ones again
    assert seconds["fact"] == 9.0
    assert seconds["fact"] + seconds["root"] == root


def test_tail_needs_ten_samples_beyond():
    median, value, pct = layers.tail(range(100))
    assert (median, value, pct) == (49.5, 89, 90.0)
    # too few samples for any tail: fall back to the (upper) median
    median, value, pct = layers.tail([3, 1, 2, 4])
    assert pct == 50.0 and value >= median


# --------------------------------------------------------------------- #
# a tiny workload to drive the real run shape
# --------------------------------------------------------------------- #
class TinyWorkload(CellWorkload):
    name = "tiny"
    why = "harness self-test"
    #: None | "label" | "rounds" | "request"
    fault = None

    def prepare(self, seed):
        from repro.generators.datasets import load_dataset
        from repro.partition.cache import configure
        from repro.runtime.cells import CellSpec

        load_dataset.cache_clear()
        configure()
        source = pick_source(load_dataset("tiny-s").graph, seed)
        self.specs, self.seeded, self.collected = [], [], 0
        for app in ("bfs", "cc", "pr"):
            self._add(
                CellSpec(
                    key=(app, "cvc"), system=_dirgl("cvc", "var3"),
                    benchmark=app, dataset="tiny-s", num_gpus=2,
                    ctx_overrides=(("source", source),) if app == "bfs" else (),
                    keep_labels=True,
                ),
                seeded=app == "bfs",
            )

    def collect(self, outcomes):
        out = super().collect(outcomes)
        self.collected += 1
        op = out.ops[0]
        if self.fault == "label":
            op.labels = op.labels.copy()
            op.labels[0] += 1
        elif self.fault == "rounds" and self.collected == 2:
            op.fp["rounds"] += 1
        elif self.fault == "request" and self.collected == 3:
            op.failure = "failed"
        return out


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TinyWorkload)
    monkeypatch.setattr(TinyWorkload, "fault", None)
    return TinyWorkload


def _run_tiny(capsys, trace=0):
    code = cli.main(["--workload", "tiny", "--seconds", "0", "--trace", str(trace)])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, line


def test_healthy_run_passes_and_reports_every_metric(tiny, capsys):
    code, line = _run_tiny(capsys)
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert line["attempted"] == 3 * (1 + harness.MIN_PASSES)
    assert list(line["metrics"]) == [name for name, *_ in harness.END_TO_END]
    assert all(m["value"] > 0 for m in line["metrics"].values())

    code, line = _run_tiny(capsys, trace=1)
    assert code == 0 and line["correct"]
    assert list(line["metrics"]) == [name for name, *_ in layers.PER_LAYER]
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["runtime.cells"] == 3 and m["engine.rounds"] > 0
    assert m["apps.compute_s"] > 0 and m["comm.extract_s"] > 0
    assert m["trace.unattributed_frac"] <= 0.15


def test_times_are_divided_by_the_host_calibration(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "calibrate", lambda: 2 * harness.CAL_REF_S)
    r = harness.run_workload("tiny", 11, 0, False, str(tmp_path), time.perf_counter())
    assert r["host_x"] == 2 and r["passes"] == 3
    e, raw = r["end_to_end"], r["raw"]
    assert e["wall_s"]["value"] == pytest.approx(raw["wall_s"] / 2)
    assert e["cpu_s"]["value"] == pytest.approx(raw["cpu_s"] / 2)
    assert e["setup_s"]["value"] == pytest.approx(raw["setup_s"] / 2)
    assert e["ops_per_s"]["value"] == pytest.approx(2 * 3 / raw["wall_s"])


@pytest.mark.parametrize("fault", ["label", "rounds", "request"])
def test_planted_fault_fails_the_run(tiny, capsys, monkeypatch, fault):
    monkeypatch.setattr(tiny, "fault", fault)
    code, line = _run_tiny(capsys)
    assert code == 1
    assert not line["correct"] and line["failed"] > 0
    assert line["failed"] / line["attempted"] > 0


def test_boundaries_restored_after_traced_pass_and_after_exception(tiny, tmp_path):
    table = layers.boundaries()
    before = [spans._get_raw(owner, name) for _, owner, name in table]

    workload = TinyWorkload(str(tmp_path))
    workload.prepare(11)
    out, recorded, outcomes, _ = harness._traced_pass(workload)
    assert len(out.ops) == 3 and len(outcomes) == 3 and len(recorded) > 10
    assert recorded[0][0] == layers.ROOT and recorded[0][1] == -1
    assert all(
        spans._get_raw(owner, name) is raw
        for (_, owner, name), raw in zip(table, before)
    )

    rec = spans.SpanRecorder()
    with pytest.raises(ZeroDivisionError):
        with spans.patched(table, rec):
            import repro.runtime.sweep as sweep

            assert hasattr(sweep.run_task, "__wrapped__")
            rec.call("root", lambda: 1 / 0)
    assert all(
        spans._get_raw(owner, name) is raw
        for (_, owner, name), raw in zip(table, before)
    )
    assert rec.spans[0][0] == "root"  # the span of the failing call is kept


# --------------------------------------------------------------------- #
# inputs are a function of the seed
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["study-cold", "sync-heavy"])
def test_same_seed_same_ops(name, tmp_path):
    def specs(seed):
        w = workloads.make_workload(name, str(tmp_path))
        w.prepare(seed)
        return w.specs

    assert specs(11) == specs(11)
    assert specs(11) != specs(12)


def test_serve_trace_is_byte_identical(tmp_path):
    digests = []
    for seed in (11, 11, 29):
        w = workloads.make_workload("serve-mutating", str(tmp_path))
        w.prepare(seed)
        digests.append(w.trace_digest())
    # the trace is a constant of the workload: no seed reaches it
    assert len(set(digests)) == 1


# --------------------------------------------------------------------- #
# compare, history, manifest
# --------------------------------------------------------------------- #
def _result_file(wall):
    def metric(values):
        return harness.summarize(values)

    return {"results": [{
        "workload": "w", "failed": 0,
        "end_to_end": {
            "wall_s": metric(wall), "cpu_s": metric(wall),
            "ops_per_s": metric([8 / w for w in wall]),
            "peak_rss_mb": metric([100.0]), "setup_s": metric([1.0]),
        },
    }]}


def test_compare_classifies_regressions():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    # the issue's example at the issue's 10 % bound
    assert compare.classify(base, [w * 1.15 for w in base], "lower", 0.10)["verdict"] == "worse"
    assert compare.classify(base, [w * 1.03 for w in base], "lower", 0.10)["verdict"] == "ok"
    assert compare.classify(base, [w / 1.15 for w in base], "higher", 0.10)["verdict"] == "worse"

    # through result files, at the bounds the benchmark fixed
    rows = {
        scale: {
            r["metric"]: r["verdict"]
            for r in compare.compare(
                _result_file(base), _result_file([w * scale for w in base])
            )
        }
        for scale in (1.5, 1.03)
    }
    slow = rows[1.5]
    assert slow["wall_s"] == "worse" and slow["ops_per_s"] == "worse"
    assert slow["peak_rss_mb"] == "ok"
    assert set(rows[1.03].values()) == {"ok"}

    noisy = [1.0, 1.3, 0.8, 1.1, 0.9]
    assert compare.classify(noisy, noisy, "lower", 0.10)["verdict"] == "unresolved"
    # spread wider than the bound, but every run of B beats every run of A
    faster = [w * 0.5 for w in noisy]
    assert compare.classify(noisy, faster, "lower", 0.10)["verdict"] == "ok"


def test_history_is_append_only(tmp_path):
    path = str(tmp_path / "history.jsonl")
    cli.append_history([{"workload": "a", "n": 1}], path)
    first = open(path).read()
    cli.append_history([{"workload": "b", "n": 2}], path)
    assert open(path).read().startswith(first)
    assert len(open(path).read().splitlines()) == 2

    with open(path, "a") as f:
        f.write("not json\n")
    with pytest.raises(SystemExit):
        cli.append_history([{"workload": "c"}], path)


def test_manifest_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.GATED)
    assert set(workloads.GATED) <= set(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in manifest["end_to_end"]
    ] == harness.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == layers.PER_LAYER
    assert manifest["run_seconds"] == cli.DEFAULT_SECONDS
    assert manifest["paths"] == ["benchmarks/perf"]


def test_fingerprints_compare_floats_loosely_and_ints_exactly():
    fp = {"rounds": 5, "execution_time": 1.0, "labels_crc": 7}
    assert verify.fp_equal(fp, dict(fp, execution_time=1.0 + 1e-9))
    assert not verify.fp_equal(fp, dict(fp, execution_time=1.001))
    assert not verify.fp_equal(fp, dict(fp, rounds=6))
