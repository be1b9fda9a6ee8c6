"""Golden-table suite: what a traced run records, pinned as data.

Until PR 23 a tracer reached the engines two ways (a ``tracer=`` argument
and the ambient one), "off" was spelled ``None`` at some sites and a
disabled ``Tracer`` at others, and every site tested before it called.
What that code recorded survives in ``tests/cases/trace_golden.json``: for
each row below, every event as ``ph|cat|name|tid|sorted arg keys`` with
how often it occurred, every counter's value, the lane names, the
``run_summary`` / ``round_sim`` payloads in the order recorded, and the
result the trace rode along with (label CRC per cell; SHA-1 of the
served report).  Timestamps, durations and every other argument *value*
(pids, paths, RSS readings) are not in the table.  The table was produced
at the parent commit ``c3ac950`` (``PYTHONPATH=<parent clone>/src``); the
ambient-only, never-``None`` contract must reproduce every row.

One listed difference: the served trace's ``serve.*`` counters.  The
parent counted seven of the report's thirteen ``counters`` a second time
at their sites (``patches`` as ``serve.partition_patches``) and only when
non-zero; they are now the report's block folded in once.  The file keeps
what the parent recorded; :func:`expected_serve_counters` states the
mapping, and the six the parent never traced are named in the file's
``serve_counters_added``.

The table is what :func:`compute_table` returns, so it can be regenerated
by hand from any checkout's sources (``docs/performance.md``, "Tracing
and observability", shows the command).  A row that moves is a semantic change, never noise.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import obs
from repro.gnnflow.study import base_config, gnn_dataset
from repro.partition import cache as partition_cache
from repro.runtime.cells import CellSpec, SystemSpec, run_task, run_task_batch
from repro.serve.cli import run_trace
from repro.serve.service import ServeConfig
from repro.serve.traffic import TrafficConfig, generate_trace

GOLDEN = Path(__file__).parent / "cases" / "trace_golden.json"

#: name -> (system kwargs, benchmark, platform)
CELLS = {
    "bsp-pr": (dict(policy="iec", execution="sync"), "pr", "bridges"),
    "basp-bfs": (dict(policy="cvc", execution="async"), "bfs", "bridges"),
    "as-cc": (
        dict(policy="oec", execution="sync", update_only=False), "cc",
        "bridges",
    ),
    "hier-contended-pr": (
        dict(policy="cvc", execution="sync", hierarchical=True), "pr",
        "bridges:contended",
    ),
    "gnnflow": (
        dict(policy="iec", execution="sync"), "gnnflow", "bridges:contended",
    ),
}
CACHE_STATES = ("cold", "warm")
ROWS = tuple(f"{c}/{s}" for c in CELLS for s in CACHE_STATES) + (
    "batch", "damaged", "serve",
)

TRAFFIC = TrafficConfig(
    seed=13, num_requests=40, num_clients=3, mean_interarrival=0.001,
    apps=("bfs", "cc", "pr"), graphs=((5, 3.0), (6, 3.0)), mutate_every=8,
)
#: one worker behind a one-deep door and a patch threshold of 1.0: the
#: trace sheds, coalesces, patches *and* repartitions (11 of the report's
#: 13 counters are non-zero)
SERVE = dict(workers=1, max_queue_depth=1, patch_threshold=1.0)
#: pr stops here: eight rounds of ``round_sim`` say what forty-seven do
PR_ROUNDS = 8

#: the report's ``counters`` the parent never traced
SERVE_COUNTERS_ADDED = (
    "admitted", "delta_runs", "executions", "failed", "full_runs",
    "memo_hits",
)


def _spec(name: str) -> CellSpec:
    system, bench, platform = CELLS[name]
    gnn = bench == "gnnflow"
    return CellSpec(
        key=(name,),
        system=SystemSpec.dirgl(**system),
        benchmark=bench,
        dataset=gnn_dataset("powerlaw") if gnn else "tiny-s",
        num_gpus=4,
        platform=platform,
        check_memory=False,
        ctx_overrides=(
            (("payload", base_config().with_placement(cache_fraction=0.5)),)
            if gnn else (("max_rounds", PR_ROUNDS),) if bench == "pr" else ()
        ),
    )


@contextmanager
def _fresh_cache(cache_dir):
    """A process-wide partition cache with nothing in memory over
    ``cache_dir``; the one found is put back."""
    found = partition_cache.get_cache()
    partition_cache.configure(cache_dir=str(cache_dir))
    try:
        yield
    finally:
        partition_cache.set_cache(found)


def project(tracer, result) -> dict:
    """The deterministic part of what ``tracer`` recorded."""
    events: Counter = Counter()
    payloads = []
    for e in tracer.events():
        args = e.get("args", {})
        events["|".join((
            e["ph"], e["cat"], e["name"], str(e["tid"]),
            ",".join(sorted(args)),
        ))] += 1
        if e["name"] in ("run_summary", "round_sim"):
            payloads.append({"name": e["name"], **args})
    row = {
        "events": dict(sorted(events.items())),
        "counters": dict(sorted(tracer.counters.as_dict().items())),
        "lanes": {str(t): n for t, n in sorted(tracer.thread_names().items())},
        "payloads": payloads,
        "result": result,
    }
    return json.loads(json.dumps(row))


def _traced(fn):
    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        outcome = fn()
    return tracer, outcome


def cell_rows(name: str) -> dict:
    """One cell on an empty ``cache_dir`` (build + store), then again over
    the same directory with nothing in memory (disk load)."""
    rows = {}
    with tempfile.TemporaryDirectory() as d:
        for state in CACHE_STATES:
            with _fresh_cache(d):
                tracer, out = _traced(lambda: run_task(_spec(name)))
            assert out.ok, out.failure
            rows[f"{name}/{state}"] = project(tracer, out.labels_crc)
    return rows


def batch_row() -> dict:
    """Two cells of one dataset under ``run_task_batch``'s RSS meter."""
    specs = [_spec("bsp-pr"), _spec("basp-bfs")]
    with tempfile.TemporaryDirectory() as d, _fresh_cache(d):
        tracer, outs = _traced(lambda: run_task_batch(specs))
    return {"batch": project(tracer, [o.labels_crc for o in outs])}


def damaged_row() -> dict:
    """A cache entry that cannot be read is discarded, rebuilt and stored
    over (``cache.disk_load`` outcome ``corrupt``)."""
    with tempfile.TemporaryDirectory() as d:
        with _fresh_cache(d):
            run_task(_spec("bsp-pr"))
        (entry,) = Path(d).iterdir()
        entry.write_bytes(b"not a partition container")
        with _fresh_cache(d):
            tracer, out = _traced(lambda: run_task(_spec("bsp-pr")))
        outcomes = [
            e["args"]["outcome"] for e in tracer.events()
            if e["name"] == "cache.disk_load"
        ]
    assert outcomes == ["corrupt"]
    return {"damaged": project(tracer, out.labels_crc)}


def serve_report_and_row():
    trace = generate_trace(TRAFFIC)
    tracer, report = _traced(
        lambda: run_trace(trace, ServeConfig(**SERVE), jobs=1)
    )
    digest = hashlib.sha1(report.to_json().encode()).hexdigest()
    return report, {"serve": project(tracer, digest)}


def compute_table() -> dict:
    rows = {}
    for name in CELLS:
        rows.update(cell_rows(name))
    rows.update(batch_row())
    rows.update(damaged_row())
    rows.update(serve_report_and_row()[1])
    return {"serve_counters_added": list(SERVE_COUNTERS_ADDED), "rows": rows}


def expected_serve_counters(recorded: dict, report_counters: dict) -> dict:
    """The served row's counters as they must read now: everything the
    parent recorded outside ``serve.*``, plus the report's block.  What
    the parent did record under ``serve.*`` must agree with the block."""
    renamed = {"serve.partition_patches": "serve.patches"}
    block = {f"serve.{k}": v for k, v in report_counters.items()}
    for name, value in recorded.items():
        if name.startswith("serve."):
            assert block[renamed.get(name, name)] == value, name
    kept = {k: v for k, v in recorded.items() if not k.startswith("serve.")}
    return dict(sorted({**kept, **block}.items()))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_table_has_no_missing_or_stale_rows(golden):
    assert sorted(golden["rows"]) == sorted(ROWS)
    assert golden["serve_counters_added"] == list(SERVE_COUNTERS_ADDED)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_traces_match_golden(golden, name):
    assert cell_rows(name) == {
        k: v for k, v in golden["rows"].items() if k.split("/")[0] == name
    }


def test_batch_trace_matches_golden(golden):
    assert batch_row()["batch"] == golden["rows"]["batch"]


def test_damaged_entry_trace_matches_golden(golden):
    assert damaged_row()["damaged"] == golden["rows"]["damaged"]


def test_served_trace_matches_golden(golden):
    report, rows = serve_report_and_row()
    want = dict(golden["rows"]["serve"])
    want["counters"] = expected_serve_counters(
        want["counters"], report.counters
    )
    assert rows["serve"] == want
