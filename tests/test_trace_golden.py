"""Golden table ``trace``: what a traced run records, pinned as data.

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
at the parent commit ``c3ac950``; the ambient-only, never-``None``
contract must reproduce every row.  The served row's ``serve.*``
counters were re-recorded at ``be34ef9``, where they became the report's
thirteen-counter block (the parent traced seven of them, ``patches`` as
``serve.partition_patches``).  ``tests/golden.py`` checks and records the
groups below.  A row that moves is a semantic change, never noise.
"""

from __future__ import annotations

import hashlib
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from repro import obs
from repro.gnnflow.study import base_config, gnn_dataset
from repro.partition import cache as partition_cache
from repro.runtime.cells import CellSpec, SystemSpec, run_task, run_task_batch
from repro.serve.cli import run_trace
from repro.serve.service import ServeConfig
from repro.serve.traffic import TrafficConfig, generate_trace
from tests import golden

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
            (("payload", replace(base_config(), cache_fraction=0.5)),)
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
    return {
        "events": dict(sorted(events.items())),
        "counters": dict(sorted(tracer.counters.as_dict().items())),
        "lanes": {str(t): n for t, n in sorted(tracer.thread_names().items())},
        "payloads": payloads,
        "result": result,
    }


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
            rows[f"rows/{name}/{state}"] = project(tracer, out.labels_crc)
    return rows


def batch_row() -> dict:
    """Two cells of one dataset under ``run_task_batch``'s RSS meter."""
    specs = [_spec("bsp-pr"), _spec("basp-bfs")]
    with tempfile.TemporaryDirectory() as d, _fresh_cache(d):
        tracer, outs = _traced(lambda: run_task_batch(specs))
    return {"rows/batch": project(tracer, [o.labels_crc for o in outs])}


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
    return {"rows/damaged": project(tracer, out.labels_crc)}


def serve_row() -> dict:
    """A 40-request trace served with tracing on."""
    tracer, report = _traced(
        lambda: run_trace(generate_trace(TRAFFIC), ServeConfig(**SERVE), jobs=1)
    )
    digest = hashlib.sha1(report.to_json().encode()).hexdigest()
    return {"rows/serve": project(tracer, digest)}


GROUPS = {
    **{f"rows/{name}": partial(cell_rows, name) for name in CELLS},
    "rows/batch": batch_row,
    "rows/damaged": damaged_row,
    "rows/serve": serve_row,
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_traces_match_golden(name):
    golden.check("trace", f"rows/{name}")


def test_batch_trace_matches_golden():
    golden.check("trace", "rows/batch")


def test_damaged_entry_trace_matches_golden():
    golden.check("trace", "rows/damaged")


def test_served_trace_matches_golden():
    golden.check("trace", "rows/serve")
