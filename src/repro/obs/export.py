"""The trace exporter: Chrome trace-event JSON.

``write_chrome`` produces a file loadable in ``chrome://tracing`` and
Perfetto (https://ui.perfetto.dev): a ``traceEvents`` array of ``M``
(process/thread names), ``X`` (complete spans), ``i`` (instants), and
``C`` (counters) events.  ``read_trace`` + ``summarize_trace`` are the
inverse used by the ``repro-trace`` CLI, whose ``csv`` command flattens a
written trace for spreadsheet/pandas consumption.
"""

from __future__ import annotations

import json
import os
from typing import Optional

__all__ = [
    "to_chrome",
    "write_chrome",
    "read_trace",
    "summarize_trace",
]


def to_chrome(tracer, process_name: Optional[str] = None) -> dict:
    """Render a :class:`~repro.obs.tracer.Tracer` as a Chrome trace doc."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": tracer.pid,
            "tid": 0,
            "args": {"name": process_name or f"repro worker {tracer.pid}"},
        }
    ]
    names = tracer.thread_names()
    recorded = tracer.events()
    for tid in sorted({e.get("tid", 0) for e in recorded} | set(names)):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": tracer.pid,
                "tid": tid,
                "args": {"name": names.get(tid, f"lane {tid}")},
            }
        )
    events.extend(recorded)
    ts_end = tracer.now_us()
    for cname, value in sorted(tracer.counters.as_dict().items()):
        events.append(
            {
                "name": cname,
                "ph": "C",
                "pid": tracer.pid,
                "tid": 0,
                "ts": ts_end,
                "args": {"value": value},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(tracer, path, process_name: Optional[str] = None) -> str:
    """Write the Chrome trace JSON; returns the path written."""
    doc = to_chrome(tracer, process_name=process_name)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f)
    os.replace(tmp, path)
    return str(path)


# --------------------------------------------------------------------------- #
# reading traces back (the repro-trace CLI)
# --------------------------------------------------------------------------- #
def read_trace(path) -> list[dict]:
    """Load a Chrome trace file's event list (dict or bare-array form)."""
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        return list(doc.get("traceEvents", []))
    return list(doc)


def summarize_trace(events: list[dict]) -> dict:
    """Aggregate one trace into the per-phase quantities the paper plots.

    Returns wall-clock totals per span category, the engine's simulated
    run summary (max compute / min wait / device comm — the stacked-bar
    decomposition of Figures 4/6/8/9), per-partition simulated phase sums
    (from the per-round ``round_sim`` instants), counters, and the cell
    key if the trace covers a sweep cell.
    """
    wall_by_cat: dict[str, float] = {}
    span_counts: dict[str, int] = {}
    counters: dict[str, float] = {}
    run_summary: dict = {}
    cell: dict = {}
    per_partition: dict[str, list[float]] = {}
    for e in events:
        ph = e.get("ph")
        if ph == "X":
            cat = e.get("cat", "")
            wall_by_cat[cat] = wall_by_cat.get(cat, 0.0) + float(e.get("dur", 0.0))
            span_counts[cat] = span_counts.get(cat, 0) + 1
            if e.get("name") == "cell":
                cell = dict(e.get("args", {}))
        elif ph == "C":
            counters[e.get("name", "")] = e.get("args", {}).get("value", 0)
        elif ph == "i":
            args = e.get("args", {})
            if e.get("name") == "run_summary":
                run_summary = dict(args)
            elif e.get("name") == "round_sim":
                for field in ("compute_s", "wait_s", "device_s"):
                    vals = args.get(field)
                    if vals is None:
                        continue
                    acc = per_partition.setdefault(field, [0.0] * len(vals))
                    if len(acc) < len(vals):
                        acc.extend([0.0] * (len(vals) - len(acc)))
                    for i, v in enumerate(vals):
                        acc[i] += float(v)
    return {
        "cell": cell,
        "run_summary": run_summary,
        "wall_us_by_cat": wall_by_cat,
        "span_counts": span_counts,
        "per_partition_sim": per_partition,
        "counters": counters,
    }
