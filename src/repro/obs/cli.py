"""``repro-trace`` — summarize and convert captured traces.

``repro-trace summarize RUNS/trace/*.trace.json`` prints, per trace, the
simulated per-phase breakdown (max compute / min wait / device comm —
the stacked-bar decomposition of the paper's Figures 4, 6, 8 and 9), the
wall-clock time spent in each instrumented span category, and the
counters (messages, bytes, cache activity).  ``repro-trace csv`` turns a
trace back into the flat CSV form for spreadsheet/pandas analysis.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from repro.errors import cli_main
from repro.obs.export import read_trace, summarize_trace

__all__ = ["main", "summarize_files"]


def _fmt_us(us: float) -> str:
    """Wall microseconds -> human milliseconds."""
    return f"{us / 1000.0:.3f} ms"


def _fmt_s(s: float) -> str:
    return f"{s:.6f} s"


def summarize_files(paths, out=None) -> list[dict]:
    """Print a per-phase summary for each trace file; returns summaries."""
    from repro.study.report import format_table

    out = out or sys.stdout
    summaries = []
    for path in paths:
        summary = summarize_trace(read_trace(path))
        summaries.append(summary)
        cell = summary["cell"]
        title = cell.get("key") or str(path)
        print(f"=== {title} ===", file=out)

        run = summary["run_summary"]
        if run:
            rows = [
                ("execution time", _fmt_s(run.get("execution_time", 0.0))),
                ("max compute", _fmt_s(run.get("max_compute", 0.0))),
                ("min wait", _fmt_s(run.get("min_wait", 0.0))),
                ("device comm", _fmt_s(run.get("device_comm", 0.0))),
                ("rounds", run.get("rounds", 0)),
                ("messages", run.get("num_messages", 0)),
                ("comm bytes", run.get("comm_volume_bytes", 0)),
            ]
            print(
                format_table(
                    ["phase", "simulated"], rows, title="simulated breakdown"
                ),
                file=out,
            )

        per_part = summary["per_partition_sim"]
        if per_part:
            nparts = max(len(v) for v in per_part.values())
            headers = ["phase"] + [f"p{i}" for i in range(nparts)]
            rows = [
                [field.removesuffix("_s")] + [_fmt_s(v) for v in vals]
                for field, vals in sorted(per_part.items())
            ]
            print(
                format_table(headers, rows, title="per-partition simulated seconds"),
                file=out,
            )

        wall = summary["wall_us_by_cat"]
        if wall:
            counts = summary["span_counts"]
            rows = [
                (cat, counts.get(cat, 0), _fmt_us(us))
                for cat, us in sorted(wall.items(), key=lambda kv: -kv[1])
            ]
            print(
                format_table(
                    ["span category", "spans", "wall time"],
                    rows,
                    title="wall-clock by span category",
                ),
                file=out,
            )

        counters = summary["counters"]
        if counters:
            rows = sorted(counters.items())
            print(format_table(["counter", "value"], rows, title="counters"), file=out)
        print(file=out)
    return summaries


def _cmd_summarize(ns) -> int:
    summaries = summarize_files(ns.traces)
    if ns.json:
        json.dump(summaries, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _cmd_csv(ns) -> int:
    events = read_trace(ns.trace)
    out = open(ns.output, "w", newline="") if ns.output else sys.stdout
    try:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["ph", "name", "cat", "pid", "tid", "ts_us", "dur_us", "args"])
        for e in events:
            w.writerow(
                [
                    e.get("ph", ""),
                    e.get("name", ""),
                    e.get("cat", ""),
                    e.get("pid", ""),
                    e.get("tid", ""),
                    e.get("ts", ""),
                    e.get("dur", ""),
                    json.dumps(e.get("args", {}), sort_keys=True),
                ]
            )
    finally:
        if ns.output:
            out.close()
    return 0


@cli_main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Summarize/convert traces captured with repro-study --trace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser(
        "summarize",
        help="print per-phase breakdown tables (Figures 4/6/8/9 style)",
    )
    p_sum.add_argument("traces", nargs="+", help="trace JSON file(s)")
    p_sum.add_argument(
        "--json", action="store_true", help="also dump the summaries as JSON"
    )
    p_sum.set_defaults(func=_cmd_summarize)

    p_csv = sub.add_parser("csv", help="flatten one trace to CSV")
    p_csv.add_argument("trace", help="trace JSON file")
    p_csv.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p_csv.set_defaults(func=_cmd_csv)

    ns = parser.parse_args(argv)
    return ns.func(ns)


if __name__ == "__main__":
    raise SystemExit(main())
