"""``compare A.json B.json``: two result files, metric by metric.

For every end-to-end metric and workload it prints both medians, the
relative change of B against A, the metric's bound and a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median, the wider of the two sides) exceeds the bound, so a change of
  the bound's size could hide in it — unless every run of B reads better
  than every run of A;
* ``ok`` — otherwise.

A file written by ``run --runs N`` holds N runs per workload and the
verdict uses the per-run values; with a single run it falls back to that
run's per-pass samples.  Exit status 1 when any row is ``worse`` or any
op failed in either file.
"""

from __future__ import annotations

import argparse
import json
import statistics

from benchmarks.perf.harness import END_TO_END

__all__ = ["classify", "compare", "main"]


def _spread(values: list[float]) -> float:
    """Quartile distance over the median (0 below two samples)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def classify(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Verdict for one metric on one workload; ``a`` is the baseline."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    delta = (med_b - med_a) / med_a if med_a else 0.0
    worsening = delta if better == "lower" else -delta
    spread = max(_spread(a), _spread(b))
    if better == "lower":
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    if worsening > bound:
        verdict = "worse"
    elif spread > bound and not b_always_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "a": med_a, "b": med_b, "delta": delta, "spread": spread,
        "bound": bound, "verdict": verdict,
    }


def _values(results: list[dict], workload: str, metric: str) -> list[float]:
    runs = [r for r in results if r["workload"] == workload]
    if len(runs) == 1:
        return runs[0]["end_to_end"][metric]["samples"]
    return [r["end_to_end"][metric]["value"] for r in runs]


def compare(file_a: dict, file_b: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present in both files."""
    res_a, res_b = file_a["results"], file_b["results"]
    in_b = {r["workload"] for r in res_b}
    workloads = list(dict.fromkeys(
        r["workload"] for r in res_a if r["workload"] in in_b
    ))
    rows = []
    for workload in workloads:
        for metric, unit, better, bound in END_TO_END:
            row = classify(
                _values(res_a, workload, metric),
                _values(res_b, workload, metric), better, bound,
            )
            row.update(workload=workload, metric=metric, unit=unit)
            rows.append(row)
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf compare")
    parser.add_argument("a", metavar="A.json", help="baseline result file")
    parser.add_argument("b", metavar="B.json", help="result file under test")
    args = parser.parse_args(argv)
    with open(args.a) as f:
        file_a = json.load(f)
    with open(args.b) as f:
        file_b = json.load(f)

    rows = compare(file_a, file_b)
    print(f"{'workload':<16}{'metric':<13}{'A':>12}{'B':>12}"
          f"{'delta':>9}{'spread':>9}{'bound':>7}  verdict")
    for r in rows:
        print(
            f"{r['workload']:<16}{r['metric']:<13}{r['a']:>12.4f}"
            f"{r['b']:>12.4f}{r['delta']:>+9.1%}{r['spread']:>9.1%}"
            f"{r['bound']:>7.0%}  {r['verdict']}"
        )
    failed = sum(
        r["failed"] for f in (file_a, file_b) for r in f["results"]
    )
    if failed:
        print(f"{failed} failed ops across the two files")
    worse = [r for r in rows if r["verdict"] == "worse"]
    return 1 if worse or failed else 0
