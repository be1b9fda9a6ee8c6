"""Command line of the benchmark: worker, ``run`` and ``compare``.

* no sub-command — the *worker* the driver calls (``run.py``): one
  workload in this process, result line last on standard output;
* ``run`` — one fresh worker process per workload, all metrics printed by
  name, optional result file, history rows and expectation update;
* ``compare`` — two result files side by side (``compare.py``).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
HISTORY_PATH = os.path.join(HERE, "history.jsonl")
DEFAULT_SEED = 11
#: BENCHMARK.json's ``run_seconds``
DEFAULT_SECONDS = 20


def main(argv: list[str], t_entry: float | None = None) -> int:
    if argv[:1] == ["compare"]:
        from benchmarks.perf.compare import main as compare_main

        return compare_main(argv[1:])
    if argv[:1] == ["run"]:
        return _run(argv[1:])
    return _worker(argv, time.perf_counter() if t_entry is None else t_entry)


# --------------------------------------------------------------------- #
# worker
# --------------------------------------------------------------------- #
def _worker(argv: list[str], t_entry: float) -> int:
    from benchmarks.perf.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="benchmarks/perf/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", metavar="PATH",
                        help="also write the full result record here")
    parser.add_argument("--update-expected", action="store_true",
                        help="validate every op against the reference and "
                        "rewrite this workload's entry of expected.json")
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401
    except ImportError:
        print("the repro package is not importable: this benchmark runs "
              "from a checkout that has src/", file=sys.stderr)
        return 2
    from benchmarks.perf import harness, verify

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=_scratch_dir())
    try:
        result = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir,
            t_entry, update_expected=args.update_expected,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.update_expected and not result["failed"]:
        verify.write_expected({args.workload: result["fingerprint"]}, args.seed)
    if args.result:
        with open(args.result, "w") as f:
            json.dump(result, f)
    print_result(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": harness.contract_metrics(result, bool(args.trace)),
    }))
    return 1 if result["failed"] else 0


def _scratch_dir() -> str:
    """Where a run keeps its files: inside the checkout, git-ignored."""
    path = os.path.join(ROOT, ".bench_work")
    os.makedirs(path, exist_ok=True)
    return path


def print_result(result: dict) -> None:
    """Every metric by name, with its unit."""
    from benchmarks.perf.harness import END_TO_END
    from benchmarks.perf.layers import HOST_TIME_METRICS, PER_LAYER, layer_shares

    print(
        f"== {result['workload']}  seed {result['seed']}  "
        f"{result['ops_per_pass']} ops/pass "
        f"({result['seed_independent_ops']} seed-independent)  "
        f"{result['passes']} timed passes"
    )
    for name, unit, better, bound in END_TO_END:
        m = result["end_to_end"][name]
        print(
            f"  {name:<28}{m['value']:>14.4f} {unit:<6} "
            f"iqr {m['iqr']:.4f}  n={m['n']}  ({better} is better, "
            f"bound {bound:.0%})"
        )
    print(
        f"  {'failed_frac':<28}{result['failed_frac']:>14.4f} ratio  "
        f"{result['failed']} of {result['attempted']} ops"
    )
    for tag, op_id, reason in result["failures"]:
        print(f"  FAILED pass {tag} op {op_id}: {reason}")
    raw = result["raw"]
    print(
        f"  {'host_x':<28}{result['host_x']:>14.4f} x      times above are "
        f"measured seconds / host_x; measured: wall_s {raw['wall_s']:.4f}  "
        f"cpu_s {raw['cpu_s']:.4f}  setup_s {raw['setup_s']:.4f}"
    )
    wall = raw["wall_s"]
    for op_id, seconds in result["op_median_s"].items():
        print(f"  op {op_id:<25}{seconds:>14.4f} s      {seconds / wall:6.1%} of wall_s")
    if result["per_layer"] is not None:
        for name, unit, _ in PER_LAYER:
            value = result["per_layer"][name]
            share = ""
            if name in HOST_TIME_METRICS:
                share = f"  {value / result['traced_s']:6.1%} of the traced pass"
            print(f"  {name:<28}{value:>14.4f} {unit:<6}{share}")
        shares = layer_shares(result["per_layer"], result["traced_s"])
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        print("  layers: " + "  ".join(f"{k} {v:.1%}" for k, v in ranked if v >= 0.0005))


# --------------------------------------------------------------------- #
# run: one worker process per workload
# --------------------------------------------------------------------- #
def _run(argv: list[str]) -> int:
    from benchmarks.perf.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf run")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true")
    which.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat every workload this many times")
    parser.add_argument("--out", metavar="FILE",
                        help="write every run's result record (compare reads it)")
    parser.add_argument("--record", action="store_true",
                        help="append one row per workload to history.jsonl")
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.all else args.workload
    results = []
    status = 0
    for _ in range(args.runs):
        for name in names:
            result, code = _spawn_worker(name, args)
            status = status or code
            if result is not None:
                results.append(result)
                print_result(result)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"meta": _meta(args.seed), "results": results}, f, indent=1)
    if args.record and status == 0:
        meta = _meta(args.seed)
        append_history([_history_row(r, meta) for r in results])
    return status


def _spawn_worker(name: str, args) -> tuple[dict | None, int]:
    fd, path = tempfile.mkstemp(suffix=".json", dir=_scratch_dir())
    os.close(fd)
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1", "--result", path,
    ]
    if args.update_expected:
        cmd.append("--update-expected")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if os.path.getsize(path) == 0:
            print(f"== {name}: worker exited {proc.returncode} without a result",
                  file=sys.stderr)
            return None, proc.returncode or 1
        with open(path) as f:
            return json.load(f), proc.returncode
    finally:
        os.unlink(path)


def _meta(seed: int) -> dict:
    import numpy

    return {
        "rev": _git_rev(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _git_rev() -> str:
    def git(*cmd):
        return subprocess.run(
            ("git", "-C", ROOT) + cmd, capture_output=True, text=True
        )

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def _history_row(result: dict, meta: dict) -> dict:
    row = dict(meta)
    row["workload"] = result["workload"]
    row["end_to_end"] = {
        name: m["value"] for name, m in result["end_to_end"].items()
    }
    row["host_x"] = result["host_x"]
    row["raw"] = {k: v for k, v in result["raw"].items() if k != "calibrate_s"}
    row["failed_frac"] = result["failed_frac"]
    row["per_layer"] = result["per_layer"]
    return row


def append_history(rows: list[dict], path: str = HISTORY_PATH) -> None:
    """Append rows; the rows already in the file are never rewritten."""
    if os.path.exists(path):
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                try:
                    json.loads(line)
                except ValueError:
                    raise SystemExit(
                        f"{path}:{lineno} is not a JSON row; refusing to "
                        "append to a damaged history"
                    ) from None
    with open(path, "a") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
