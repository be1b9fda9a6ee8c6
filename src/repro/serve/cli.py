"""Command-line entry point: ``repro-serve``.

Typical invocations::

    repro-serve --seed 7 --requests 80 --workers 2
    repro-serve --naive --report naive.json   # baseline policy
    repro-serve --trace-dir traces --trace-out trace.json

It generates a seeded traffic trace from the CLI knobs, serves it
through the discrete-event service (every execution in this process)
and writes the deterministic JSON report.  Two invocations with the same
flags produce byte-identical reports — the CI ``serve-smoke`` job
asserts exactly that, plus zero failed requests and a non-zero coalesce
count.

Exit codes: 0 clean, 1 when any request *failed* (rejected requests are
load shedding, not failures), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
import time

from repro.errors import ConfigurationError, check_writable, cli_main, make_dirs

__all__ = ["main", "run_trace"]


def run_trace(
    trace,
    config,
    jobs: int = 1,
    spool_dir: str | None = None,
    check=None,
):
    """Run one traffic trace through a fresh service; returns the report.

    Every execution runs in this process.  The spool directory holds the
    on-disk partition cache (``<spool_dir>/partition-cache``) the service
    reloads served partitionings from; a spool this call creates is
    removed afterwards, and the process-wide partition cache and check
    level it replaced are put back either way.  ``jobs`` accepts only 1
    (anything else raises :class:`~repro.errors.ConfigurationError`).
    """
    from repro.check import use_check_level
    from repro.partition import cache as partition_cache
    from repro.serve.service import AnalyticsService

    if jobs != 1:
        raise ConfigurationError(
            f"jobs must be 1: a served trace runs in this process, got {jobs!r}"
        )
    with contextlib.ExitStack() as stack:
        if spool_dir is None:
            spool_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-serve-spool-")
            )
        # a cache already pointing here stays, counters and all; one that
        # is replaced goes back before the spool it may point into does
        found = partition_cache.get_cache()
        cache_dir = os.path.join(spool_dir, "partition-cache")
        if found.cache_dir != cache_dir:
            partition_cache.configure(cache_dir=cache_dir)
            stack.callback(partition_cache.set_cache, found)
        if check is not None:
            stack.enter_context(use_check_level(check))
        return AnalyticsService(config).run(trace)


def _parse_graphs(text: str):
    """``scale:edge_factor`` pairs, comma-separated: ``6:4,7:4``."""
    out = []
    for part in text.split(","):
        scale, _, ef = part.partition(":")
        try:
            out.append((int(scale), float(ef or 4.0)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad graph spec {part!r}; use scale:edge_factor, e.g. 6:4"
            )
    return tuple(out)


@cli_main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Always-on analytics service simulator: seeded client "
        "traffic over mutating graphs with coalescing, caching, "
        "and weighted fair queueing.",
    )
    # traffic shape
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests", type=int, default=60, metavar="N")
    parser.add_argument("--clients", type=int, default=4, metavar="N")
    parser.add_argument("--apps", default="bfs,cc,pr",
                        help="comma-separated app list")
    parser.add_argument("--graphs", type=_parse_graphs, default=((6, 4.0), (7, 4.0)),
                        metavar="S:EF,...", help="R-MAT specs, e.g. 6:4,7:4")
    parser.add_argument("--mean-interarrival", type=float, default=0.02,
                        metavar="SEC", help="mean simulated gap between arrivals")
    parser.add_argument("--hot-fraction", type=float, default=0.5)
    parser.add_argument("--mutate-every", type=int, default=20, metavar="N",
                        help="mutation batch every N arrivals (0 disables)")
    # service policy
    parser.add_argument("--workers", type=int, default=2,
                        help="simulated parallel execution slots")
    parser.add_argument("--max-queue-depth", type=int, default=64)
    parser.add_argument("--naive", action="store_true",
                        help="baseline: no coalescing, no result cache, "
                        "no incremental re-execution, no patching")
    parser.add_argument("--policy", default="oec")
    parser.add_argument("--parts", type=int, default=2,
                        help="simulated GPUs per execution")
    parser.add_argument("--verify-incremental", action="store_true",
                        help="differentially check every delta run against "
                        "a from-scratch engine run")
    # execution plumbing
    parser.add_argument("--check", default=None, metavar="LEVEL",
                        help="invariant check level for engine runs "
                        "(off/cheap/full)")
    parser.add_argument("--spool", default=None, metavar="DIR",
                        help="spool directory for the partition cache "
                        "(default: temp)")
    parser.add_argument("--report", default="-", metavar="PATH",
                        help="report JSON destination ('-' = stdout)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="also write the generated traffic trace JSON")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write a Chrome trace of serve phases here")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    # every output path is checked before the trace is served
    if args.report != "-":
        check_writable(args.report)
    if args.trace_out:
        check_writable(args.trace_out)
    if args.trace_dir:
        make_dirs(args.trace_dir)

    from repro import obs
    from repro.serve.service import ServeConfig
    from repro.serve.traffic import TrafficConfig, generate_trace

    traffic = TrafficConfig(
        seed=args.seed,
        num_clients=args.clients,
        num_requests=args.requests,
        mean_interarrival=args.mean_interarrival,
        apps=tuple(a.strip() for a in args.apps.split(",") if a.strip()),
        graphs=args.graphs,
        hot_fraction=args.hot_fraction,
        mutate_every=args.mutate_every,
    )
    config = ServeConfig(
        workers=args.workers,
        max_queue_depth=args.max_queue_depth,
        naive=args.naive,
        policy=args.policy,
        parts=args.parts,
        verify_incremental=args.verify_incremental,
    )

    trace = generate_trace(traffic)
    if args.trace_out:
        with open(args.trace_out, "w") as f:
            f.write(trace.to_json() + "\n")

    # off unless there is a directory to write ``serve.trace.json`` into
    tracer = obs.Tracer(enabled=bool(args.trace_dir))
    t0 = time.perf_counter()
    with obs.use_tracer(tracer):
        report = run_trace(
            trace, config, spool_dir=args.spool, check=args.check
        )
    wall = time.perf_counter() - t0
    if tracer.enabled:
        path = obs.write_chrome(
            tracer, os.path.join(args.trace_dir, "serve.trace.json"),
            process_name="repro-serve",
        )
        if not args.quiet:
            print(f"serve trace -> {path}", file=sys.stderr)

    text = report.to_json()
    if args.report == "-":
        sys.stdout.write(text)
    else:
        with open(args.report, "w") as f:
            f.write(text)
    if not args.quiet:
        # wall clock goes to stderr only: the report must stay
        # byte-identical across runs
        print(report.summary(), file=sys.stderr)
        print(f"(wall clock: {wall:.2f}s)", file=sys.stderr)
    return 1 if report.counters["failed"] else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
