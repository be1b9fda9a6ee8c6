"""Command-line entry point: ``repro-serve``.

Typical invocations::

    repro-serve --simulate --seed 7 --requests 80 --workers 2 --jobs 2
    repro-serve --simulate --naive --report naive.json   # baseline policy
    repro-serve --simulate --trace-dir traces --trace-out trace.json

``--simulate`` runs a seeded traffic trace (generated from the CLI
knobs) through the discrete-event service and writes the deterministic
JSON report.  Two invocations with the same flags produce byte-identical
reports — the CI ``serve-smoke`` job asserts exactly that, plus zero
failed requests and a non-zero coalesce count.

Exit codes: 0 clean, 1 when any request *failed* (rejected requests are
load shedding, not failures), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from repro.errors import cli_main

__all__ = ["main", "run_trace"]


def run_trace(
    trace,
    config,
    jobs: int = 2,
    spool_dir: str | None = None,
    cache_dir: str | None = None,
    check=None,
):
    """Run one traffic trace through a fresh service; returns the report.

    Builds a :class:`~repro.runtime.sweep.SweepExecutor` (its process
    pool is what full engine runs fan out over) and a spool directory for
    snapshot spills, both torn down afterwards unless caller-provided.
    """
    from repro.runtime.sweep import SweepExecutor
    from repro.serve.service import AnalyticsService

    own_spool = None
    if spool_dir is None:
        own_spool = tempfile.TemporaryDirectory(prefix="repro-serve-spool-")
        spool_dir = own_spool.name
    if cache_dir is None:
        # the partition cache MUST be disk-shared: patched partitionings
        # are planted by the parent and picked up by pool workers (and
        # partitionings built in workers inform later patch decisions)
        cache_dir = os.path.join(spool_dir, "partition-cache")
    try:
        # closing the executor puts back the process-wide partition cache
        # it replaced, before the spool it points into is removed
        with SweepExecutor(jobs=jobs, cache_dir=cache_dir, check=check) as ex:
            service = AnalyticsService(config, ex, spool_dir)
            return service.run(trace)
    finally:
        if own_spool is not None:
            own_spool.cleanup()


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
    parser.add_argument("--simulate", action="store_true",
                        help="generate a seeded trace and serve it")
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
                        "no incremental re-execution")
    parser.add_argument("--no-coalesce", action="store_true")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--no-incremental", action="store_true")
    parser.add_argument("--policy", default="oec")
    parser.add_argument("--parts", type=int, default=2,
                        help="simulated GPUs per execution")
    parser.add_argument("--verify-incremental", action="store_true",
                        help="differentially check every delta run against "
                        "a from-scratch engine run")
    # execution plumbing
    parser.add_argument("--jobs", type=int, default=2,
                        help="sweep executor pool size for engine runs")
    parser.add_argument("--check", default=None, metavar="LEVEL",
                        help="invariant check level for engine runs "
                        "(off/cheap/full)")
    parser.add_argument("--spool", default=None, metavar="DIR",
                        help="snapshot spool directory (default: temp)")
    parser.add_argument("--report", default="-", metavar="PATH",
                        help="report JSON destination ('-' = stdout)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="also write the generated traffic trace JSON")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write a Chrome trace of serve phases here")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if not args.simulate:
        parser.error("--simulate is required (the only mode, for now)")
        return 2  # pragma: no cover - parser.error raises SystemExit

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
    kwargs = dict(
        workers=args.workers,
        max_queue_depth=args.max_queue_depth,
        policy=args.policy,
        parts=args.parts,
        client_weights=dict(traffic.client_weights),
        verify_incremental=args.verify_incremental,
    )
    if args.naive:
        config = ServeConfig.naive(**kwargs)
    else:
        if args.no_coalesce:
            kwargs["coalesce"] = False
        if args.no_cache:
            kwargs["result_cache_entries"] = 0
        if args.no_incremental:
            kwargs["incremental"] = False
        config = ServeConfig(**kwargs)

    trace = generate_trace(traffic)
    if args.trace_out:
        with open(args.trace_out, "w") as f:
            f.write(trace.to_json() + "\n")

    # off unless there is a directory to write ``serve.trace.json`` into
    tracer = obs.Tracer(enabled=bool(args.trace_dir))
    t0 = time.perf_counter()
    with obs.use_tracer(tracer):
        report = run_trace(
            trace, config, jobs=args.jobs, spool_dir=args.spool,
            check=args.check,
        )
    wall = time.perf_counter() - t0
    if tracer.enabled:
        os.makedirs(args.trace_dir, exist_ok=True)
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
