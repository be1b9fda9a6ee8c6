"""Command-line entry point: ``repro-tune --dataset D --app A``.

Extracts pre-partition features, ranks the configuration space with the
analytic predictor, and (by default) validates the top-k picks with
real sweep runs — printing the recommendation plus a ranked table of
predicted and measured costs.  ``--validate all`` measures every cell
(the accuracy-study mode); ``--validate none`` is prediction-only and
never runs an engine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.errors import ConfigurationError, check_writable, cli_main
from repro.study.report import format_table

__all__ = ["main"]


def _csv(text: str) -> tuple:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _gpu_counts(text: str) -> tuple:
    try:
        return tuple(int(g) for g in _csv(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad GPU count list {text!r}; use integers, e.g. 2,4"
        )


@cli_main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-tune",
        description="Predict the best configuration before running it.",
    )
    parser.add_argument(
        "--dataset", required=True, metavar="NAME",
        help="dataset name (registry name, store+mmap:<path>, or "
        "fuzz:<shape>:<seed>)",
    )
    parser.add_argument(
        "--app", required=True, metavar="APP",
        help="benchmark to tune for (bfs, pr, cc, sssp, kcore, ...)",
    )
    parser.add_argument(
        "--gpus", type=_gpu_counts, default="2,4", metavar="LIST",
        help="comma-separated GPU counts to consider (default 2,4)",
    )
    parser.add_argument(
        "--policies", default="cvc,oec,iec,hvc", metavar="LIST",
        help="comma-separated partition policies to consider",
    )
    parser.add_argument(
        "--engines", default="bsp,basp", metavar="LIST",
        help="comma-separated engines to consider (bsp, basp)",
    )
    parser.add_argument(
        "--platform", default="bridges",
        help="cluster platform (bridges, tuxedo, dgx2; ':contended' "
        "suffix opts into contention pricing)",
    )
    parser.add_argument(
        "--validate", choices=("none", "top-k", "all"), default="top-k",
        help="how many predicted cells to confirm with real runs",
    )
    parser.add_argument(
        "--top-k", type=int, default=3, metavar="K",
        help="picks to validate under --validate top-k (default 3)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for validation runs (1 = in-process)",
    )
    parser.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the ranked cells + features as JSON to FILE",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:  # --validate none builds no executor to refuse it
        raise ConfigurationError(f"jobs must be >= 1, got {args.jobs}")
    if args.report:
        check_writable(args.report)

    from repro.runtime.sweep import SweepExecutor
    from repro.tune.dse import DseConfig, prune_summary, run_dse

    cfg = DseConfig(
        policies=_csv(args.policies),
        engines=_csv(args.engines),
        gpus=args.gpus,
        platform=args.platform,
        top_k=args.top_k,
    )
    t0 = time.time()
    if args.validate == "none":
        res = run_dse(args.dataset, args.app, cfg, validate="none")
    else:
        with SweepExecutor(jobs=args.jobs) as ex:
            res = run_dse(
                args.dataset, args.app, cfg, executor=ex, validate=args.validate
            )

    f = res.features
    print(
        f"{args.dataset}: |V|={f.num_vertices} |E|={f.num_edges} "
        f"avg deg {f.avg_degree:.2f}, out-degree cv {f.out_degree_cv:.2f} "
        f"skew {f.out_degree_skew:.2f}, hub edge fraction "
        f"{f.hub_edge_fraction:.2f}, est rounds {f.est_rounds:.1f}"
    )
    rows = [
        [
            o.predicted_rank,
            o.prediction.cell.label(),
            f"{o.prediction.cost:.3e}",
            f"{o.prediction.replication_factor:.2f}",
            None if o.measured_seconds is None else f"{o.measured_seconds:.3e}",
            o.failure or None,
        ]
        for o in res.outcomes
    ]
    print(
        format_table(
            ["rank", "cell", "predicted s", "est rf", "measured s", "failure"],
            rows,
            title=f"Advisor ranking for {args.app} on {args.dataset}",
        )
    )
    if res.pruned:
        print(f"pruned: {prune_summary(res.pruned)}")

    pick = res.predicted_best.prediction.cell
    line = f"recommendation: {pick.label()}"
    best = res.measured_best
    if best is not None:
        regret = res.regret_at(1)
        line += (
            f" (measured best {best.prediction.cell.label()}, "
            f"top-1 regret {regret:.3f}x)"
        )
    print(line)
    print(f"[tuned in {time.time() - t0:.1f}s]")

    if args.report:
        payload = {
            "dataset": args.dataset,
            "app": args.app,
            "features": f.to_dict(),
            "pruned": [[c.label(), reason] for c, reason in res.pruned],
            "cells": [
                {
                    "rank": o.predicted_rank,
                    "cell": o.prediction.cell.label(),
                    "predicted_seconds": o.prediction.cost,
                    "breakdown": o.prediction.breakdown.to_dict(),
                    "est_replication": o.prediction.replication_factor,
                    "measured_seconds": o.measured_seconds,
                    "failure": o.failure,
                }
                for o in res.outcomes
            ],
            "recommendation": pick.label(),
        }
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
