#!/usr/bin/env python
"""The headline scenario: analytics over a massive web crawl.

Runs all five study benchmarks on the clueweb12 stand-in (42.5 billion
edges at paper scale) across 64 simulated P100s with the full D-IrGL
optimization stack, printing the kind of report a production run would
produce — per-benchmark time/volume/memory and derived graph facts.

    python examples/massive_crawl_analytics.py [dataset]
"""

import sys

import numpy as np

from repro.constants import INF
from repro.frameworks import DIrGL
from repro.generators import DATASETS, load_dataset
from repro.study.report import format_table


def main(dataset: str = "clueweb12-s") -> None:
    ds = load_dataset(dataset)
    spec = DATASETS[ds.name]
    paper = spec.paper
    print(f"dataset: {ds}")
    print(
        f"standing in for {spec.paper_name}: "
        f"{paper.num_edges / 1e9:.1f}B edges, {paper.size_gb:.0f} GB on disk\n"
    )

    fw = DIrGL(policy="cvc", execution="sync")
    rows = []
    facts = {}
    for bench in ("bfs", "cc", "kcore", "pr", "sssp"):
        res = fw.run(bench, ds, num_gpus=64)
        s = res.stats
        rows.append([
            bench, round(s.execution_time, 2), s.rounds,
            round(s.comm_volume_gb, 1), round(s.memory_max_gb, 2),
        ])
        facts[bench] = res.labels

    print(format_table(
        ["benchmark", "time (s)", "rounds", "volume (GB)", "max GPU mem (GB)"],
        rows, title=f"D-IrGL (CVC, 64 GPUs) on {ds.name}",
    ))

    # what the analytics actually told us about the crawl
    dist = facts["bfs"]
    reached = dist != INF
    comp = facts["cc"]
    ranks = facts["pr"]
    top = np.argsort(ranks)[-3:][::-1]
    print(f"\nreachable from the top hub : {reached.mean() * 100:.1f}% of pages")
    print(f"eccentricity of that hub   : {int(dist[reached].max())}")
    print(f"weakly connected components: {len(np.unique(comp)):,}")
    print(f"top pages by PageRank      : {top.tolist()}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
