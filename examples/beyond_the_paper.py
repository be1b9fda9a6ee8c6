#!/usr/bin/env python
"""Beyond the five benchmarks: betweenness centrality, triangle counting
and k-truss.

Exercises the extension applications — two-phase distributed Brandes,
DistTC-style triangle counting and k-truss peeling — on the orkut
stand-in, validating the first two against sequential references.

    python examples/beyond_the_paper.py
"""

import numpy as np

from repro.apps import count_triangles, ktruss, run_bc
from repro.engine import RunContext
from repro.generators import load_dataset
from repro.hw import bridges
from repro.partition import partition
from repro.validation import reference_triangle_count
from repro.validation.reference import reference_bc_single_source


def main() -> None:
    ds = load_dataset("orkut-s")
    g = ds.graph
    print(f"dataset: {ds}\n")

    # ---- betweenness centrality (single source) ------------------------- #
    pg = partition(g, "cvc", 16)
    ctx = RunContext(
        num_global_vertices=g.num_vertices,
        source=ds.source_vertex,
        global_out_degrees=g.out_degrees(),
    )
    bc, stats = run_bc(pg, bridges(16), ctx, scale_factor=ds.scale_factor)
    ref = reference_bc_single_source(g, ds.source_vertex)
    assert np.allclose(bc, ref)
    top = np.argsort(bc)[-3:][::-1]
    print(f"bc (source {ds.source_vertex}): {stats.execution_time:.3f}s, "
          f"{stats.comm_volume_gb:.2f} GB")
    print(f"  most between vertices: {top.tolist()} "
          f"(scores {np.round(bc[top], 1).tolist()})")

    # ---- triangle counting ---------------------------------------------- #
    sym = ds.symmetric()
    pg_sym = partition(sym, "cvc", 16)
    count, tstats = count_triangles(
        pg_sym, bridges(16), scale_factor=ds.scale_factor
    )
    assert count == reference_triangle_count(sym)
    print(f"\ntriangles: {count:,} "
          f"({tstats.execution_time:.3f}s, ghost volume "
          f"{tstats.comm_volume_gb:.2f} GB)")
    print("both validated against sequential references")

    # ---- k-truss: peel edges in fewer than k - 2 triangles ------------- #
    kt = ktruss(pg_sym, bridges(16), 8, scale_factor=ds.scale_factor)
    print(f"\n8-truss: {kt.num_surviving:,} of {len(kt.alive):,} edges "
          f"survive ({kt.stats.execution_time:.3f}s)")


if __name__ == "__main__":
    main()
