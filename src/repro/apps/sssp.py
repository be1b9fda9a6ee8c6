"""Single-source shortest paths: data-driven push relaxation over the
randomized edge weights the paper attaches to every input."""

from __future__ import annotations

import numpy as np

from repro.apps.bfs import BFS
from repro.apps.common import expand_edges, scatter_min
from repro.engine.operator import RoundOutput
from repro.la import semiring, spmv

__all__ = ["SSSP"]


class SSSP(BFS):
    """Chaotic-relaxation SSSP (Bellman-Ford style, frontier-driven).

    Identical sync contract to bfs (min-reduced ``dist``); the candidate
    distance adds the edge weight instead of 1 — the same min-plus
    semiring, with the explicit weight.
    """

    name = "sssp"
    needs_weights = True

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        dist = state["dist"]
        degrees = self.frontier_degrees(part, frontier)
        if self.kernel == "la":
            changed, edges = spmv.spmsv_push(
                part.graph, frontier, dist, dist,
                semiring.MIN_PLUS, self.la_backend, with_weights=True,
            )
        else:
            counts, dsts, w = expand_edges(
                part.graph, frontier, with_weights=True
            )
            cand = np.repeat(dist[frontier].astype(np.int64), counts)
            cand += w
            changed = scatter_min(dist, dsts, cand.astype(np.uint32))
            edges = len(dsts)
        return RoundOutput(
            updated={"dist": changed},
            activated=changed,
            edges_processed=edges,
            frontier_degrees=degrees,
        )
