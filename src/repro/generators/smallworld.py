"""Watts-Strogatz small-world generator (testing / ablation input).

Not one of the paper's inputs, but a useful contrast case for tests and
ablations: near-uniform degrees (no skew for load balancers to exploit) with
tunable diameter via the rewiring probability.
"""

from __future__ import annotations

from repro.generators.chunked import edge_list, smallworld_chunks
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph

__all__ = ["small_world"]


def small_world(
    num_vertices: int,
    k: int = 4,
    rewire_p: float = 0.1,
    seed: int | None = 0,
    name: str = "",
) -> CSRGraph:
    """Directed Watts-Strogatz ring: each vertex links to its ``k`` clockwise
    neighbors; each link is rewired to a uniform random target with
    probability ``rewire_p``.
    """
    src, dst = edge_list(smallworld_chunks, num_vertices, k, rewire_p, seed)
    return from_edges(
        src, dst, num_vertices=num_vertices, dedup=False, name=name or "smallworld"
    )
