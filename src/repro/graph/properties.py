"""Graph property measurement — regenerates the paper's Table I columns.

Table I reports, per input: |V|, |E|, |E|/|V|, max out-degree, max in-degree,
approximate diameter, and on-disk size.  ``properties`` computes all of them
for a :class:`CSRGraph`; the approximate diameter uses the standard
double-sweep BFS lower bound (exact diameters of billion-edge crawls are
infeasible, and the paper itself reports approximations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import GIB
from repro.graph import expand
from repro.graph.csr import CSRGraph
from repro.utils import rng_from_seed

__all__ = [
    "GraphProperties",
    "properties",
    "approximate_diameter",
    "bfs_levels",
]


@dataclass(frozen=True)
class GraphProperties:
    """The Table I row for one input."""

    name: str
    num_vertices: int
    num_edges: int
    avg_degree: float
    max_out_degree: int
    max_in_degree: int
    approx_diameter: int
    size_gb: float

    def row(self) -> tuple:
        return (
            self.name,
            self.num_vertices,
            self.num_edges,
            round(self.avg_degree, 1),
            self.max_out_degree,
            self.max_in_degree,
            self.approx_diameter,
            round(self.size_gb, 2),
        )


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """BFS levels from ``source`` over the undirected view (-1 =
    unreached): diameter estimates conventionally ignore direction."""
    level = np.full(graph.num_vertices, -1, dtype=np.int64)
    seen = np.zeros(graph.num_vertices, dtype=bool)
    for depth, wave in enumerate(expand.undirected_waves(graph, source, seen)):
        level[wave] = depth
    return level


def approximate_diameter(
    graph: CSRGraph, num_sweeps: int = 4, seed: int | None = 0
) -> int:
    """Double-sweep BFS lower bound on the (undirected) diameter.

    Starts from a random vertex, BFSes to find the farthest vertex, then
    BFSes again from there; repeated ``num_sweeps`` times keeping the max
    eccentricity observed.
    """
    if graph.num_vertices == 0:
        return 0
    rng = rng_from_seed(seed)
    best = 0
    # Seed the first sweep at the max-degree vertex: random starts can land
    # on isolated vertices of sparse graphs and report eccentricity 0.
    start = int(np.argmax(graph.out_degrees() + graph.in_degrees()))
    for _ in range(num_sweeps):
        levels = bfs_levels(graph, start)
        ecc = int(levels.max())  # unreached is -1, the start itself 0
        best = max(best, ecc)
        far = np.flatnonzero(levels == ecc)
        start = int(far[rng.integers(len(far))])
    return best


def properties(
    graph: CSRGraph,
    name: str | None = None,
    scale_factor: float = 1.0,
    diameter_sweeps: int = 4,
) -> GraphProperties:
    """Compute the Table I row for ``graph``.

    ``scale_factor`` multiplies the byte size so scaled stand-ins report
    their paper-scale on-disk footprint (|V|+|E| binary CSR, as the paper's
    .gr files do).
    """
    out_deg = graph.out_degrees()
    in_deg = graph.in_degrees()
    size_bytes = graph.nbytes(include_weights=False) * scale_factor
    return GraphProperties(
        name=name or graph.name or "graph",
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=graph.num_edges / max(graph.num_vertices, 1),
        max_out_degree=int(out_deg.max(initial=0)),
        max_in_degree=int(in_deg.max(initial=0)),
        approx_diameter=approximate_diameter(graph, num_sweeps=diameter_sweeps),
        size_gb=size_bytes / GIB,
    )
