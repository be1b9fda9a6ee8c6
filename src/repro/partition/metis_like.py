"""Locality-aware edge-cut — the stand-in for Groute's METIS partitions.

METIS minimizes edge cut by clustering tightly-connected vertices.  Without
the METIS binary we approximate the same *effect* with a BFS locality
ordering: vertices are renumbered by BFS discovery order (neighbors end up
adjacent), then split into contiguous, edge-balanced blocks.  On the crawl
and social graphs used here this captures most of METIS's cut reduction
relative to hashed/random placement while remaining dependency-free and
deterministic — the property that matters to the study is "neighborhood
locality + load balance" (the paper says exactly this about XtraPulp-style
edge-cuts in Section III-C).
"""

from __future__ import annotations

import numpy as np

from repro.graph import expand
from repro.graph.csr import CSRGraph
from repro.partition.base import PartitionedGraph, build_partitions
from repro.partition.edgecut import blocked_owner_from_degrees

__all__ = ["metis_like", "bfs_order"]


def bfs_order(graph: CSRGraph) -> np.ndarray:
    """BFS discovery order over the undirected view, restarting at the
    lowest-ID unvisited vertex so disconnected graphs are fully covered.

    Returns ``order`` with ``order[i]`` = i-th vertex discovered.
    """
    n = graph.num_vertices
    seen = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for root in range(n):
        if seen[root]:
            continue
        for wave in expand.undirected_waves(graph, root, seen):
            order[pos : pos + len(wave)] = wave
            pos += len(wave)
    return order


def metis_like(graph: CSRGraph, num_partitions: int) -> PartitionedGraph:
    """Locality-ordered, edge-balanced edge-cut (Groute's partitioning)."""
    order = bfs_order(graph)
    rank = np.empty(graph.num_vertices, dtype=np.int64)
    rank[order] = np.arange(graph.num_vertices)
    # Balance out-edges across contiguous blocks *of the BFS order*.
    deg_in_order = graph.out_degrees()[order]
    block_of_rank = blocked_owner_from_degrees(deg_in_order, num_partitions)
    owner = block_of_rank[rank].astype(np.int32)
    edge_owner = owner[graph.edge_sources()]
    return build_partitions(
        graph, owner, edge_owner, num_partitions, policy="metis-like"
    )
