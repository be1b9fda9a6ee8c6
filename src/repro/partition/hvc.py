"""Hybrid vertex-cut (HVC) — the PowerLyra policy (Chen et al., EuroSys'15).

HVC differentiates by in-degree: *low* in-degree vertices keep all their
in-edges with their master (like an edge-cut — locality for the common
case), while *high* in-degree vertices have their in-edges distributed by
the **source** vertex's hash (like a vertex-cut — spreading the load the
hubs would otherwise concentrate).  Masters are placed by hash, so HVC has
no contiguous-block structure and typically the highest replication factor
of the four policies — matching the paper's observation that its static
balance can be the worst on web crawls (Table IV: uk14 bfs/sssp HVC 1.40).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.base import PartitionedGraph, build_partitions

__all__ = ["hvc"]

#: a vertex is a hub when its in-degree exceeds this multiple of the average
#: degree (PowerLyra's recommended regime)
HUB_FACTOR = 4.0

#: Knuth multiplicative hashing constant — cheap, deterministic placement.
_HASH_MULT = np.uint64(2654435761)


def _hash_owner(ids: np.ndarray, num_partitions: int) -> np.ndarray:
    h = (ids.astype(np.uint64) * _HASH_MULT) >> np.uint64(16)
    return (h % np.uint64(num_partitions)).astype(np.int32)


def hvc(graph: CSRGraph, num_partitions: int) -> PartitionedGraph:
    """Hybrid vertex-cut: a vertex whose in-degree exceeds :data:`HUB_FACTOR`
    times the average degree is a hub."""
    from repro.partition.edgecut import blocked_owner_from_degrees

    in_deg = graph.in_degrees()
    high = in_deg > HUB_FACTOR * graph.num_edges / max(graph.num_vertices, 1)

    # Masters are placed in contiguous edge-balanced blocks (as CuSP's HVC
    # does) so the low-degree case keeps the input's locality; only the
    # hubs' in-edges are scattered by source hash.
    owner = blocked_owner_from_degrees(in_deg, num_partitions)
    dst = graph.indices
    edge_owner = owner[dst]  # low-degree: in-edges at destination's master
    # spread hub in-edges by source hash; an edge's source is the last row
    # whose offset is at or before it, so no per-edge source array is built
    hub_edges = np.flatnonzero(high[dst])
    src = graph.indptr.searchsorted(hub_edges, side="right") - 1
    edge_owner[hub_edges] = _hash_owner(src, num_partitions)
    return build_partitions(
        graph, owner, edge_owner, num_partitions, policy="hvc"
    )
