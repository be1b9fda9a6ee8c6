"""Constructing :class:`~repro.graph.csr.CSRGraph` from edge lists and networkx.

All builders are vectorized: CSR assembly is :func:`repro.graph.order.csr_arrays`
— a blockwise check when the edges are already in (src, dst) order, one sort
of a packed key decoded straight into offsets and destinations when not; no
Python loop touches individual edges.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.constants import WEIGHT_DTYPE
from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.order import csr_arrays

__all__ = ["from_edges", "from_networkx", "to_networkx"]


def _vertex_ids(a) -> np.ndarray:
    """``a`` as a contiguous signed-integer array; a narrow one is read as it
    is (the packed key is computed in int64 anyway), anything else converted."""
    a = np.ascontiguousarray(a)
    return a if a.dtype.kind == "i" else a.astype(np.int64)


def from_edges(
    src,
    dst,
    num_vertices: Optional[int] = None,
    weights=None,
    dedup: bool = False,
    name: str = "",
) -> CSRGraph:
    """Build a CSR graph from parallel source/destination arrays.

    Edges are stored in :func:`~repro.graph.order.order_edges` order;
    already-ordered input costs one blockwise O(E) pass.  The graph owns its
    arrays either way, so freezing them never reaches the caller's buffers.

    Parameters
    ----------
    src, dst:
        integer array-likes of equal length.
    num_vertices:
        total vertex count; inferred as ``max(src, dst) + 1`` when omitted.
    weights:
        optional per-edge weights, permuted along with the edges.
    dedup:
        drop duplicate ``(src, dst)`` pairs (keeping the first occurrence's
        weight).  Off by default because real crawls keep parallel edges.
    """
    src, dst = _vertex_ids(src), _vertex_ids(dst)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphFormatError("src and dst must be equal-length 1-D arrays")
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=WEIGHT_DTYPE)
        if weights.shape != src.shape:
            raise GraphFormatError("weights must parallel src/dst")
    if num_vertices is None:
        num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
    if len(src) and (src.min() < 0 or dst.min() < 0):
        raise GraphFormatError("negative vertex id")
    if len(src) and (src.max() >= num_vertices or dst.max() >= num_vertices):
        raise GraphFormatError("vertex id exceeds num_vertices")

    indptr, indices, w = csr_arrays(src, dst, num_vertices, weights, dedup)
    return CSRGraph(indptr, indices, w, name=name)


def from_networkx(g, weight_attr: Optional[str] = None, name: str = "") -> CSRGraph:
    """Convert a networkx (Di)Graph with integer nodes ``0..n-1`` to CSR.

    Undirected graphs are expanded to both edge directions, matching how the
    paper's frameworks ingest symmetric inputs.
    """
    import networkx as nx

    n = g.number_of_nodes()
    nodes = sorted(g.nodes())
    if nodes != list(range(n)):
        mapping = {u: i for i, u in enumerate(nodes)}
        g = nx.relabel_nodes(g, mapping, copy=True)
    edges = list(g.edges(data=(weight_attr is not None)))
    src = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
    dst = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
    w = None if weight_attr is None else np.fromiter(
        (e[2].get(weight_attr, 1) for e in edges), dtype=np.int64, count=len(edges)
    )
    if not g.is_directed():
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if w is not None:
            w = np.concatenate([w, w])
    return from_edges(src, dst, num_vertices=n, weights=w, name=name)


def to_networkx(graph: CSRGraph):
    """Convert to a :class:`networkx.DiGraph` (weights as ``weight`` attr)."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_vertices))
    src = graph.edge_sources()
    if graph.has_weights:
        g.add_weighted_edges_from(
            zip(src.tolist(), graph.indices.tolist(), graph.weights.tolist())
        )
    else:
        g.add_edges_from(zip(src.tolist(), graph.indices.tolist()))
    return g
