"""networkx adapters for the tests that check against networkx oracles.

networkx is a ``dev`` dependency: nothing under ``src/repro`` imports it.
"""

import networkx as nx
import numpy as np

from repro.graph import CSRGraph, from_edges


def from_networkx(g, weight_attr=None, name: str = "") -> CSRGraph:
    """Convert a networkx (Di)Graph with integer nodes ``0..n-1`` to CSR.

    Undirected graphs are expanded to both edge directions, matching how the
    paper's frameworks ingest symmetric inputs.
    """
    n = g.number_of_nodes()
    nodes = sorted(g.nodes())
    if nodes != list(range(n)):
        g = nx.relabel_nodes(g, {u: i for i, u in enumerate(nodes)}, copy=True)
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


def to_networkx(graph: CSRGraph) -> nx.DiGraph:
    """Convert to a :class:`networkx.DiGraph` (weights as ``weight`` attr)."""
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
