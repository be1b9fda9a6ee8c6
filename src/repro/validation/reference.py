"""Single-machine reference implementations (scipy backed).

The distributed engines must produce *exactly* these answers (pagerank: to
numerical tolerance) regardless of partitioning policy, communication
optimization, or execution model — that is the core correctness contract
of the whole framework, and what the integration tests assert.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from repro.constants import INF
from repro.graph.csr import CSRGraph

__all__ = [
    "reference_bfs",
    "reference_sssp",
    "reference_cc",
    "reference_pagerank",
    "reference_kcore_mask",
    "reference_triangle_count",
    "pagerank_close",
]


def pagerank_close(ours: np.ndarray, ref: np.ndarray, rtol: float = 1e-3) -> bool:
    """PageRank agreement check with per-vertex *relative* error.

    Unnormalized ranks span four orders of magnitude (hubs reach the
    thousands), so an absolute tolerance either over-constrains hubs or
    under-constrains leaves; relative error is the meaningful metric.
    """
    return bool((np.abs(ours - ref) / (np.abs(ref) + 1.0)).max() < rtol)


def _scipy_matrix(graph: CSRGraph, weighted: bool) -> csr_matrix:
    n = graph.num_vertices
    data = (
        graph.weights.astype(np.float64)
        if weighted
        else np.ones(graph.num_edges, dtype=np.float64)
    )
    return csr_matrix((data, graph.indices, graph.indptr), shape=(n, n))


def reference_bfs(graph: CSRGraph, source: int) -> np.ndarray:
    """Hop distances from ``source`` (uint32, INF = unreachable)."""
    mat = _scipy_matrix(graph, weighted=False)
    d = dijkstra(mat, directed=True, indices=source, unweighted=True)
    out = np.full(graph.num_vertices, INF, dtype=np.uint32)
    finite = np.isfinite(d)
    out[finite] = d[finite].astype(np.uint32)
    return out


def reference_sssp(graph: CSRGraph, source: int) -> np.ndarray:
    """Weighted shortest distances (uint32, INF = unreachable)."""
    mat = _scipy_matrix(graph, weighted=True)
    d = dijkstra(mat, directed=True, indices=source)
    out = np.full(graph.num_vertices, INF, dtype=np.uint32)
    finite = np.isfinite(d)
    out[finite] = d[finite].astype(np.uint32)
    return out


def reference_cc(graph: CSRGraph) -> np.ndarray:
    """Per-vertex component label = min global vertex ID in the component.

    ``graph`` should already be symmetric (cc runs on the symmetrized
    input); weak connectivity is used so it also works on directed views.
    """
    mat = _scipy_matrix(graph, weighted=False)
    _, labels = connected_components(mat, directed=True, connection="weak")
    n = graph.num_vertices
    # map arbitrary component ids to the minimum vertex id per component
    min_vertex = np.full(labels.max() + 1 if n else 0, n, dtype=np.int64)
    np.minimum.at(min_vertex, labels, np.arange(n))
    return min_vertex[labels].astype(np.uint32)


def reference_pagerank(
    graph: CSRGraph, damping: float = 0.85, tol: float = 1e-4, max_iter: int = 500
) -> np.ndarray:
    """Unnormalized PageRank fixpoint matching the engines' formula:
    ``rank(v) = (1-d) + d * sum_{(u,v) in E} rank(u) / outdeg(u)``."""
    n = graph.num_vertices
    outdeg = graph.out_degrees().astype(np.float64)
    inv = np.where(outdeg > 0, 1.0 / np.maximum(outdeg, 1.0), 0.0)
    # column-stochastic-ish operator via the reverse graph
    rev = graph.reverse()
    rank = np.full(n, 1.0 - damping)
    src_of_in_edge = rev.indices  # in-neighbor u for each (u, v)
    v_of_in_edge = rev.edge_sources()
    for _ in range(max_iter):
        contrib = np.zeros(n)
        np.add.at(contrib, v_of_in_edge, rank[src_of_in_edge] * inv[src_of_in_edge])
        new = (1.0 - damping) + damping * contrib
        delta = np.abs(new - rank).max()
        rank = new
        if delta < tol:
            break
    return rank


def reference_bc_single_source(graph: CSRGraph, source: int) -> np.ndarray:
    """Single-source Brandes dependency scores (unweighted, directed).

    ``delta(v)`` = sum over targets t of the fraction of shortest
    source->t paths through v; ``bc`` accumulates these over sources.
    """
    from collections import deque

    n = graph.num_vertices
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    order: list[int] = []
    dist[source] = 0
    sigma[source] = 1.0
    q = deque([source])
    while q:
        u = q.popleft()
        order.append(u)
        du = dist[u]
        for v in graph.neighbors(u):
            if dist[v] < 0:
                dist[v] = du + 1
                q.append(v)
            if dist[v] == du + 1:
                sigma[v] += sigma[u]
    delta = np.zeros(n, dtype=np.float64)
    for v in reversed(order):
        dv = dist[v]
        sv = sigma[v]
        for w in graph.neighbors(v):
            if dist[w] == dv + 1:
                delta[v] += sv / sigma[w] * (1.0 + delta[w])
    return delta


def reference_kcore_mask(graph: CSRGraph, k: int) -> np.ndarray:
    """Boolean in-k-core mask via sequential peeling (symmetric graph).

    An edge-list mask on purpose, not the frontier expansion kcore calls:
    a referee that shares the player's kernel shares its bugs.
    """
    deg = graph.out_degrees().astype(np.int64).copy()
    alive = np.ones(graph.num_vertices, dtype=bool)
    src = graph.edge_sources()
    dying = deg < k
    while dying.any():
        alive[dying] = False
        np.subtract.at(deg, graph.indices[dying[src]], 1)
        dying = alive & (deg < k)
    return alive


def _oriented(graph: CSRGraph) -> csr_matrix:
    """Upper-triangular (u < v) boolean adjacency of a symmetric graph."""
    src = graph.edge_sources().astype(np.int64)
    dst = graph.indices.astype(np.int64)
    keep = src < dst
    n = graph.num_vertices
    mat = csr_matrix(
        (np.ones(int(keep.sum()), dtype=np.int64), (src[keep], dst[keep])),
        shape=(n, n),
    )
    mat.sum_duplicates()
    mat.data[:] = 1
    return mat


def reference_triangle_count(graph: CSRGraph) -> int:
    """Exact triangle count of a symmetric graph (trace of A_oriented^2 ∘ A)."""
    a = _oriented(graph)
    return int((a @ a).multiply(a).sum())
