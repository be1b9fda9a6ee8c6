"""Graph transformations: weighting, reversal, symmetrization, relabeling."""

from __future__ import annotations

import numpy as np

from repro.constants import MAX_EDGE_WEIGHT, WEIGHT_DTYPE
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.order import symmetric_csr
from repro.utils import rng_from_seed

__all__ = [
    "add_random_weights",
    "reverse",
    "make_undirected",
    "relabel",
]


def add_random_weights(graph: CSRGraph, seed: int | None = 0) -> CSRGraph:
    """Attach randomized integer edge weights in ``[1, MAX_EDGE_WEIGHT]``.

    The paper: "For all inputs, we add randomized edge-weights."  The seed
    defaults to 0 so dataset stand-ins are reproducible across runs.
    """
    rng = rng_from_seed(seed)
    w = rng.integers(1, MAX_EDGE_WEIGHT + 1, size=graph.num_edges, dtype=np.int64)
    return CSRGraph(
        graph.indptr, graph.indices, w.astype(WEIGHT_DTYPE), name=graph.name
    )


def reverse(graph: CSRGraph) -> CSRGraph:
    """Transpose the graph (alias of :meth:`CSRGraph.reverse`)."""
    return graph.reverse()


def make_undirected(graph: CSRGraph) -> CSRGraph:
    """Symmetrize: add the reverse of every edge, dropping duplicates.

    Connected-components benchmarks treat the input as undirected; frameworks
    symmetrize web crawls before running cc/kcore.
    """
    return CSRGraph(*symmetric_csr(graph), name=graph.name + "+sym")


def relabel(graph: CSRGraph, perm: np.ndarray) -> CSRGraph:
    """Relabel vertices: new id of vertex ``v`` is ``perm[v]``.

    ``perm`` must be a permutation of ``0..|V|-1``.  Used to destroy or
    introduce locality when studying partitioners.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = graph.num_vertices
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("perm must be a permutation of 0..|V|-1")
    src = perm[graph.edge_sources()]
    dst = perm[graph.indices]
    return from_edges(
        src, dst, num_vertices=n,
        weights=graph.weights if graph.has_weights else None,
        name=graph.name + "+relabel",
    )
