"""Graph transformations: weighting, reversal, symmetrization."""

from __future__ import annotations

import numpy as np

from repro.constants import MAX_EDGE_WEIGHT, WEIGHT_DTYPE
from repro.graph.csr import CSRGraph
from repro.graph.order import symmetric_csr
from repro.utils import rng_from_seed

__all__ = [
    "add_random_weights",
    "make_undirected",
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


def make_undirected(graph: CSRGraph) -> CSRGraph:
    """Symmetrize: add the reverse of every edge, dropping duplicates.

    Connected-components benchmarks treat the input as undirected; frameworks
    symmetrize web crawls before running cc/kcore.
    """
    return CSRGraph(*symmetric_csr(graph), name=graph.name + "+sym")
