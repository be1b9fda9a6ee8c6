"""Graph substrate: immutable CSR graphs, builders, IO, and properties."""

from repro.graph.csr import CSRGraph
from repro.graph.builder import from_edges
from repro.graph.properties import (
    GraphProperties,
    approximate_diameter,
    properties,
)
from repro.graph.transform import add_random_weights, make_undirected
from repro.graph.io import load_edgelist, save_edgelist
from repro.graph.mutable import EdgeBatch, MutableGraph
from repro.graph.store import (
    from_edge_chunks,
    open_csr,
    store_info,
    verify_store,
    write_csr_store,
)

__all__ = [
    "CSRGraph",
    "from_edges",
    "GraphProperties",
    "approximate_diameter",
    "properties",
    "add_random_weights",
    "make_undirected",
    "EdgeBatch",
    "MutableGraph",
    "load_edgelist",
    "save_edgelist",
    "from_edge_chunks",
    "open_csr",
    "store_info",
    "verify_store",
    "write_csr_store",
]
