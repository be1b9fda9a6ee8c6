"""Frontier expansion: the out-edges of a vertex set, gathered from CSR
(Gunrock's *advance*), owned by the layer that owns the CSR arrays.

``repro.la`` builds the push and pull rounds on it, kcore / mis / bc call
it directly, Table I's diameter and metis-like's ordering walk its BFS
waves (docs/kernels.md, "Where the kernels live").  Callers resolve it
through the module at call time (``expand.expand_edges(...)``, the rule
:mod:`repro.la.semiring` follows) so a planted bug reaches them all.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ConfigurationError, GraphFormatError
from repro.graph.csr import CSRGraph
from repro.idset import unique_ids

__all__ = [
    "expand_edges",
    "expand_edges_blocks",
    "block_bounds",
    "block_edge_budget",
    "undirected_waves",
]

#: default edge budget per expansion block (see
#: :func:`expand_edges_blocks`); large enough that every graph in the
#: regular study fits in one block — the blocked path only engages on
#: out-of-core-scale frontiers
DEFAULT_BLOCK_EDGES = 1 << 20


def block_edge_budget() -> int:
    """The ambient per-block edge budget.

    ``REPRO_BLOCK_EDGES`` overrides the default — the out-of-core sweep
    sets it low in its workers so one dense round's per-edge temporaries
    (~20 bytes/edge across the expansion arrays, see docs/scale.md) stay
    well under the RAM cap.  Read per expansion and per pull-plan build:
    spawn-started pool workers inherit the driver's environment, and a
    dict lookup is noise next to either.
    """
    raw = os.environ.get("REPRO_BLOCK_EDGES")
    if raw is None or raw == "":
        return DEFAULT_BLOCK_EDGES
    try:
        budget = int(raw)
    except ValueError:
        budget = 0  # rejected below with the other non-positive values
    if budget < 1:
        raise ConfigurationError(
            f"REPRO_BLOCK_EDGES must be a positive integer, got {raw!r}"
        )
    return budget


def _edge_selector(graph: CSRGraph, frontier: np.ndarray):
    """``(counts, sel)``: the frontier's out-degrees and the index of its
    edges into the CSR edge arrays — a ``slice`` when the ranges follow
    one another without a gap, else per-edge positions."""
    starts = graph.indptr[frontier]
    ends = graph.indptr[frontier + 1]
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return counts, slice(0, 0)  # empty arrays of the edge dtypes
    if np.array_equal(ends[:-1], starts[1:]):
        return counts, slice(int(starts[0]), int(ends[-1]))
    # edge i of the expansion sits at CSR position i + (its vertex's
    # range start - the edges expanded before that vertex)
    sel = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    sel += np.arange(total, dtype=np.int64)
    return counts, sel


def expand_edges(
    graph: CSRGraph, frontier: np.ndarray, with_weights: bool = False
):
    """Gather all out-edges of the frontier vertices, vectorized.

    Returns ``(counts, dsts, weights)``: ``counts[i]`` is the out-degree
    of ``frontier[i]``, ``dsts`` are the destination local IDs of every
    frontier vertex's edges in frontier-then-CSR order, and ``weights``
    parallels ``dsts`` (None unless requested).  A per-vertex value
    ``x`` reaches edge granularity as ``np.repeat(x[frontier], counts)``,
    and ``np.repeat(np.arange(len(frontier)), counts)`` is each edge's
    source as a position in the frontier array (a segment ID).

    When the frontier's CSR ranges follow one another without a gap — a
    single vertex, or a sorted frontier that only skips zero-degree
    vertices, which is every dense round — the edges are one slice of
    ``indices`` and no per-edge index array is built.
    """
    if with_weights and graph.weights is None:
        raise GraphFormatError("graph has no weights")
    counts, sel = _edge_selector(graph, frontier)
    dsts = graph.indices[sel].astype(np.int64)
    w = graph.weights[sel] if with_weights else None
    return counts, dsts, w


def block_bounds(ends: np.ndarray, max_edges: int):
    """Yield ``(start, stop, edge0, edge1)`` over consecutive vertices
    whose edge totals (``ends``: their running sum) stay under
    ``max_edges``; a vertex wider than the budget is its own block.  The
    one blocking rule of the push expansion and the pull plan."""
    n, start, base = len(ends), 0, 0
    while start < n:
        stop = int(np.searchsorted(ends, base + max_edges, side="right"))
        stop = min(max(stop, start + 1), n)
        end = int(ends[stop - 1])
        yield start, stop, base, end
        start, base = stop, end


def expand_edges_blocks(
    graph: CSRGraph, frontier: np.ndarray, with_weights: bool = False
):
    """Yield ``(block, counts, dsts, weights)`` over contiguous frontier
    slices whose out-edge totals stay under :func:`block_edge_budget`
    (:func:`block_bounds`' rule).

    :func:`expand_edges` materializes O(edges) temporaries at once; on
    an out-of-core graph one dense round would allocate a footprint
    rivaling the graph itself.  Slices bound that to O(budget), and
    because they are contiguous the concatenated per-edge streams are
    *exactly* the full expansion — elementwise kernels (``np.add.at`` /
    ``np.minimum.at``) applied block by block perform the identical
    operation sequence, so results are bit-identical to the unblocked
    path *provided the kernel read its per-vertex inputs before the
    first block wrote* (:func:`repro.la.spmv.spmsv_push` does).  A
    frontier that fits the budget comes back as a single block, which
    IS the unblocked path.
    """
    n = len(frontier)
    if n == 0:
        return
    max_edges = block_edge_budget()
    counts = np.asarray(graph.indptr[frontier + 1]) - graph.indptr[frontier]
    if int(counts.sum()) <= max_edges:
        yield (frontier, *expand_edges(graph, frontier, with_weights))
        return
    for start, stop, _, _ in block_bounds(np.cumsum(counts), max_edges):
        blk = frontier[start:stop]
        yield (blk, *expand_edges(graph, blk, with_weights))


def undirected_waves(graph: CSRGraph, source: int, seen: np.ndarray):
    """Yield the BFS waves from ``source`` over the undirected view: the
    sorted vertices first reached at each depth, ``[source]`` first.

    ``seen`` is the caller's visited mask, marked in place — restarting
    from another source on the same mask walks the next component.
    """
    rev = graph.reverse()
    wave = np.asarray([source], dtype=np.int64)
    while len(wave):
        seen[wave] = True
        yield wave
        nbrs = np.concatenate([
            expand_edges(graph, wave)[1], expand_edges(rev, wave)[1]
        ])
        nbrs = unique_ids(nbrs, len(seen))
        wave = nbrs[~seen[nbrs]]
