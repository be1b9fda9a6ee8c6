"""Masked SpMSpV (push) and cached SpMV (pull) over semirings.

``spmsv_push`` is the sparse-vector product every data-driven app round
is: gather the frontier's out-edges, combine source values with edge
weights under the semiring's multiply, scatter-reduce into the output
vector under its add monoid.  ``spmv_pull`` is the topology-driven dual
(PageRank): a cached segmented reduction over the reverse graph.

Both take an explicit :class:`~repro.la.backend.ArrayBackend` and obey
its bit-identity contract — the arithmetic below reproduces the legacy
loop kernels bitwise, cast for cast (see docs/kernels.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.common import expand_edges
from repro.graph.csr import CSRGraph
from repro.la.backend import ArrayBackend
from repro.la.semiring import Semiring

__all__ = ["spmsv_push", "PullPlan", "spmv_pull", "segment_reduce"]

_EMPTY = np.empty(0, dtype=np.int64)


def spmsv_push(
    graph: CSRGraph,
    frontier: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    semiring: Semiring,
    backend: ArrayBackend,
    with_weights: bool = False,
    mask: np.ndarray | None = None,
    complement: bool = False,
):
    """One push round: ``y <add>= A(frontier,:)^T <mult> x[frontier]``.

    ``mask`` (boolean over destinations) keeps only masked edges;
    ``complement=True`` inverts it (the structural complement — e.g.
    "only still-unvisited destinations").  Returns ``(changed, edges)``:
    the unique destination IDs whose entry changed under the add monoid,
    and the number of edges processed.
    """
    counts, dsts, w = expand_edges(graph, frontier, with_weights=with_weights)
    if len(dsts) == 0:
        return _EMPTY, 0
    # combine is elementwise, so weightless edges combine once per
    # frontier vertex and spread; weighted ones spread first
    if w is None:
        vals = np.repeat(semiring.combine(x[frontier], None, y.dtype), counts)
    else:
        vals = semiring.combine(np.repeat(x[frontier], counts), w, y.dtype)
    if mask is not None:
        keep = mask[dsts]
        if complement:
            keep = ~keep
        vals, dsts = vals[keep], dsts[keep]
        if len(dsts) == 0:
            return _EMPTY, 0
    changed = backend.scatter(semiring.add.op, y, dsts, vals)
    return changed, len(dsts)


@dataclass
class PullPlan:
    """A cached pull expansion over the reverse graph for a fixed row set.

    The pull expansion of a static frontier is identical every round;
    computing it once (in-neighbor gather list plus each row's segment
    start) is what the loop path cached as ``_topo_expansion``.
    """

    in_nbrs: np.ndarray
    num_rows: int
    starts: np.ndarray

    @classmethod
    def build(cls, graph: CSRGraph, rows: np.ndarray) -> "PullPlan":
        rev = graph.reverse()
        counts, in_nbrs, _ = expand_edges(rev, rows)
        return cls(in_nbrs=in_nbrs, num_rows=len(rows),
                   starts=np.cumsum(counts) - counts)


def spmv_pull(
    plan: PullPlan,
    x: np.ndarray,
    semiring: Semiring,
    backend: ArrayBackend,
) -> np.ndarray:
    """Dense-frontier pull: per-row add-monoid reduction of combined
    in-neighbor values.  Rows must all be non-empty (reduceat's
    empty-segment pitfall; the callers' row sets guarantee it)."""
    vals = semiring.combine(x[plan.in_nbrs], None)
    return backend.segment_sum(vals, plan.starts)


def segment_reduce(
    monoid,
    values: np.ndarray,
    rep: np.ndarray,
    num_segments: int,
    backend: ArrayBackend,
    dtype,
    identity=None,
) -> np.ndarray:
    """Reduce ``values`` into ``num_segments`` buckets under ``monoid``
    via an identity-filled scatter (the min/max/or pull primitive;
    ``add`` pulls go through :func:`spmv_pull` for reduceat's pairwise
    float order)."""
    fill = monoid.identity(dtype) if identity is None else identity
    out = np.full(num_segments, fill, dtype=dtype)
    if len(rep):
        backend.scatter_inplace(monoid.op, out, rep, values)
    return out
