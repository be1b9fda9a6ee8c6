"""Blocked SpMSpV (push) and cached SpMV (pull) over semirings.

``spmsv_push`` is the sparse-vector product every data-driven app round
is: gather the frontier's out-edges, combine source values with edge
weights under the semiring's multiply, scatter-reduce into the output
vector under its add monoid.  ``spmv_pull`` is the topology-driven dual
(PageRank): a cached segmented reduction over the reverse graph.

The scatters are :func:`repro.idset.scatter_changed` and the monoid's
``ufunc.at``, the segmented sum is ``np.add.reduceat`` — numpy's own
duplicate-order and pairwise-summation semantics are the bit-identity
contract (docs/kernels.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.common import expand_edges, expand_edges_blocks, merge_touched
from repro.graph.csr import CSRGraph
from repro.idset import scatter_changed
from repro.la.semiring import Semiring

__all__ = ["spmsv_push", "PullPlan", "spmv_pull", "segment_reduce"]


def spmsv_push(
    graph: CSRGraph,
    frontier: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    semiring: Semiring,
    with_weights: bool = False,
):
    """One push round: ``y <add>= A(frontier,:)^T <mult> x[frontier]``.

    Returns ``(changed, edges)``: the unique destination IDs whose entry
    changed under the add monoid, and the number of edges processed.

    The frontier is expanded in blocks of at most
    :func:`~repro.apps.common.block_edge_budget` edges, so the per-edge
    temporaries stay bounded on out-of-core frontiers (docs/scale.md).
    The source values are read **once**, before the first block
    scatters: with ``x is y`` (bfs, sssp, cc) a later block must not see
    what an earlier block of the same round wrote, or the round's
    changed set — and with it work items and simulated time — would
    depend on the block budget.
    """
    xf = x[frontier]
    if not with_weights:
        # combine is elementwise, so weightless edges combine once per
        # frontier vertex and spread; weighted ones spread first
        xf = semiring.combine(xf, None, y.dtype)
    parts, edges, pos = [], 0, 0
    for blk, counts, dsts, w in expand_edges_blocks(
        graph, frontier, with_weights
    ):
        vals = np.repeat(xf[pos:pos + len(blk)], counts)
        pos += len(blk)
        if w is not None:
            vals = semiring.combine(vals, w, y.dtype)
        parts.append(scatter_changed(semiring.add.op, y, dsts, vals))
        edges += len(dsts)
    return merge_touched(parts, len(y)), edges


@dataclass
class PullPlan:
    """A cached pull expansion over the reverse graph for a fixed row set.

    The pull expansion of a static frontier is identical every round, so
    it is computed once: the in-neighbor gather list plus each row's
    segment start.
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


def spmv_pull(plan: PullPlan, x: np.ndarray, semiring: Semiring) -> np.ndarray:
    """Dense-frontier pull: per-row sum of combined in-neighbor values.

    ``np.add.reduceat`` sums each segment *pairwise*; a sequential loop
    rounds differently on floats, so the summation order is part of the
    contract.  Rows must all be non-empty (reduceat's empty-segment
    pitfall; the callers' row sets guarantee it).
    """
    vals = semiring.combine(x[plan.in_nbrs], None)
    return np.add.reduceat(vals, plan.starts)


def segment_reduce(
    monoid,
    values: np.ndarray,
    rep: np.ndarray,
    num_segments: int,
    dtype,
    identity=None,
) -> np.ndarray:
    """Reduce ``values`` into ``num_segments`` buckets under ``monoid``
    via an identity-filled scatter (the min/max pull primitive; ``add``
    pulls go through :func:`spmv_pull` for reduceat's pairwise float
    order)."""
    fill = monoid.identity(dtype) if identity is None else identity
    out = np.full(num_segments, fill, dtype=dtype)
    if len(rep):
        monoid.ufunc.at(out, rep, values)
    return out
