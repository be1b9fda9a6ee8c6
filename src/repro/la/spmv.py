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

from repro.check.level import CheckLevel, current_check_level
from repro.errors import ConfigurationError, GraphFormatError, InvariantViolation
from repro.graph import expand
from repro.graph.csr import CSRGraph
from repro.idset import merge_touched, scatter_changed
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
    :func:`~repro.graph.expand.block_edge_budget` edges, so the per-edge
    temporaries stay bounded on out-of-core frontiers (docs/scale.md).
    The source values are read **once**, before the first block
    scatters: with ``x is y`` (bfs, sssp, cc) a later block must not see
    what an earlier block of the same round wrote, or the round's
    changed set — and with it work items and simulated time — would
    depend on the block budget.
    """
    xf = x[frontier]
    # combine is elementwise: weightless edges combine once per frontier
    # vertex and spread; weighted ones widen per vertex, spread, and take
    # their weights in place
    xf = (semiring.widen(xf) if with_weights
          else semiring.combine(xf, None, y.dtype))
    parts, edges, pos = [], 0, 0
    for blk, counts, dsts, w in expand.expand_edges_blocks(
        graph, frontier, with_weights
    ):
        vals = np.repeat(xf[pos:pos + len(blk)], counts)
        pos += len(blk)
        if w is not None:
            vals = semiring.combine_widened(vals, w, y.dtype)
        parts.append(scatter_changed(semiring.add.op, y, dsts, vals))
        edges += len(dsts)
    return merge_touched(parts, len(y)), edges


@dataclass
class PullPlan:
    """A cached pull expansion over the reverse graph for a fixed row set.

    The pull expansion of a static frontier is identical every round, so
    it is computed once: the in-neighbor gather list, each row's segment
    start, and the row blocks the gather runs in (``block_bounds``
    tuples, at most ``block_edge_budget()`` edges each).  ``workspace``
    is the one per-edge buffer a round needs, as long as the widest
    block; a plan lives in one partition's state, so partitions on
    different threads never share it.
    """

    in_nbrs: np.ndarray
    num_rows: int
    starts: np.ndarray
    num_cols: int  #: operand length ``in_nbrs`` was checked against
    blocks: list
    workspace: np.ndarray | None = None

    @classmethod
    def build(cls, graph: CSRGraph, rows: np.ndarray) -> "PullPlan":
        counts, in_nbrs, _ = expand.expand_edges(graph.reverse(), rows)
        n = graph.num_vertices
        if not counts.all():
            # reduceat cannot represent an empty segment: it would hand
            # back the next row's first value
            raise GraphFormatError(
                f"pull plan row {int(rows[np.argmin(counts)])} has no "
                f"in-edges on {graph.name!r}"
            )
        # checked once here, so the per-round gather may clip instead
        if len(in_nbrs) and not 0 <= in_nbrs.min() <= in_nbrs.max() < n:
            raise GraphFormatError(
                f"in-neighbor ids of {graph.name!r} leave [0, {n})"
            )
        ends = np.cumsum(counts)
        return cls(in_nbrs=in_nbrs, num_rows=len(rows), starts=ends - counts,
                   num_cols=n,
                   blocks=list(expand.block_bounds(
                       ends, expand.block_edge_budget())))


def _gather(xw: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    # mode="clip" writes straight into ``out`` ("raise" buffers the whole
    # gather first); PullPlan.build did the bounds check
    np.take(xw, idx, out=out, mode="clip")


def spmv_pull(plan: PullPlan, x: np.ndarray, semiring: Semiring) -> np.ndarray:
    """Dense-frontier pull: per-row sum of combined in-neighbor values.

    ``np.add.reduceat`` sums each segment *pairwise*; a sequential loop
    rounds differently on floats, so the summation order is part of the
    contract.  A segment's sum depends on its own values only, so ``x``
    is combined once per *vertex* (cast and gather commute) and gathered
    wide, row block by row block, into the plan's workspace: the bits of
    one whole-graph gather at the budget's per-edge memory
    (docs/kernels.md).  Returns a fresh array.
    """
    if len(x) != plan.num_cols:
        raise ConfigurationError(
            f"pull operand has {len(x)} entries, the plan's graph "
            f"{plan.num_cols} vertices"
        )
    xw = semiring.combine(x, None)
    out = np.empty(plan.num_rows, dtype=xw.dtype)
    ws = plan.workspace
    if ws is None or ws.dtype != xw.dtype:
        widest = max((e1 - e0 for _, _, e0, e1 in plan.blocks), default=0)
        ws = plan.workspace = np.empty(widest, dtype=xw.dtype)
    for r0, r1, e0, e1 in plan.blocks:
        blk = ws[:e1 - e0]
        _gather(xw, plan.in_nbrs[e0:e1], blk)
        starts = plan.starts[r0:r1]
        np.add.reduceat(blk, starts - e0 if e0 else starts, out=out[r0:r1])
    if current_check_level() >= CheckLevel.FULL:
        from repro.check.oracle import pull_reference

        if pull_reference(plan, x, semiring).tobytes() != out.tobytes():
            raise InvariantViolation(
                "spmv_pull differs from the two-temporary reference",
                checker="pull-differential",
            )
    return out


def segment_reduce(
    monoid,
    values: np.ndarray,
    rep: np.ndarray,
    num_segments: int,
    dtype,
    identity,
) -> np.ndarray:
    """Reduce ``values`` into ``num_segments`` buckets under ``monoid``
    via an ``identity``-filled scatter (the min/max pull primitive;
    ``add`` pulls go through :func:`spmv_pull` for reduceat's pairwise
    float order)."""
    out = np.full(num_segments, identity, dtype=dtype)
    if len(rep):
        monoid.ufunc.at(out, rep, values)
    return out
