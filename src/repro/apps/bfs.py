"""Breadth-first search: push-style data-driven (D-IrGL/Lux/Groute) and the
direction-optimizing variant Gunrock uses.

Labels are hop distances; the reduction is ``min`` (concurrent relaxations
of the same vertex keep the shortest).  The source is the maximum
out-degree vertex, as the paper specifies.
"""

from __future__ import annotations

import numpy as np

from repro.comm.gluon import FieldSpec
from repro.constants import INF
from repro.engine.operator import RoundOutput, RunContext, SyncStep, VertexProgram
from repro.idset import scatter_changed
from repro.la import direction, semiring, spmv
from repro.partition.base import LocalPartition

__all__ = ["BFS", "DirectionOptBFS"]

_EMPTY = np.empty(0, dtype=np.int64)


class BFS(VertexProgram):
    """Data-driven push BFS."""

    name = "bfs"
    style = "push"
    driven = "data"
    output_field = "dist"

    def fields(self):
        return [
            FieldSpec(
                name="dist", dtype=np.uint32, reduce_op="min",
                read_at="src", write_at="dst", identity=INF,
            )
        ]

    def sync_plan(self):
        return [SyncStep("reduce", "dist"), SyncStep("broadcast", "dist")]

    def init_state(self, part: LocalPartition, ctx: RunContext):
        dist = np.full(part.num_local, INF, dtype=np.uint32)
        if ctx.source is not None:
            l = part.global_to_local[ctx.source]
            if l >= 0:
                dist[l] = 0
        return {"dist": dist}

    def initial_frontier(self, part, ctx, state):
        if ctx.source is None:
            return _EMPTY
        l = part.global_to_local[ctx.source]
        return np.asarray([l], dtype=np.int64) if l >= 0 else _EMPTY

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        dist = state["dist"]
        degrees = self.frontier_degrees(part, frontier)
        # min-plus SpMSpV — bfs with the implicit unit weight, sssp
        # (needs_weights) with the edge's; the semiring's combine widens
        # candidates to int64 and narrows them back to uint32
        changed, edges = spmv.spmsv_push(
            part.graph, frontier, dist, dist, semiring.MIN_PLUS,
            with_weights=self.needs_weights,
        )
        return RoundOutput(
            updated={"dist": changed},
            activated=changed,
            edges_processed=edges,
            frontier_degrees=degrees,
        )


class DirectionOptBFS(BFS):
    """Gunrock's direction-optimizing BFS (Beamer-style push/pull switch).

    When the frontier's out-edges exceed a fraction of the partition's
    edges, a round switches to *pull*: unvisited vertices scan their local
    in-edges for a visited parent.  On low-diameter power-law graphs this
    skips the few giant middle frontiers — Gunrock's algorithmic edge in
    Table II.
    """

    name = "bfs-do"

    #: Beamer-style pull is only sound level-synchronously: a pull round
    #: finalizes a vertex on its *first* visited parent, which is the true
    #: BFS parent only when every partition sits at the same frontier
    #: depth.  Under BASP a partition can race ahead on a long local path,
    #: finalize a vertex too deep, and drop it from the pull pool before
    #: the short cross-partition path arrives — whose activated parent
    #: then lands in a pull round that never rescans visited vertices
    #: (found by repro-fuzz; see tests/cases/bfsdo_async_pull_finalize.json).
    #: Real Gunrock is bulk-synchronous for exactly this reason.
    async_capable = False

    #: switch to pull when frontier out-edges exceed |E_local| / alpha
    alpha: float = 20.0

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        dist = state["dist"]
        out_deg = part.graph.out_degrees()
        frontier_edges = int(out_deg[frontier].sum())
        selector = direction.DirectionSelector(self.alpha)
        if not selector.use_pull(part.graph, frontier_edges):
            return super().compute(part, ctx, state, frontier)

        # ---- pull round: unvisited scan their in-edges ------------------ #
        # The reverse graph and the shrinking candidate pool live in
        # repro.la.direction.PullPool, held in private state (leading
        # underscore: never synchronized).
        pool = state.get("_do_pull")
        if pool is None:
            pool = state["_do_pull"] = direction.PullPool(part.graph)
        sr = semiring.MIN_PLUS
        unvisited = pool.narrow(dist, sr.add.identity(dist.dtype))
        step = direction.pull_step(unvisited, pool.rev, dist, sr)
        if step is None:
            return RoundOutput({"dist": _EMPTY}, _EMPTY, 0, np.zeros(0))
        cand, hit, edges = step
        changed = scatter_changed(
            "min", dist, unvisited[hit], cand[hit].astype(np.uint32)
        )
        return RoundOutput(
            updated={"dist": changed},
            activated=changed,
            edges_processed=edges,
            frontier_degrees=pool.rdeg[unvisited].astype(np.float64),
        )
