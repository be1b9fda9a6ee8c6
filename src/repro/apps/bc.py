"""Betweenness centrality (single-source Brandes) — extension benchmark.

Not one of the paper's five benchmarks, but a standard member of the
Gunrock/Groute suites and a stress test for the substrate: it needs *two*
chained vertex programs with different sync contracts.

* **Forward phase** — level-synchronous BFS that simultaneously counts
  shortest paths: ``sigma(v) = sum sigma(u)`` over predecessors ``u`` one
  level up.  Correctness under vertex-cuts requires ``dist`` broadcast to
  *every* proxy (``read_at='any'``): the guard "only contribute to
  still-undiscovered vertices" must see remote discoveries.
* **Backward phase** — dependency accumulation down the BFS DAG in
  descending level order: ``delta(u) += sigma(u)/sigma(v) * (1+delta(v))``
  for each DAG edge ``(u, v)``.  Contributions are written at the *source*
  proxy of the edge (``write_at='src'``), exercising the one sync-location
  combination the five paper benchmarks never use.

Both phases are inherently level-synchronous, so bc is BSP-only
(``async_capable = False``) — as it is in the real frameworks.

Use :func:`run_bc` to execute the chained phases.
"""

from __future__ import annotations

import numpy as np

from repro.comm.gluon import CommConfig, FieldSpec
from repro.constants import INF
from repro.engine.operator import (
    MasterOutput,
    RoundOutput,
    RunContext,
    SyncStep,
    VertexProgram,
)
from repro.graph import expand
from repro.idset import scatter_changed
from repro.partition.base import LocalPartition

__all__ = ["BrandesForward", "BrandesBackward", "run_bc"]

_EMPTY = np.empty(0, dtype=np.int64)


class BrandesForward(VertexProgram):
    """BFS + shortest-path counting (phase one of Brandes)."""

    name = "bc-forward"
    style = "push"
    driven = "data"
    async_capable = False
    output_field = "sigma"
    extra_outputs = ("dist",)

    def fields(self):
        return [
            FieldSpec(
                name="dist", dtype=np.uint32, reduce_op="min",
                read_at="any", write_at="dst", identity=INF,
            ),
            FieldSpec(
                name="sigma_acc", dtype=np.float64, reduce_op="add",
                read_at="none", write_at="dst", identity=0.0,
                reset_after_reduce=True,
            ),
            FieldSpec(
                name="sigma", dtype=np.float64, reduce_op="add",
                read_at="src", write_at="master",
            ),
        ]

    def sync_plan(self):
        return [
            SyncStep("reduce", "dist"),
            SyncStep("reduce", "sigma_acc"),
            SyncStep("master"),
            SyncStep("broadcast", "dist"),
            SyncStep("broadcast", "sigma"),
        ]

    def activating_fields(self):
        return {"dist"}

    def init_state(self, part: LocalPartition, ctx: RunContext):
        dist = np.full(part.num_local, INF, dtype=np.uint32)
        sigma = np.zeros(part.num_local, dtype=np.float64)
        if ctx.source is not None:
            l = part.to_local(ctx.source)
            if l >= 0:
                dist[l] = 0
                sigma[l] = 1.0
        return {
            "dist": dist,
            "sigma": sigma,
            "sigma_acc": np.zeros(part.num_local, dtype=np.float64),
            "_finalized": dist == 0,
        }

    def initial_frontier(self, part, ctx, state):
        if ctx.source is None:
            return _EMPTY
        l = part.to_local(ctx.source)
        return np.asarray([l], dtype=np.int64) if l >= 0 else _EMPTY

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        dist = state["dist"]
        sigma = state["sigma"]
        acc = state["sigma_acc"]
        degrees = self.frontier_degrees(part, frontier)
        counts, dsts, _ = expand.expand_edges(part.graph, frontier)
        if len(dsts) == 0:
            return RoundOutput({}, _EMPTY, 0, degrees)
        srcs = np.repeat(frontier, counts)
        # only still-undiscovered targets extend shortest paths; proxies
        # know about every remote discovery because dist broadcasts to all
        undiscovered = dist[dsts] == INF
        dsts_u = dsts[undiscovered]
        cand = (dist[srcs[undiscovered]].astype(np.int64) + 1).astype(np.uint32)
        changed = scatter_changed("min", dist, dsts_u, cand)
        touched = scatter_changed("add", acc, dsts_u, sigma[srcs[undiscovered]])
        return RoundOutput(
            updated={"dist": changed, "sigma_acc": touched},
            activated=changed,
            edges_processed=len(dsts),
            frontier_degrees=degrees,
        )

    def master_compute(self, part, ctx, state) -> MasterOutput:
        dist = state["dist"]
        sigma = state["sigma"]
        acc = state["sigma_acc"]
        fin = state["_finalized"]
        masters = np.flatnonzero(part.is_master & ~fin & (dist != INF))
        if len(masters) == 0:
            return MasterOutput({}, _EMPTY, 0.0)
        sigma[masters] = acc[masters]
        acc[masters] = 0.0
        fin[masters] = True
        return MasterOutput(
            updated={"sigma": masters}, activated=_EMPTY, residual=0.0
        )


class BrandesBackward(VertexProgram):
    """Dependency accumulation (phase two of Brandes).

    Requires ``ctx.payload`` with the forward phase's global ``dist`` and
    ``sigma`` arrays.  Levels are processed in descending order, one BSP
    round per level; the per-partition ``_level`` countdown stays globally
    consistent because every partition decrements once per round.
    """

    name = "bc-backward"
    style = "pull"  # work is over in-edges of the active level
    driven = "topology"
    async_capable = False
    output_field = "delta"

    def fields(self):
        return [
            FieldSpec(
                name="delta_acc", dtype=np.float64, reduce_op="add",
                read_at="none", write_at="src", identity=0.0,
                reset_after_reduce=True,
            ),
            FieldSpec(
                name="delta", dtype=np.float64, reduce_op="add",
                read_at="dst", write_at="master",
            ),
        ]

    def sync_plan(self):
        return [
            SyncStep("reduce", "delta_acc"),
            SyncStep("master"),
            SyncStep("broadcast", "delta"),
        ]

    def activating_fields(self):
        return set()

    def init_state(self, part: LocalPartition, ctx: RunContext):
        if not ctx.payload or "dist" not in ctx.payload:
            raise ValueError("bc-backward needs ctx.payload['dist'/'sigma']")
        g_dist = ctx.payload["dist"]
        g_sigma = ctx.payload["sigma"]
        dist = g_dist[part.local_to_global].astype(np.int64)
        # the countdown must start from the *global* deepest level so all
        # partitions retire the same level in the same round
        reachable_g = g_dist != INF
        max_level = int(g_dist[reachable_g].max()) if reachable_g.any() else 0
        return {
            "delta_acc": np.zeros(part.num_local, dtype=np.float64),
            "delta": np.zeros(part.num_local, dtype=np.float64),
            "_dist": dist,
            "_sigma": g_sigma[part.local_to_global].astype(np.float64),
            "_level": np.asarray([max_level], dtype=np.int64),
        }

    def initial_frontier(self, part, ctx, state):
        # vertices at the level currently being retired
        level = int(state["_level"][0])
        if level <= 0:
            return _EMPTY
        return np.flatnonzero(state["_dist"] == level).astype(np.int64)

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        delta = state["delta"]
        sigma = state["_sigma"]
        dist = state["_dist"]
        acc = state["delta_acc"]
        # active vertex v contributes to predecessors via local *in*-edges
        rev = part.graph.reverse()
        degrees = rev.out_degrees()[frontier].astype(np.float64)
        counts, preds, _ = expand.expand_edges(rev, frontier)
        if len(preds) == 0:
            return RoundOutput({}, _EMPTY, 0, degrees)
        vs = np.repeat(frontier, counts)
        is_dag_edge = dist[preds] == dist[vs] - 1
        preds = preds[is_dag_edge]
        vs = vs[is_dag_edge]
        contrib = (
            sigma[preds] / np.maximum(sigma[vs], 1.0)
            * (1.0 + delta[vs])
        )
        touched = scatter_changed("add", acc, preds, contrib)
        return RoundOutput(
            updated={"delta_acc": touched},
            activated=_EMPTY,
            edges_processed=int(is_dag_edge.sum()),
            frontier_degrees=degrees,
        )

    def master_compute(self, part, ctx, state) -> MasterOutput:
        level = int(state["_level"][0])
        state["_level"][0] = level - 1
        acc = state["delta_acc"]
        delta = state["delta"]
        masters = np.flatnonzero(part.is_master & (acc != 0.0))
        if len(masters):
            delta[masters] += acc[masters]
            acc[masters] = 0.0
        return MasterOutput(
            updated={"delta": masters},
            activated=_EMPTY,
            residual=float(max(level - 1, 0)),
        )

    def converged(self, ctx, global_residual: float) -> bool:
        return global_residual < 0.5


def run_bc(
    pg,
    cluster,
    ctx: RunContext,
    comm_config: CommConfig = CommConfig(),
    balancer="alb",
    scale_factor: float = 1.0,
):
    """Run both Brandes phases and return (bc values, combined stats).

    The dependency scores ``delta`` are the single-source betweenness
    contributions: ``bc(v) = delta(v)`` for ``v != source``.
    """
    from repro.engine.bsp import BSPEngine

    fwd = BSPEngine(
        pg, cluster, BrandesForward(), comm_config=comm_config,
        balancer=balancer, scale_factor=scale_factor, check_memory=False,
    )
    f_res = fwd.run(ctx)
    sigma = f_res.labels
    dist = f_res.extra["dist"]

    import dataclasses

    bctx = dataclasses.replace(
        ctx, payload={"dist": dist, "sigma": sigma}
    )
    bwd = BSPEngine(
        pg, cluster, BrandesBackward(), comm_config=comm_config,
        balancer=balancer, scale_factor=scale_factor, check_memory=False,
    )
    b_res = bwd.run(bctx)

    stats = b_res.stats
    stats.execution_time += f_res.stats.execution_time
    stats.comm_volume_bytes += f_res.stats.comm_volume_bytes
    stats.benchmark = "bc"
    return b_res.labels, stats
