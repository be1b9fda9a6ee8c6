"""k-core decomposition (peeling) on the symmetrized graph.

A vertex is in the k-core if it survives iterated removal of vertices with
degree < k.  Distributed peeling: a dying vertex's proxies (everywhere its
out-edges live) decrement their local neighbors' degree *deltas*; deltas
add-reduce to the master, which applies them, detects new deaths, and
broadcasts the updated degree so remote proxies observe the death
transition and peel in turn.
"""

from __future__ import annotations

import numpy as np

from repro.comm.gluon import FieldSpec
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

__all__ = ["KCore"]

_EMPTY = np.empty(0, dtype=np.int64)


class KCore(VertexProgram):
    """Data-driven push k-core peeling."""

    name = "kcore"
    style = "push"
    driven = "data"
    needs_symmetric = True
    output_field = "deg"

    def fields(self):
        return [
            FieldSpec(
                name="delta", dtype=np.int32, reduce_op="add",
                read_at="none", write_at="dst", identity=0,
                reset_after_reduce=True,
            ),
            FieldSpec(
                name="deg", dtype=np.int32, reduce_op="min",
                read_at="src", write_at="master",
            ),
        ]

    def sync_plan(self):
        return [
            SyncStep("reduce", "delta"),
            SyncStep("master"),
            SyncStep("broadcast", "deg"),
        ]

    def activating_fields(self):
        return {"deg"}

    def init_state(self, part: LocalPartition, ctx: RunContext):
        if ctx.global_degrees is None:
            raise ValueError("kcore needs ctx.global_degrees")
        deg = ctx.global_degrees[part.local_to_global].astype(np.int32)
        return {
            "delta": np.zeros(part.num_local, dtype=np.int32),
            "deg": deg,
            "_processed": np.zeros(part.num_local, dtype=bool),
        }

    def initial_frontier(self, part, ctx, state):
        return np.flatnonzero(state["deg"] < ctx.k).astype(np.int64)

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        processed = state["_processed"]
        fresh = frontier[~processed[frontier]]
        processed[fresh] = True
        degrees = self.frontier_degrees(part, fresh)
        _, dsts, _ = expand.expand_edges(part.graph, fresh)
        touched = scatter_changed(
            "add", state["delta"], dsts, np.ones(len(dsts), dtype=np.int32)
        )
        return RoundOutput(
            updated={"delta": touched},
            activated=_EMPTY,  # deaths are detected at masters
            edges_processed=len(dsts),
            frontier_degrees=degrees,
        )

    def master_compute(self, part, ctx, state) -> MasterOutput:
        masters, sel = part.master_ids()
        delta = state["delta"]
        deg = state["deg"]
        d = delta[sel]
        hit = d > 0
        idx = masters[hit]
        if len(idx) == 0:
            return MasterOutput({}, _EMPTY, 0.0)
        deg[idx] -= d[hit]
        delta[idx] = 0
        return MasterOutput(
            updated={"deg": idx},
            activated=idx,
            residual=0.0,
        )

    def frontier_filter(self, part, ctx, state, candidates):
        deg = state["deg"]
        processed = state["_processed"]
        keep = (deg[candidates] < ctx.k) & ~processed[candidates]
        return candidates[keep]

    @staticmethod
    def in_core(labels: np.ndarray, k: int) -> np.ndarray:
        """Boolean mask of vertices in the k-core, from the output field."""
        return labels >= k
