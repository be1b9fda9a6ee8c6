"""Weakly connected components on the symmetrized graph.

``CC`` is the label-propagation algorithm every framework but Groute uses:
each vertex's label is the minimum global vertex ID reachable from it, and
labels flood along (symmetrized) edges with a ``min`` reduction.

``CCPointerJump`` models Groute's algorithm: between propagation rounds,
each partition short-circuits label chains locally (``comp[v] <-
comp[comp[v]]`` whenever the intermediate vertex is locally present).
Pointer jumping collapses long chains logarithmically — the algorithmic
advantage the paper notes for Groute's cc (Section IV-B).
"""

from __future__ import annotations

import numpy as np

from repro.comm.gluon import FieldSpec
from repro.engine.operator import RoundOutput, RunContext, SyncStep, VertexProgram
from repro.idset import merge_touched
from repro.la import semiring, spmv
from repro.partition.base import LocalPartition

__all__ = ["CC", "CCPointerJump"]

_EMPTY = np.empty(0, dtype=np.int64)


class CC(VertexProgram):
    """Label-propagation connected components (data-driven push)."""

    name = "cc"
    style = "push"
    driven = "data"
    needs_symmetric = True
    output_field = "comp"

    def fields(self):
        return [
            FieldSpec(
                name="comp", dtype=np.uint32, reduce_op="min",
                read_at="src", write_at="dst", identity=np.iinfo(np.uint32).max,
            )
        ]

    def sync_plan(self):
        return [SyncStep("reduce", "comp"), SyncStep("broadcast", "comp")]

    def init_state(self, part: LocalPartition, ctx: RunContext):
        return {"comp": part.local_to_global.astype(np.uint32)}

    def initial_frontier(self, part, ctx, state):
        # every vertex with out-edges starts active
        return np.flatnonzero(part.has_out_edges()).astype(np.int64)

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        comp = state["comp"]
        degrees = self.frontier_degrees(part, frontier)
        # min-first: the edge carries the source's label unchanged
        changed, edges = spmv.spmsv_push(
            part.graph, frontier, comp, comp, semiring.MIN_FIRST
        )
        return RoundOutput(
            updated={"comp": changed},
            activated=changed,
            edges_processed=edges,
            frontier_degrees=degrees,
        )


class CCPointerJump(CC):
    """Groute's pointer-jumping connected components."""

    name = "cc-pj"

    def fields(self):
        # Pointer jumping writes ``comp`` at *arbitrary* local vertices
        # (any vertex whose pointee happens to be locally present), not
        # just at edge destinations like plain label propagation.  The
        # inherited ``write_at="dst"`` contract would let invariant
        # filtering drop jumped writes on proxies without local in-edges
        # from the reduce plan — the value still converges through edge
        # propagation, but masters lag their mirrors and the sync no
        # longer reflects what the operator did (found by repro-fuzz;
        # see tests/cases/ccpj_filtered_jump_write.json).
        return [
            FieldSpec(
                name="comp", dtype=np.uint32, reduce_op="min",
                read_at="src", write_at="any", identity=np.iinfo(np.uint32).max,
            )
        ]

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        out = super().compute(part, ctx, state, frontier)
        comp = state["comp"]
        # local pointer jumping: follow comp one hop where the pointee has a
        # local proxy (vectorized; purely an accelerator, labels stay valid
        # upper bounds of the final minimum).
        ptr = part.to_local(comp)
        valid = ptr >= 0
        shorter = np.flatnonzero(valid & (comp[np.maximum(ptr, 0)] < comp))
        if len(shorter):
            comp[shorter] = comp[ptr[shorter]]
            n = part.num_local
            merged = merge_touched([out.activated, shorter], n)
            updated = merge_touched([out.updated["comp"], shorter], n)
            return RoundOutput(
                updated={"comp": updated},
                activated=merged,
                edges_processed=out.edges_processed,
                frontier_degrees=out.frontier_degrees,
            )
        return out
