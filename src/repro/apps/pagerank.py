"""PageRank, in the two styles the study contrasts.

``PageRankPull`` is the pull-style topology-driven implementation D-IrGL
(and Lux) run: every round, every vertex recomputes its rank from its
in-neighbors' scaled ranks.  Pricing a round therefore depends on the **in**
degree distribution — on web crawls whose maximum in-degree is in the
millions this is the workload where TWC's one-block-per-vertex limit bites
and ALB wins (Section V-B2).

``PageRankPush`` is the residual push variant (Gluon-async style), included
for the ablation benches: active vertices push their accumulated residual
along out-edges, giving data-driven behavior with bounded in-degree work.

Both compute the *unnormalized* PageRank fixpoint
``rank(v) = (1 - d) + d * sum(rank(u) / outdeg(u))``; divide by the sum to
compare against normalized references.
"""

from __future__ import annotations

import numpy as np

from repro.comm.gluon import FieldSpec
from repro.idset import as_selector
from repro.la import semiring, spmv
from repro.engine.operator import (
    MasterOutput,
    RoundOutput,
    RunContext,
    SyncStep,
    VertexProgram,
)
from repro.partition.base import LocalPartition

__all__ = ["PageRankPull", "PageRankPush"]

_EMPTY = np.empty(0, dtype=np.int64)


def _global_outdeg(part: LocalPartition, ctx: RunContext) -> np.ndarray:
    if ctx.global_out_degrees is None:
        raise ValueError("pagerank needs ctx.global_out_degrees")
    return ctx.global_out_degrees[part.local_to_global].astype(np.float64)


class PageRankPull(VertexProgram):
    """Topology-driven, residual-based pull PageRank (the paper's pr).

    Every round, every vertex with local in-edges recomputes its *partial*
    contribution sum from its in-neighbors' scaled ranks, and ships only the
    **delta** versus what it last reported.  The master keeps a running
    total of deltas, so contributions commute — which makes the algorithm
    correct under bulk-asynchronous execution (stale or reordered deltas
    merely delay convergence, matching Gluon-Async's residual formulation).
    """

    name = "pr"
    style = "pull"
    driven = "topology"
    static_frontier = True  # every vertex with local in-edges, cached
    output_field = "_rank"
    async_capable = True

    def fields(self):
        return [
            FieldSpec(
                name="contrib", dtype=np.float64, reduce_op="add",
                read_at="none", write_at="dst", identity=0.0,
                reset_after_reduce=True,
            ),
            FieldSpec(
                name="scaled_rank", dtype=np.float32, reduce_op="add",
                read_at="src", write_at="master",
            ),
        ]

    def sync_plan(self):
        return [
            SyncStep("reduce", "contrib"),
            SyncStep("master"),
            SyncStep("broadcast", "scaled_rank"),
        ]

    def activating_fields(self):
        return set()  # topology-driven: frontier is not activation-based

    def init_state(self, part: LocalPartition, ctx: RunContext):
        outdeg = _global_outdeg(part, ctx)
        base = 1.0 - ctx.damping
        scaled = np.where(outdeg > 0, base / np.maximum(outdeg, 1.0), 0.0)
        return {
            "contrib": np.zeros(part.num_local, dtype=np.float64),
            "scaled_rank": scaled.astype(np.float32),
            "_rank": np.full(part.num_local, base, dtype=np.float64),
            "_bcast_rank": np.full(part.num_local, base, dtype=np.float64),
            "_last_partial": np.zeros(part.num_local, dtype=np.float64),
            "_outdeg": outdeg,
        }

    def _topo(self, part, state, frontier=None):
        """``(frontier, rows, degrees, plan)``: every vertex with local
        in-edges recomputes each round, so the set, the index it equals,
        its pricing degrees and its pull plan are one memo in ``state``,
        keyed on the frontier *object* the engine hands back."""
        memo = state.get("_topo")
        if memo is None or (frontier is not None and memo[0] is not frontier):
            if frontier is None:
                frontier = np.flatnonzero(part.has_in_edges()).astype(np.int64)
            memo = state["_topo"] = (
                frontier,
                as_selector(frontier),
                self.frontier_degrees(part, frontier),
                # every frontier vertex has an in-edge: no empty row
                spmv.PullPlan.build(part.graph, frontier),
            )
        return memo

    def initial_frontier(self, part, ctx, state):
        return self._topo(part, state)[0]

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        contrib = state["contrib"]
        last = state["_last_partial"]
        _, rows, degrees, plan = self._topo(part, state, frontier)
        # plus-times SpMV over the pull plan
        partial = spmv.spmv_pull(plan, state["scaled_rank"], semiring.PLUS_TIMES)
        delta = partial - last[rows]
        # residual thresholding, *relative* to the partial's magnitude:
        # deltas too small to matter stay local and keep accumulating.
        # Relative (not absolute) thresholds are what quench the echo of
        # ever-tinier deltas around high-rank hubs under async execution —
        # and they are what makes UO's update tracking pay off for pr.
        thr = ctx.tolerance * 0.1 * np.maximum(1.0, np.abs(partial))
        moved = np.abs(delta) > thr
        idx = frontier[moved]
        contrib[idx] += delta[moved]
        last[idx] = partial[moved]
        return RoundOutput(
            updated={"contrib": idx},
            activated=_EMPTY,
            edges_processed=len(plan.in_nbrs),
            frontier_degrees=degrees,
        )

    def master_compute(self, part, ctx, state) -> MasterOutput:
        masters, sel = part.master_ids()
        rank = state["_rank"]
        outdeg = state["_outdeg"]
        total = state["contrib"][sel]  # running sum of deltas: never reset here
        new_rank = (1.0 - ctx.damping) + ctx.damping * total
        residual = float(np.abs(new_rank - rank[sel]).max(initial=0.0))
        rank[sel] = new_rank
        # broadcast only ranks that drifted appreciably from the value the
        # mirrors last saw (bounded staleness; this sparsity is what UO's
        # update tracking converts into volume savings)
        bcast = state["_bcast_rank"]
        drift = np.abs(new_rank - bcast[sel])
        changed_mask = drift > ctx.tolerance * 0.2 * np.maximum(
            1.0, np.abs(new_rank)
        )
        changed = masters[changed_mask]
        if len(changed) == 0:
            return MasterOutput({}, _EMPTY, residual)
        bcast[changed] = rank[changed]
        new_scaled = np.where(
            outdeg[changed] > 0,
            rank[changed] / np.maximum(outdeg[changed], 1.0),
            0.0,
        )
        state["scaled_rank"][changed] = new_scaled.astype(np.float32)
        return MasterOutput(
            updated={"scaled_rank": changed},
            activated=_EMPTY,
            residual=residual,
        )

    def converged(self, ctx, global_residual: float) -> bool:
        return global_residual < ctx.tolerance


class PageRankPush(VertexProgram):
    """Residual push PageRank (data-driven; ablation variant).

    ``push_val`` is the *cumulative* per-out-edge mass a vertex has released
    over its whole history — monotone non-decreasing, never reset.  Each
    proxy tracks how much of that budget it has already pushed along its
    local out-edges (``_pushed``) and pushes only the delta.  Cumulative
    semantics (rather than set-then-quench per firing) are what make the
    app safe under bulk-asynchronous execution: when several master
    broadcasts batch into one mirror drain, the latest value carries the
    merged firings and the delta against the baseline loses nothing,
    whereas a per-firing value interleaved with a quench-to-zero would
    silently drop pushes (the premature-quiescence bug the fuzz harness
    caught on path/disconnected graphs under BASP).
    """

    name = "pr-push"
    style = "push"
    driven = "data"
    output_field = "_rank"
    async_capable = True

    def fields(self):
        return [
            FieldSpec(
                name="resid_acc", dtype=np.float32, reduce_op="add",
                read_at="none", write_at="dst", identity=0.0,
                reset_after_reduce=True,
            ),
            # max-reduce declares the monotone direction: broadcast merges
            # (and the FULL-level invariant checkers) rely on the canonical
            # value only ever growing.
            FieldSpec(
                name="push_val", dtype=np.float64, reduce_op="max",
                read_at="src", write_at="master",
            ),
        ]

    def sync_plan(self):
        return [
            SyncStep("reduce", "resid_acc"),
            SyncStep("master"),
            SyncStep("broadcast", "push_val"),
        ]

    def activating_fields(self):
        return {"push_val"}

    def init_state(self, part: LocalPartition, ctx: RunContext):
        outdeg = _global_outdeg(part, ctx)
        base = 1.0 - ctx.damping
        push0 = np.where(
            outdeg > 0, ctx.damping * base / np.maximum(outdeg, 1.0), 0.0
        )
        return {
            "resid_acc": np.zeros(part.num_local, dtype=np.float32),
            "push_val": push0.astype(np.float64),
            "_pushed": np.zeros(part.num_local, dtype=np.float64),
            "_rank": np.full(part.num_local, base, dtype=np.float64),
            "_resid": np.zeros(part.num_local, dtype=np.float64),
            "_outdeg": outdeg,
        }

    def initial_frontier(self, part, ctx, state):
        active = (
            state["push_val"] > state["_pushed"]
        ) & part.has_out_edges()
        return np.flatnonzero(active).astype(np.int64)

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        push_val = state["push_val"]
        pushed = state["_pushed"]
        acc = state["resid_acc"]
        degrees = self.frontier_degrees(part, frontier)
        # push only the unreleased slice of the cumulative budget, then
        # advance the baseline so re-activation is a no-op until the
        # master's next firing grows push_val again.  Plus-times with
        # the implicit unit weight; consecutive blocks replay np.add.at's
        # sequential edge order, so the float accumulation does not
        # depend on the block budget.
        touched, edges = spmv.spmsv_push(
            part.graph, frontier, push_val - pushed, acc,
            semiring.PLUS_TIMES,
        )
        pushed[frontier] = push_val[frontier]
        return RoundOutput(
            updated={"resid_acc": touched},
            activated=_EMPTY,
            edges_processed=edges,
            frontier_degrees=degrees,
        )

    def master_compute(self, part, ctx, state) -> MasterOutput:
        masters, sel = part.master_ids()
        if len(masters) == 0:
            return MasterOutput({}, _EMPTY, 0.0)
        acc = state["resid_acc"]
        resid = state["_resid"]
        rank = state["_rank"]
        outdeg = state["_outdeg"]
        pv = state["push_val"]

        resid[sel] += acc[sel].astype(np.float64)
        acc[sel] = 0.0
        r = resid[sel]  # a view when sel is a slice: read before the reset
        residual = float(r.max(initial=0.0))
        fire = r > ctx.tolerance
        idx = masters[fire]
        changed = _EMPTY
        if len(idx):
            fired = r[fire]
            rank[idx] += fired
            resid[idx] = 0.0
            inc = np.where(
                outdeg[idx] > 0,
                ctx.damping * fired / np.maximum(outdeg[idx], 1.0),
                0.0,
            )
            pv[idx] += inc
            changed = idx[inc > 0]
        return MasterOutput(
            updated={"push_val": changed},
            activated=changed,
            residual=residual,
        )

    def frontier_filter(self, part, ctx, state, candidates):
        pv = state["push_val"]
        pushed = state["_pushed"]
        keep = (
            pv[candidates] > pushed[candidates]
        ) & part.has_out_edges()[candidates]
        return candidates[keep]
