"""Maximal independent set (Luby's algorithm) — extension benchmark.

In the Gunrock/Groute suites.  Luby's rounds: every undecided vertex draws
a priority; a vertex enters the set iff it outranks every undecided
neighbor, and its neighbors then drop out.

Distribution is the interesting part: under a vertex-cut a vertex's edges
span partitions, so no partition can decide a winner alone.  Each round
every partition computes a *local verdict* ("blocked here?") into a
max-reduced accumulator; the master combines verdicts and crowns winners;
the min-reduced status field then carries IN/OUT decisions back to every
proxy.  Priorities are re-drawn per round as a hash of (global ID, round),
so all proxies agree with zero extra traffic.

The set depends on the priorities, so validation checks the two defining
properties — independence and maximality — via :func:`verify_mis`.
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
from repro.idset import unique_ids
from repro.partition.base import LocalPartition

__all__ = ["MIS", "verify_mis", "IN_SET", "OUT_SET", "UNDECIDED"]

_EMPTY = np.empty(0, dtype=np.int64)

#: status codes, min-reduced: decided states dominate undecided
IN_SET = np.uint32(0)
OUT_SET = np.uint32(1)
UNDECIDED = np.uint32(2)


def _priorities(gids: np.ndarray, rnd: int) -> np.ndarray:
    """Deterministic per-(vertex, round) priorities in [0, 1)."""
    g = gids.astype(np.uint64)
    mixed = ((g + np.uint64(rnd) * np.uint64(0x51ED2701))
             * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(11)
    return ((mixed % np.uint64(1 << 24)).astype(np.float64) / (1 << 24))


class MIS(VertexProgram):
    """Luby's maximal independent set (topology-driven, symmetric graph)."""

    name = "mis"
    style = "push"
    driven = "topology"
    needs_symmetric = True
    async_capable = False  # priority lotteries are round-synchronous
    output_field = "status"

    def fields(self):
        return [
            FieldSpec(
                name="status", dtype=np.uint32, reduce_op="min",
                read_at="any", write_at="any", identity=UNDECIDED,
            ),
            FieldSpec(
                name="blocked", dtype=np.uint32, reduce_op="max",
                read_at="none", write_at="any", identity=0,
                reset_after_reduce=True,
            ),
        ]

    def sync_plan(self):
        return [
            SyncStep("reduce", "status"),
            SyncStep("reduce", "blocked"),
            SyncStep("master"),
            SyncStep("broadcast", "status"),
        ]

    def activating_fields(self):
        return set()

    def init_state(self, part: LocalPartition, ctx: RunContext):
        return {
            "status": np.full(part.num_local, UNDECIDED, dtype=np.uint32),
            "blocked": np.zeros(part.num_local, dtype=np.uint32),
            "_round": np.zeros(1, dtype=np.int64),
        }

    def initial_frontier(self, part, ctx, state):
        active = (state["status"] == UNDECIDED) & part.has_out_edges()
        return np.flatnonzero(active).astype(np.int64)

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        status = state["status"]
        blocked = state["blocked"]
        rnd = int(state["_round"][0])
        degrees = self.frontier_degrees(part, frontier)
        counts, nbrs, _ = expand.expand_edges(part.graph, frontier)
        if len(nbrs) == 0:
            return RoundOutput({}, _EMPTY, 0, degrees)
        rep = np.repeat(np.arange(len(frontier), dtype=np.int64), counts)
        srcs = frontier[rep]
        g_src = part.local_to_global[srcs].astype(np.int64)
        g_nbr = part.local_to_global[nbrs].astype(np.int64)
        p_src = _priorities(g_src, rnd)
        p_nbr = _priorities(g_nbr, rnd)
        nbr_status = status[nbrs]
        # neighbor already in the set -> this vertex must drop out
        out_now = unique_ids(srcs[nbr_status == IN_SET], len(status))
        if len(out_now):
            status[out_now] = OUT_SET
        # local lottery verdict against undecided neighbors
        blocking = (
            (nbr_status == UNDECIDED)
            & ((p_nbr > p_src) | ((p_nbr == p_src) & (g_nbr > g_src)))
        ) | (nbr_status == IN_SET)
        lost = np.zeros(len(frontier), dtype=bool)
        np.logical_or.at(lost, rep, blocking)
        blocked_v = frontier[lost]
        blocked[blocked_v] = 1
        updated = {
            "blocked": blocked_v,
            "status": out_now,
        }
        return RoundOutput(
            updated=updated,
            activated=_EMPTY,
            edges_processed=len(nbrs),
            frontier_degrees=degrees,
        )

    def master_compute(self, part, ctx, state) -> MasterOutput:
        state["_round"][0] += 1
        status = state["status"]
        blocked = state["blocked"]
        # a master may hold none of its vertex's edges under a vertex-cut;
        # eligibility is *global* degree, verdicts arrive via the reduce
        if ctx.global_degrees is None:
            raise ValueError("mis needs ctx.global_degrees")
        has_edges = ctx.global_degrees[part.local_to_global] > 0
        masters = np.flatnonzero(
            part.is_master & (status == UNDECIDED) & has_edges
        )
        winners = masters[blocked[masters] == 0]
        blocked[masters] = 0
        if len(winners):
            status[winners] = IN_SET
        undecided_left = int(
            ((status == UNDECIDED) & has_edges & part.is_master).sum()
        )
        return MasterOutput(
            updated={"status": winners},
            activated=_EMPTY,
            residual=float(undecided_left),
        )

    def converged(self, ctx, global_residual: float) -> bool:
        return global_residual < 0.5


def verify_mis(graph, status: np.ndarray) -> bool:
    """Check independence and maximality of a status labeling.

    Isolated vertices carry no constraints (Luby never examines them);
    every vertex with edges must be decided, OUT vertices must have an IN
    neighbor, and no two IN vertices may be adjacent.
    """
    src = graph.edge_sources()
    dst = graph.indices
    in_set = status == IN_SET
    if np.any(in_set[src] & in_set[dst] & (src != dst)):
        return False
    deg = graph.out_degrees()
    if np.any((status == UNDECIDED) & (deg > 0)):
        return False
    has_in_neighbor = np.zeros(graph.num_vertices, dtype=bool)
    np.logical_or.at(has_in_neighbor, src, in_set[dst])
    out = (status == OUT_SET) & (deg > 0)
    return bool(np.all(has_in_neighbor[out]))
