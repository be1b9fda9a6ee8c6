"""Bulk-synchronous parallel (BSP) execution engine (Section III-B).

Each round has a computation phase (every partition applies the operator to
its local frontier) followed by a communication phase (the app's sync plan:
reduce / master-compute / broadcast), closed by a global barrier.  The
engine executes the *real* algorithm — labels move through the actual Gluon
substrate and the final answer is gathered from master proxies — while a
per-partition clock prices every phase on the simulated cluster:

* compute time: load-balancer makespan model on the frontier's degrees;
* device communication: UO extraction scans + PCIe D2H/H2D legs, serialized
  on each device's link;
* wait time: gap between a host finishing its sends and the last straggler
  message arriving — the quantity whose minimum the paper plots;
* the barrier: the slowest partition's ready time plus a termination
  allreduce.

The stages live in :mod:`repro.engine.core`; this module is the BSP
*policy*: the round loop, one compute pass over the partitions, whole-step
pricing and delivery, overlap hiding, and the barrier.
"""

from __future__ import annotations

import numpy as np

from repro.check import check_round_record
from repro.comm.gluon import CommConfig
from repro.engine.core import Engine, RoundCore
from repro.engine.operator import RunContext, VertexProgram
from repro.engine.result import RunResult
from repro.errors import ConvergenceError
from repro.hw.cluster import Cluster
from repro.hw.memory import MemoryProfile, DIRGL_PROFILE
from repro.loadbalance.base import LoadBalancer
from repro.metrics.stats import RoundRecord
from repro.partition.base import PartitionedGraph

__all__ = ["BSPEngine"]


class BSPEngine(Engine):
    """Runs one vertex program bulk-synchronously over a partitioned graph."""

    execution_model = "bsp"

    def __init__(
        self,
        pg: PartitionedGraph,
        cluster: Cluster,
        app: VertexProgram,
        comm_config: CommConfig = CommConfig(),
        balancer: LoadBalancer | str = "alb",
        scale_factor: float = 1.0,
        memory_profile: MemoryProfile = DIRGL_PROFILE,
        check_memory: bool = True,
        overlap_comm: float = 0.0,
        weighted: bool | None = None,
        fault_plan=None,
    ):
        """``overlap_comm`` in [0, 1] hides that fraction of each round's
        host-device communication under the computation phase (async
        cudaMemcpy + double buffering) — the paper's other recommended
        improvement ("overlapping communication with computation",
        Section V-C)."""
        super().__init__(
            pg, cluster, app, comm_config, balancer, scale_factor,
            memory_profile, check_memory, overlap_comm, fault_plan,
            weighted,
        )

    # ------------------------------------------------------------------ #
    def run(self, ctx: RunContext) -> RunResult:
        core = RoundCore(self, ctx)
        app, cost, tracer, stats = core.app, core.cost, core.tracer, core.stats
        P, plan, hier = core.P, core.plan, core.hier
        data_driven = not core.topology
        frontier = core.frontier

        for rnd in range(ctx.max_rounds):
            active = sum(len(f) for f in frontier)
            if data_driven and active == 0:
                break
            round_ev = core.begin(f"round {rnd}", "round", P, active=active)

            compute_t = np.zeros(P)
            device_t = np.zeros(P)
            candidates: list[list[np.ndarray]] = [[] for _ in range(P)]

            # ---------------- compute phase ---------------------------- #
            # Fault checks first, in partition order, so a simulated crash
            # surfaces before any compute — the run is discarded on crash
            # either way, so this is observably identical to interleaving.
            if self.fault_plan is not None:
                for p in range(P):
                    self.fault_plan.check(p, rnd)
            edges = 0
            feat_bytes = np.zeros(P)
            feat_hits = 0
            feat_misses = 0
            for p in range(P):
                # a topology-driven app computes even on an empty frontier
                if data_driven and not len(frontier[p]):
                    continue
                out = core.compute(p, frontier[p], candidates, round=rnd)
                compute_t[p] += core.compute_time(p, out)
                edges += out.edges_processed
                feat_bytes[p] += out.feature_bytes
                feat_hits += out.feature_cache_hits
                feat_misses += out.feature_cache_misses

            # feature-gather leg: per-device bulk H2D loads, priced
            # through the router (contention-aware when the cluster has a
            # model).  The load precedes the kernel, so it delays both
            # compute completion and the send phase behind it.
            feat_h2d_bytes = 0.0
            if feat_bytes.any():
                feat_t = cost.router.price_feature_loads(feat_bytes)
                compute_t += feat_t
                device_t += feat_t
                feat_h2d_bytes = float(feat_bytes.sum()) * cost.scale_factor
                tracer.count("feature.h2d_bytes", feat_h2d_bytes)
            if feat_hits or feat_misses:
                tracer.count("cache.hit", feat_hits)
                tracer.count("cache.miss", feat_misses)

            # ---------------- sync plan -------------------------------- #
            inter_m = np.zeros((P, P))  # (src,dst) -> summed inter legs
            has_msg = np.zeros((P, P), dtype=bool)
            send_t = np.zeros(P)  # extraction + D2H, serialized per device
            recv_t = np.zeros(P)  # H2D, serialized per device
            n_msgs = 0
            n_inter_host = 0
            n_aggregates = 0
            comm_bytes = 0.0
            residual = 0.0

            for step in plan:
                if step.kind == "master":
                    m_ev = core.begin("master", "sync", P, round=rnd)
                    # the master kernel launches on every partition, so
                    # master_time is charged even when nothing was touched
                    for p in range(P):
                        touched, res = core.master(p, candidates)
                        residual = max(residual, res)
                        compute_t[p] += cost.master_time(p, touched)
                    tracer.end(m_ev)
                    continue

                field = step.field
                s_ev = core.begin(f"sync:{step.kind}:{field}", "sync", P, round=rnd)
                # The whole step is one batch: one extraction over every
                # partition, one pricing pass, one apply.  Extraction send
                # sets (mirrors for reduce, masters for broadcast) are
                # disjoint from apply target sets, so results are
                # bit-identical to interleaving them per partition.
                batch = core.extract(step, range(P))
                if not len(batch):
                    tracer.end(s_ev, messages=0)
                    continue
                pr = core.price(batch)
                np.add.at(send_t, pr.src, pr.extraction + pr.d2h)
                np.add.at(recv_t, pr.dst, pr.h2d)
                # a BSP sync step is single-field single-phase, so
                # aggregates key on (src host, dst host) alone
                net = cost.router.route_step(pr, hierarchical=hier)
                np.add.at(inter_m, (pr.src, pr.dst), net.eff_inter)
                n_inter_host += net.inter_host_messages
                n_aggregates += net.aggregates
                if net.aggregates:
                    base = f"comm.hier.{field}"
                    tracer.count(f"{base}.aggregates", net.aggregates)
                    tracer.count(f"{base}.messages_saved", net.messages_saved)
                has_msg[pr.src, pr.dst] = True
                comm_bytes += net.wire_bytes
                n_msgs += net.wire_messages
                core.apply(batch, candidates)
                tracer.end(s_ev, messages=len(batch), bytes=net.wire_bytes)

            # ---------------- round timing ------------------------------ #
            # with overlap, part of the host-device traffic hides under the
            # compute phase.  Send and recv share ONE hiding budget (the
            # compute time available): PCIe is full duplex, but both
            # directions hide under the same kernels, so the total hidden
            # traffic per device is bounded by compute_t, not 2x compute_t.
            # Send-side D2H hides first (it is what double buffering
            # overlaps in practice); recv-side H2D takes the remainder.
            if self.overlap_comm > 0.0:
                hidden_s = np.minimum(self.overlap_comm * send_t, compute_t)
                hidden_r = np.minimum(self.overlap_comm * recv_t, compute_t - hidden_s)
                eff_send = send_t - hidden_s
                eff_recv = recv_t - hidden_r
            else:
                eff_send, eff_recv = send_t, recv_t
            depart = compute_t + eff_send
            # arrive[q] = max(depart[q], max over senders p of
            # depart[p] + inter_m[p, q]) — pairs without messages excluded
            contrib = np.where(has_msg, depart[:, None] + inter_m, -np.inf)
            arrive = np.maximum(depart, contrib.max(axis=0))
            ready = np.maximum(depart, arrive) + eff_recv
            duration = float(ready.max()) + cost.allreduce_time()
            wait = np.maximum(arrive - depart, 0.0)
            device_t += eff_send + eff_recv

            rec = RoundRecord(
                round_index=rnd,
                active_vertices=active,
                edges_processed=edges,
                messages=n_msgs,
                comm_bytes=comm_bytes,
                compute_times=compute_t,
                wait_times=wait,
                device_comm_times=device_t,
                duration=duration,
                inter_host_messages=n_inter_host,
                hier_aggregates=n_aggregates,
                feature_h2d_bytes=feat_h2d_bytes,
                feature_cache_hits=feat_hits,
                feature_cache_misses=feat_misses,
            )
            stats.accumulate_round(rec)
            if core.check_cheap:
                check_round_record(rec)
            if core.check_full:
                # the sync plan is complete; also no label may have moved
                # against its reduce direction this round
                core.check_post_sync()
                core.watch.observe(core.views)
            if tracer.enabled:
                core.round_sim(
                    compute_t, wait, device_t, round=rnd, duration_s=duration
                )
            tracer.end(round_ev, messages=n_msgs, bytes=comm_bytes, edges=edges)

            # ---------------- next frontier ----------------------------- #
            frontier = [core.next_frontier(p, candidates[p]) for p in range(P)]
            if not data_driven and app.converged(ctx, residual):
                break
        else:
            # a topology-driven app that exhausts max_rounds returns its
            # current iterate; only a data-driven worklist must drain
            if data_driven:
                raise ConvergenceError(
                    f"{app.name} did not converge in {ctx.max_rounds} rounds"
                )

        stats.local_rounds_min = stats.local_rounds_max = stats.rounds
        return core.finish()
