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
"""

from __future__ import annotations

import numpy as np

from repro.comm.gluon import CommConfig, GluonComm
from repro.engine.costmodel import CostModel
from repro.engine.operator import RunContext, VertexProgram
from repro.engine.result import RunResult
from repro.errors import ConfigurationError, ConvergenceError
from repro.hw.cluster import Cluster
from repro.hw.memory import MemoryModel, MemoryProfile, DIRGL_PROFILE
from repro.idset import unique_ids
from repro.loadbalance.base import LoadBalancer, get_balancer
from repro.metrics.stats import RoundRecord, RunStats
from repro.partition.base import PartitionedGraph

__all__ = ["BSPEngine"]


class BSPEngine:
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
        recorder=None,
        fault_plan=None,
        executor: str = "serial",
        tracer=None,
        check=None,
    ):
        """``overlap_comm`` in [0, 1] hides that fraction of each round's
        host-device communication under the computation phase (async
        cudaMemcpy + double buffering) — the paper's other recommended
        improvement ("overlapping communication with computation",
        Section V-C).  ``recorder`` (a :class:`repro.metrics.Recorder`)
        captures per-round telemetry.  ``executor`` selects how the
        per-partition compute phase is dispatched: ``"serial"`` (the
        reference loop) or ``"threads"`` (a shared ``ThreadPoolExecutor``;
        numpy kernels release the GIL).  Threaded results are merged in
        fixed partition order, so runs are bit-identical either way.
        ``tracer`` (a :class:`repro.obs.Tracer`) records per-round
        compute/sync/wait spans; disabled tracers are normalized to
        ``None`` so the hot loops pay one ``is not None`` test.
        ``check`` selects the runtime invariant-checking level (see
        :mod:`repro.check`); ``None`` reads the ambient level."""
        from repro.check.level import resolve_check_level

        if isinstance(balancer, str):
            balancer = get_balancer(balancer)
        if not 0.0 <= overlap_comm <= 1.0:
            raise ConfigurationError("overlap_comm must be within [0, 1]")
        if executor not in ("serial", "threads"):
            raise ConfigurationError(
                f"executor must be 'serial' or 'threads', got {executor!r}"
            )
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self.check_level = resolve_check_level(check)
        self.pg = pg
        self.cluster = cluster
        self.app = app
        self.comm = GluonComm(
            pg, app.fields(), comm_config, tracer=self.tracer,
            check=self.check_level,
        )
        self.cost = CostModel(cluster, balancer, scale_factor)
        self.memory = MemoryModel(memory_profile, scale_factor)
        self.check_memory = check_memory
        self.overlap_comm = float(overlap_comm)
        self.recorder = recorder
        self.fault_plan = fault_plan
        self.executor = executor

    # ------------------------------------------------------------------ #
    def run(self, ctx: RunContext) -> RunResult:
        pg, app, comm, cost = self.pg, self.app, self.comm, self.cost
        P = pg.num_partitions
        tracer = self.tracer
        if tracer is not None:
            for p in range(P):
                tracer.thread_name(p, f"partition {p}")
            tracer.thread_name(P, "engine")

        stats = RunStats(
            benchmark=app.name,
            dataset=pg.global_graph.name,
            policy=pg.policy,
            num_gpus=P,
            replication_factor=pg.replication_factor,
        )

        usage = self.memory.usage(
            self.cluster,
            pg.local_vertex_counts(),
            pg.local_edge_counts(),
            num_label_fields=len(app.fields()),
            weighted=pg.global_graph.has_weights,
            check=self.check_memory,
        )
        stats.memory_max_bytes = usage.max_bytes
        stats.memory_mean_bytes = usage.mean_bytes

        state = [app.init_state(p, ctx) for p in pg.parts]
        views = {
            f: [state[p][f] for p in range(P)] for f in app.field_names()
        }
        frontier = [
            app.initial_frontier(pg.parts[p], ctx, state[p]) for p in range(P)
        ]
        plan = app.sync_plan()
        activating = app.activating_fields()

        # host-aware communication: two-level sync and/or shared-resource
        # queues reroute the network legs through ``route_step``; with
        # both off the flat per-message pricing is used untouched
        hier = comm.config.hierarchical
        netmode = hier or cost.contention is not None
        host_of_arr = np.asarray(self.cluster.host_of, dtype=np.int64)

        # invariant checking: two precomputed booleans keep the per-round
        # cost at OFF to exactly these falsy tests
        check_cheap = bool(self.check_level)
        check_full = self.check_level >= 2  # CheckLevel.FULL
        watch = None
        if check_cheap:
            from repro.check import (
                MonotoneWatch,
                check_final_stats,
                check_partition,
                check_post_sync,
                check_round_record,
            )

            check_partition(pg, self.check_level)
            if check_full:
                watch = MonotoneWatch(app.fields(), P)

        rnd = 0

        def _compute(p):
            # Wraps app.compute in a per-(round, partition) span; used by
            # both dispatch paths only when tracing is on.  Reads ``rnd``
            # and ``frontier`` from the enclosing scope at call time.
            ev = tracer.begin(
                "compute",
                "compute",
                tid=p,
                args={"round": rnd, "frontier_size": len(frontier[p])},
            )
            out = app.compute(pg.parts[p], ctx, state[p], frontier[p])
            tracer.end(ev, edges=out.edges_processed)
            return out

        run_ev = None
        if tracer is not None:
            run_ev = tracer.begin(
                "bsp.run",
                "engine",
                tid=P,
                args={"benchmark": app.name, "dataset": pg.global_graph.name,
                      "kernel": app.kernel},
            )

        for rnd in range(ctx.max_rounds):
            active = sum(len(f) for f in frontier)
            if app.driven == "data" and active == 0:
                break
            round_ev = None
            if tracer is not None:
                round_ev = tracer.begin(
                    f"round {rnd}", "round", tid=P, args={"active": active}
                )

            compute_t = np.zeros(P)
            device_t = np.zeros(P)
            candidates: list[list[np.ndarray]] = [[] for _ in range(P)]
            edges = 0

            # ---------------- compute phase ---------------------------- #
            active_ps = [
                p for p in range(P)
                if len(frontier[p]) or app.driven != "data"
            ]
            if self.executor == "threads" and len(active_ps) > 1:
                # Fault checks first, in partition order, so a simulated
                # crash surfaces before any compute — the run is discarded
                # on crash either way, so this is observably identical.
                if self.fault_plan is not None:
                    for p in range(P):
                        self.fault_plan.check(p, rnd)
                from repro.runtime.executors import thread_map

                fn = _compute if tracer is not None else (
                    lambda p: app.compute(pg.parts[p], ctx, state[p], frontier[p])
                )
                outs = thread_map(fn, active_ps)
            else:
                active_set = set(active_ps)
                outs = []
                for p in range(P):
                    if self.fault_plan is not None:
                        self.fault_plan.check(p, rnd)
                    if p in active_set:
                        if tracer is not None:
                            outs.append(_compute(p))
                        else:
                            outs.append(
                                app.compute(pg.parts[p], ctx, state[p], frontier[p])
                            )
            # merge in fixed partition order: dirty bits, candidate sets,
            # and the float accumulations happen in the same sequence as
            # the serial reference loop, so results are bit-identical
            feat_bytes = np.zeros(P)
            feat_hits = 0
            feat_misses = 0
            for p, out in zip(active_ps, outs):
                for fname, ids in out.updated.items():
                    if len(ids):
                        comm.mark_updated(fname, p, ids)
                if len(out.activated):
                    candidates[p].append(out.activated)
                compute_t[p] += cost.compute_time(p, out.frontier_degrees)
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
                feat_t = cost.feature_load_time(feat_bytes)
                compute_t += feat_t
                device_t += feat_t
                feat_h2d_bytes = float(feat_bytes.sum()) * cost.scale_factor
                if tracer is not None:
                    tracer.count("feature.h2d_bytes", feat_h2d_bytes)
            if tracer is not None and (feat_hits or feat_misses):
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
                    m_ev = None
                    if tracer is not None:
                        m_ev = tracer.begin(
                            "master", "sync", tid=P, args={"round": rnd}
                        )
                    for p in range(P):
                        mout = app.master_compute(pg.parts[p], ctx, state[p])
                        for fname, ids in mout.updated.items():
                            if len(ids):
                                comm.mark_updated(fname, p, ids)
                        if len(mout.activated):
                            candidates[p].append(mout.activated)
                        residual = max(residual, mout.residual)
                        touched = sum(
                            len(i) for i in mout.updated.values()
                        )
                        compute_t[p] += cost.master_time(p, touched)
                    if tracer is not None:
                        tracer.end(m_ev)
                    continue

                field = step.field
                labels = views[field]
                s_ev = None
                if tracer is not None:
                    s_ev = tracer.begin(
                        f"sync:{step.kind}:{field}",
                        "sync",
                        tid=P,
                        args={"round": rnd},
                    )
                # Extract every partition's messages first, then price the
                # whole step in one vectorized pass.  Safe to reorder
                # against the applies: extraction send sets (mirrors for
                # reduce, masters for broadcast) are disjoint from apply
                # target sets, so results are bit-identical to the
                # extract/apply-per-partition interleaving.
                msgs = []
                for p in range(P):
                    if step.kind == "reduce":
                        msgs += comm.make_reduce_messages(field, p, labels)
                    else:
                        msgs += comm.make_broadcast_messages(field, p, labels)
                if not msgs:
                    if tracer is not None:
                        tracer.end(s_ev, messages=0)
                    continue
                # Scalar-reference mode prices per message, like the
                # pre-batching code; per-message Python otherwise survives
                # only in the reduction-apply below, which must combine
                # message-by-message.
                if comm.use_scalar_extraction:
                    pr = cost.price_batch_scalar(msgs)
                else:
                    pr = cost.price_batch(msgs)
                np.add.at(send_t, pr.src, pr.extraction + pr.d2h)
                np.add.at(recv_t, pr.dst, pr.h2d)
                if netmode:
                    # a BSP sync step is single-field single-phase, so
                    # aggregates key on (src host, dst host) alone
                    net = cost.route_step(pr, hierarchical=hier)
                    np.add.at(inter_m, (pr.src, pr.dst), net.eff_inter)
                    step_bytes = float(pr.scaled_bytes.sum()) - net.saved_bytes
                    step_wire = len(msgs) - net.messages_saved
                    n_inter_host += net.inter_host_messages
                    n_aggregates += net.aggregates
                    if tracer is not None and net.aggregates:
                        tracer.count(
                            f"comm.hier.{field}.aggregates", net.aggregates
                        )
                        tracer.count(
                            f"comm.hier.{field}.messages_saved",
                            net.messages_saved,
                        )
                else:
                    np.add.at(inter_m, (pr.src, pr.dst), pr.inter)
                    step_bytes = float(pr.scaled_bytes.sum())
                    step_wire = len(msgs)
                    n_inter_host += int(
                        np.count_nonzero(
                            host_of_arr[pr.src] != host_of_arr[pr.dst]
                        )
                    )
                has_msg[pr.src, pr.dst] = True
                comm_bytes += step_bytes
                n_msgs += step_wire
                for msg in msgs:
                    if step.kind == "reduce":
                        ch = comm.apply_reduce(msg, labels)
                    else:
                        ch = comm.apply_broadcast(msg, labels)
                    if len(ch) and field in activating:
                        candidates[msg.header.dst].append(ch)
                if tracer is not None:
                    tracer.end(s_ev, messages=len(msgs), bytes=step_bytes)

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
                hidden_r = np.minimum(
                    self.overlap_comm * recv_t, compute_t - hidden_s
                )
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
            if check_cheap:
                check_round_record(rec)
            if check_full:
                # the sync plan is complete: masters must dominate their
                # plan partners on every broadcast field, and no label may
                # have moved against its reduce direction this round
                for step in plan:
                    if step.kind == "broadcast":
                        check_post_sync(self.comm, step.field, views[step.field])
                watch.observe(views)
            if self.recorder is not None:
                self.recorder.on_round(rec)
            if tracer is not None:
                # Simulated per-phase seconds ride along as an instant so
                # `repro-trace summarize` can rebuild the paper's stacked
                # breakdown; the spans themselves are wall-timed.
                tracer.instant(
                    "round_sim",
                    "round",
                    tid=P,
                    args={
                        "round": rnd,
                        "compute_s": compute_t.tolist(),
                        "wait_s": wait.tolist(),
                        "device_s": device_t.tolist(),
                        "duration_s": duration,
                    },
                )
                tracer.end(
                    round_ev,
                    messages=n_msgs,
                    bytes=comm_bytes,
                    edges=edges,
                )

            # ---------------- next frontier ----------------------------- #
            if app.driven == "data":
                nxt = []
                for p in range(P):
                    if candidates[p]:
                        cand = unique_ids(
                            np.concatenate(candidates[p]),
                            pg.parts[p].num_local,
                        )
                        cand = app.frontier_filter(
                            pg.parts[p], ctx, state[p], cand
                        )
                    else:
                        cand = np.empty(0, dtype=np.int64)
                    nxt.append(cand)
                frontier = nxt
            else:
                # topology-driven: the app derives the active set from the
                # current state each round
                frontier = [
                    app.initial_frontier(pg.parts[p], ctx, state[p])
                    for p in range(P)
                ]
                if app.converged(ctx, residual):
                    break
        else:
            if app.driven == "data":
                raise ConvergenceError(
                    f"{app.name} did not converge in {ctx.max_rounds} rounds"
                )

        stats.local_rounds_min = stats.rounds
        stats.local_rounds_max = stats.rounds
        stats.finalize_breakdown()
        if check_cheap:
            check_final_stats(stats)
        if tracer is not None:
            tracer.instant(
                "run_summary",
                "run",
                tid=P,
                args={
                    "execution_time": stats.execution_time,
                    "max_compute": stats.max_compute,
                    "min_wait": stats.min_wait,
                    "device_comm": stats.device_comm,
                    "rounds": stats.rounds,
                    "num_messages": stats.num_messages,
                    "inter_host_messages": stats.inter_host_messages,
                    "comm_volume_bytes": stats.comm_volume_bytes,
                },
            )
            if cost.contention is not None:
                # per-resource busy/queue spans for `repro-trace summarize`
                for key, rst in sorted(cost.contention.stats.items()):
                    base = f"contention.{key[0]}.{key[1]}"
                    tracer.count(f"{base}.busy_s", rst.busy_s)
                    tracer.count(f"{base}.queue_s", rst.queue_s)
                    tracer.count(f"{base}.messages", rst.messages)
            tracer.end(run_ev, rounds=stats.rounds)
        labels = pg.gather_master_labels(
            [state[p][app.output_field] for p in range(P)]
        )
        extra = {
            f: pg.gather_master_labels([state[p][f] for p in range(P)])
            for f in app.extra_outputs
        }
        return RunResult(labels=labels, stats=stats, extra=extra)
