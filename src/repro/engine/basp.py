"""Bulk-asynchronous parallel (BASP) execution engine (Section III-B,
Gluon-Async).

There is no global round barrier.  Each partition runs *local rounds*:
drain whatever messages have arrived by its local clock, apply the operator
to its frontier, run its master phase, and send messages — then continue
immediately.  A partition with nothing to do blocks until its next message
arrives (that gap is its wait time).

The engine is a deterministic discrete-event simulation ordered by local
clocks: the runnable partition with the smallest local time executes next.
Because partitions compute with whatever values have *arrived* (possibly
stale), redundant work appears organically — extra local rounds and extra
work items versus BSP, exactly the effect behind the paper's bfs/uk14
anecdote where Async loses (Section V-B4).  Monotone apps still converge to
the identical fixpoint, which the integration tests assert.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.comm.gluon import CommConfig, GluonComm
from repro.comm.hier import group_cross_host
from repro.engine.costmodel import CostModel
from repro.engine.operator import RunContext, VertexProgram
from repro.engine.result import RunResult
from repro.errors import ConfigurationError, ConvergenceError
from repro.hw.cluster import Cluster
from repro.hw.memory import MemoryModel, MemoryProfile, DIRGL_PROFILE
from repro.idset import unique_ids
from repro.loadbalance.base import LoadBalancer, get_balancer
from repro.metrics.stats import RunStats
from repro.partition.base import PartitionedGraph

__all__ = ["BASPEngine"]

_EMPTY = np.empty(0, dtype=np.int64)


class BASPEngine:
    """Runs one vertex program bulk-asynchronously."""

    execution_model = "basp"

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
        throttle_wait: float = 0.0,
        poll_interval: float = 1e-3,
        overlap_comm: float = 0.0,
        fault_plan=None,
        executor: str = "serial",
        tracer=None,
        check=None,
    ):
        """``throttle_wait`` implements the paper's proposed *dynamic
        throttling* of asynchronous execution (Section VII): before each
        local round a partition lingers this many (simulated) seconds so
        more partner messages arrive, trading blocked time for less
        redundant computation from stale reads.  ``0`` (the default) is
        unthrottled BASP as shipped in D-IrGL.

        ``executor="threads"`` dispatches *provably independent* local
        rounds concurrently: when every runnable partition at the minimal
        local time has no drainable message, their rounds read and write
        disjoint state (messages they emit arrive strictly later than the
        shared clock because ``poll_interval > 0``), so running them on a
        thread pool and applying the shared effects (sequence numbers,
        inbox pushes, statistics) in partition order replays the serial
        event order exactly — runs stay bit-identical to serial.

        ``overlap_comm`` in [0, 1] mirrors BSP's async-copy hiding for
        local rounds: within one local round, the drained H2D legs and the
        outgoing extraction+D2H legs share a single hiding budget equal to
        that round's compute time (recv hides first — it precedes the
        sends on the local clock — then sends split the remainder).  The
        default 0 leaves the event schedule bit-identical to before."""
        if not app.async_capable:
            raise ConfigurationError(
                f"{app.name} cannot run bulk-asynchronously"
            )
        from repro.check.level import resolve_check_level

        if isinstance(balancer, str):
            balancer = get_balancer(balancer)
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
        if throttle_wait < 0:
            raise ConfigurationError("throttle_wait must be non-negative")
        self.throttle_wait = float(throttle_wait)
        #: Gluon-Async polls for messages once per local round; an idle
        #: partition that blocks on a receive therefore batches everything
        #: arriving within roughly one round's pacing into its next round,
        #: rather than waking per message.
        self.poll_interval = float(poll_interval)
        if not 0.0 <= overlap_comm <= 1.0:
            raise ConfigurationError("overlap_comm must be within [0, 1]")
        self.overlap_comm = float(overlap_comm)
        self.fault_plan = fault_plan
        if executor not in ("serial", "threads"):
            raise ConfigurationError(
                f"executor must be 'serial' or 'threads', got {executor!r}"
            )
        self.executor = executor

    # ------------------------------------------------------------------ #
    def _network_arrivals(self, departs, pr, out_msgs):
        """Schedule one send batch's network legs on the absolute clock.

        Used only when contention and/or hierarchical sync is on.  Returns
        ``(arrivals, wire messages, inter-host wire messages, aggregates,
        wire bytes)``.  Resource queues persist across the whole run —
        BASP's event clock is absolute, so a NIC busy with an earlier
        flush delays this one.  Hierarchical aggregates group by
        (src host, dst host, field, phase): one async flush can mix
        fields and phases, unlike a BSP sync step.
        """
        router = self.cost.router
        c = router.cluster
        model = router.contention
        hier = self.comm.config.hierarchical
        host_of = np.asarray(c.host_of, dtype=np.int64)
        hsrc = host_of[pr.src]
        hdst = host_of[pr.dst]
        loop = pr.src == pr.dst
        cross = (hsrc != hdst) & ~loop
        n = len(out_msgs)
        arrivals = np.empty(n)
        entities: list[tuple] = []
        aggregates = []
        agg_members = 0
        if hier:
            keys = [(m.header.field, m.header.phase) for m in out_msgs]
            aggregates = group_cross_host(
                hsrc, hdst, cross, pr.scaled_bytes, router.volume_scale, keys
            )
            for agg in aggregates:
                agg_members += len(agg.members)
                service = c.network.time(agg.wire_bytes)
                key = ("nic", agg.src_host) if model is not None else None
                entities.append(
                    (key, float(departs[agg.members].max()), service,
                     agg.members)
                )
        for i in np.flatnonzero(~loop):
            i = int(i)
            if hier and cross[i]:
                continue  # carried by its aggregate
            if cross[i]:
                key = ("nic", int(hsrc[i])) if model is not None else None
            elif model is not None and not c.gpudirect:
                key = ("staging", int(hsrc[i]))
            else:
                key = None  # GPUDirect P2P does not queue host-side
            entities.append(
                (key, float(departs[i]), float(pr.inter[i]),
                 np.array([i], dtype=np.int64))
            )
        entities.sort(key=lambda e: (e[1], int(e[3][0])))
        for key, ready, service, members in entities:
            start = (
                model.acquire(key, ready, service) if key is not None else ready
            )
            arrivals[members] = start + service
        if loop.any():
            arrivals[loop] = departs[loop]
        n_aggs = len(aggregates)
        wire_n = n - (agg_members - n_aggs)
        inter_n = n_aggs if hier else int(np.count_nonzero(cross))
        wire_bytes = float(pr.scaled_bytes.sum()) - float(
            sum(a.saved_bytes for a in aggregates)
        )
        return arrivals, wire_n, inter_n, n_aggs, wire_bytes

    # ------------------------------------------------------------------ #
    def run(self, ctx: RunContext) -> RunResult:
        pg, app, comm, cost = self.pg, self.app, self.comm, self.cost
        P = pg.num_partitions
        tracer = self.tracer
        run_ev = None
        if tracer is not None:
            for p in range(P):
                tracer.thread_name(p, f"partition {p}")
            tracer.thread_name(P, "engine")
            run_ev = tracer.begin(
                "basp.run",
                "engine",
                tid=P,
                args={"benchmark": app.name, "dataset": pg.global_graph.name,
                      "kernel": app.kernel},
            )

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
        views = {f: [state[p][f] for p in range(P)] for f in app.field_names()}
        pending: list[list[np.ndarray]] = [
            [app.initial_frontier(pg.parts[p], ctx, state[p])] for p in range(P)
        ]
        plan = app.sync_plan()
        activating = app.activating_fields()
        topology = app.driven == "topology"

        # host-aware communication: hierarchical aggregation and/or shared
        # resource queues reroute arrivals through ``_network_arrivals``
        hier = comm.config.hierarchical
        netmode = hier or cost.contention is not None
        host_of_arr = np.asarray(self.cluster.host_of, dtype=np.int64)

        check_cheap = bool(self.check_level)
        check_full = self.check_level >= 2  # CheckLevel.FULL
        watch = None
        if check_cheap:
            from repro.check import (
                MonotoneWatch,
                check_final_stats,
                check_partition,
                check_post_sync,
            )

            check_partition(pg, self.check_level)
            if check_full:
                watch = MonotoneWatch(app.fields(), P)

        local_time = np.zeros(P)
        compute_t = np.zeros(P)
        wait_t = np.zeros(P)
        device_t = np.zeros(P)
        local_rounds = np.zeros(P, dtype=np.int64)
        residual = np.full(P, np.inf)  # last master residual per partition

        # inbox[q] = heap of (arrival, seq, message)
        inbox: list[list] = [[] for _ in range(P)]
        seq = 0
        in_flight = 0
        max_local_rounds = ctx.max_rounds * max(P, 1) * 4

        def runnable(p: int) -> bool:
            if any(len(a) for a in pending[p]):
                return True
            if inbox[p] and inbox[p][0][0] <= local_time[p]:
                return True
            if topology and not _topo_done(p):
                return True
            return False

        def _topo_done(p: int) -> bool:
            return residual[p] < ctx.tolerance

        # Threaded dispatch applies only when the shared clock can prove
        # independence: no fault injection (checks must interleave with
        # events), no throttle (it slides the drain horizon past peers'
        # arrivals), and a positive poll interval (it guarantees messages
        # emitted at the batch time arrive strictly later).
        # (contended/hierarchical runs and overlap hiding stay serial:
        # resource queues and the hiding budget are shared state that must
        # be acquired in global event order)
        use_threads = (
            self.executor == "threads"
            and self.fault_plan is None
            and self.throttle_wait == 0.0
            and self.poll_interval > 0.0
            and not netmode
            and self.overlap_comm == 0.0
        )

        def independent_round(p: int):
            """One local round for a partition whose inbox has nothing at
            or before its local time.  Reads and writes only partition-
            local state (``state[p]``, ``pending[p]``, per-partition dirty
            bits and clocks); shared effects — sequence numbers, inbox
            pushes, global statistics — are returned for the caller to
            apply in partition order, replaying the serial event order."""
            t = float(local_time[p])
            part = pg.parts[p]
            r_ev = None
            if tracer is not None:
                r_ev = tracer.begin(
                    "local_round",
                    "round",
                    tid=p,
                    args={"local_round": int(local_rounds[p])},
                )
            if topology:
                frontier = app.initial_frontier(part, ctx, state[p])
                pending[p] = []
            else:
                bufs = [a for a in pending[p] if len(a)]
                pending[p] = []
                if bufs:
                    candv = unique_ids(np.concatenate(bufs), part.num_local)
                    frontier = app.frontier_filter(part, ctx, state[p], candv)
                else:
                    frontier = _EMPTY
            t += self.poll_interval
            did_work = False
            edges = 0
            if len(frontier):
                c_ev = None
                if tracer is not None:
                    c_ev = tracer.begin(
                        "compute",
                        "compute",
                        tid=p,
                        args={"frontier_size": len(frontier)},
                    )
                out = app.compute(part, ctx, state[p], frontier)
                if tracer is not None:
                    tracer.end(c_ev, edges=out.edges_processed)
                for fname, ids in out.updated.items():
                    if len(ids):
                        comm.mark_updated(fname, p, ids)
                if len(out.activated):
                    pending[p].append(out.activated)
                dt = cost.compute_time(p, out.frontier_degrees)
                t += dt
                compute_t[p] += dt
                edges = out.edges_processed
                did_work = True
            out_msgs = []
            for step in plan:
                if step.kind == "master":
                    mout = app.master_compute(part, ctx, state[p])
                    for fname, ids in mout.updated.items():
                        if len(ids):
                            comm.mark_updated(fname, p, ids)
                    if len(mout.activated):
                        pending[p].append(mout.activated)
                    touched = sum(len(i) for i in mout.updated.values())
                    if touched:
                        dt = cost.master_time(p, touched)
                        t += dt
                        compute_t[p] += dt
                        did_work = True
                    residual[p] = mout.residual
                    continue
                labels = views[step.field]
                if (
                    not comm.config.update_only
                    and not comm.pending_sends(step.field, step.kind, p)
                ):
                    continue
                if step.kind == "reduce":
                    out_msgs += comm.make_reduce_messages(step.field, p, labels)
                else:
                    out_msgs += comm.make_broadcast_messages(
                        step.field, p, labels
                    )
            pr = arrivals = None
            if out_msgs:
                if comm.use_scalar_extraction:
                    pr = cost.price_batch_scalar(out_msgs)
                else:
                    pr = cost.price_batch(out_msgs)
                send_cost = pr.extraction + pr.d2h
                departs = t + np.cumsum(send_cost)
                arrivals = departs + pr.inter
                t = float(departs[-1])
                device_t[p] += float(send_cost.sum())
                did_work = True
            had_frontier = bool(len(frontier))
            if topology and not did_work and not had_frontier:
                residual[p] = 0.0
            if tracer is not None:
                tracer.end(r_ev, messages=len(out_msgs), did_work=did_work)
            return t, out_msgs, arrivals, pr, edges, did_work, had_frontier

        while True:
            cand = [p for p in range(P) if runnable(p)]
            if not cand:
                if in_flight == 0:
                    break  # global quiescence
                # everyone idle: jump the earliest receiver to its arrival,
                # plus one poll interval so co-arriving partner messages
                # batch into a single local round
                nxt, q = min(
                    (inbox[p][0][0], p) for p in range(P) if inbox[p]
                )
                nxt += self.poll_interval
                wait_t[q] += max(nxt - local_time[q], 0.0)
                local_time[q] = max(local_time[q], nxt)
                continue

            if use_threads and len(cand) > 1:
                tmin = min(local_time[q] for q in cand)
                group = sorted(q for q in cand if local_time[q] == tmin)
                if len(group) > 1 and all(
                    not inbox[q] or inbox[q][0][0] > tmin for q in group
                ):
                    # Serial execution would run exactly these partitions
                    # back to back (ascending pid), none draining anything:
                    # their rounds are pairwise independent, so run them
                    # concurrently and replay the shared effects in pid
                    # order for a bit-identical schedule.
                    from repro.runtime.executors import thread_map

                    results = thread_map(independent_round, group)
                    for q, (
                        t, out_msgs, arrivals, pr, edges, did_work, had_f
                    ) in zip(group, results):
                        stats.work_items += edges
                        if out_msgs:
                            stats.comm_volume_bytes += float(
                                pr.scaled_bytes.sum()
                            )
                            stats.num_messages += len(out_msgs)
                            stats.inter_host_messages += int(
                                np.count_nonzero(
                                    host_of_arr[pr.src] != host_of_arr[pr.dst]
                                )
                            )
                            for i, msg in enumerate(out_msgs):
                                heapq.heappush(
                                    inbox[msg.header.dst],
                                    (float(arrivals[i]), seq, msg),
                                )
                                seq += 1
                                in_flight += 1
                        if did_work or had_f:
                            local_rounds[q] += 1
                        local_time[q] = t
                        if watch is not None:
                            watch.observe(views, pid=q)
                        if local_rounds.sum() > max_local_rounds:
                            raise ConvergenceError(
                                f"{app.name} (BASP) exceeded "
                                f"{max_local_rounds} local rounds"
                            )
                    continue

            p = min(cand, key=lambda i: (local_time[i], i))
            if self.fault_plan is not None:
                self.fault_plan.check(p, int(local_rounds[p]))
            t = float(local_time[p])
            part = pg.parts[p]
            r_ev = None
            if tracer is not None:
                r_ev = tracer.begin(
                    "local_round",
                    "round",
                    tid=p,
                    args={"local_round": int(local_rounds[p])},
                )

            if self.throttle_wait > 0.0:
                # dynamic async throttle: linger so straggler messages
                # land in this round instead of triggering redundant later
                # rounds (the control knob of the paper's conclusion)
                wait_t[p] += self.throttle_wait
                t += self.throttle_wait

            # -------- drain arrived messages ---------------------------- #
            drained_candidates = []
            round_h2d = 0.0  # drained recv legs, candidate for overlap hiding
            round_compute = 0.0  # this round's hiding budget
            while inbox[p] and inbox[p][0][0] <= t:
                _, _, msg = heapq.heappop(inbox[p])
                in_flight -= 1
                legs = cost.legs(msg)
                t += legs.h2d
                device_t[p] += legs.h2d
                round_h2d += legs.h2d
                labels = views[msg.header.field]
                if msg.header.phase == "reduce":
                    ch = comm.apply_reduce(msg, labels)
                else:
                    ch = comm.apply_broadcast(msg, labels)
                if len(ch) and msg.header.field in activating:
                    drained_candidates.append(ch)

            # -------- frontier ------------------------------------------ #
            if topology:
                frontier = app.initial_frontier(part, ctx, state[p])
                pending[p] = []
            else:
                bufs = [a for a in pending[p] if len(a)] + drained_candidates
                pending[p] = []
                if bufs:
                    candv = unique_ids(np.concatenate(bufs), part.num_local)
                    frontier = app.frontier_filter(part, ctx, state[p], candv)
                else:
                    frontier = _EMPTY

            # Every local round launches the full kernel pipeline (worklist
            # compaction, per-field extraction/apply, bitset maintenance)
            # whether or not much work exists — this pacing is what batches
            # message arrivals into rounds on real hardware and keeps the
            # local-round count within a small multiple of BSP's.
            t += self.poll_interval

            did_work = False
            # -------- compute phase -------------------------------------- #
            if len(frontier):
                c_ev = None
                if tracer is not None:
                    c_ev = tracer.begin(
                        "compute",
                        "compute",
                        tid=p,
                        args={"frontier_size": len(frontier)},
                    )
                out = app.compute(part, ctx, state[p], frontier)
                if tracer is not None:
                    tracer.end(c_ev, edges=out.edges_processed)
                for fname, ids in out.updated.items():
                    if len(ids):
                        comm.mark_updated(fname, p, ids)
                if len(out.activated):
                    pending[p].append(out.activated)
                dt = cost.compute_time(p, out.frontier_degrees)
                t += dt
                compute_t[p] += dt
                round_compute += dt
                stats.work_items += out.edges_processed
                did_work = True

            # -------- sync plan (local) ---------------------------------- #
            out_msgs = []
            for step in plan:
                if step.kind == "master":
                    mout = app.master_compute(part, ctx, state[p])
                    for fname, ids in mout.updated.items():
                        if len(ids):
                            comm.mark_updated(fname, p, ids)
                    if len(mout.activated):
                        pending[p].append(mout.activated)
                    touched = sum(len(i) for i in mout.updated.values())
                    if touched:
                        dt = cost.master_time(p, touched)
                        t += dt
                        compute_t[p] += dt
                        round_compute += dt
                        did_work = True
                    residual[p] = mout.residual
                    continue
                labels = views[step.field]
                if (
                    not comm.config.update_only
                    and not comm.pending_sends(step.field, step.kind, p)
                ):
                    # Async AS: there is no global round clock, so "send
                    # every round" degenerates into message ping-pong that
                    # never quiesces.  A partition therefore sends only
                    # when the field was written since its last send (the
                    # dirty bits are maintained under AS too); each send
                    # still ships the full exchange list in AS's wire
                    # format.
                    continue
                if step.kind == "reduce":
                    out_msgs += comm.make_reduce_messages(step.field, p, labels)
                else:
                    out_msgs += comm.make_broadcast_messages(step.field, p, labels)

            hidden = 0.0
            if self.overlap_comm > 0.0 and round_compute > 0.0:
                # async-copy hiding, one budget per local round: drained
                # H2D first (it preceded the compute on this clock), then
                # sends take the remainder below
                hidden = min(self.overlap_comm * round_h2d, round_compute)
                t -= hidden
                device_t[p] -= hidden

            if out_msgs:
                # price the batch in one vectorized pass; each message still
                # departs after the previous one finished its extraction and
                # D2H leg (the device link is serialized), so arrivals ride
                # on the running prefix sum of those send-side costs.
                if comm.use_scalar_extraction:
                    pr = cost.price_batch_scalar(out_msgs)
                else:
                    pr = cost.price_batch(out_msgs)
                send_cost = pr.extraction + pr.d2h
                if self.overlap_comm > 0.0:
                    total = float(send_cost.sum())
                    hidden_s = min(
                        self.overlap_comm * total, round_compute - hidden
                    )
                    if total > 0.0 and hidden_s > 0.0:
                        send_cost = send_cost * ((total - hidden_s) / total)
                departs = t + np.cumsum(send_cost)
                t = float(departs[-1])
                device_t[p] += float(send_cost.sum())
                if netmode:
                    arrivals, wire_n, inter_n, aggs, wire_bytes = (
                        self._network_arrivals(departs, pr, out_msgs)
                    )
                    stats.hier_aggregates += aggs
                else:
                    arrivals = departs + pr.inter
                    wire_n = len(out_msgs)
                    inter_n = int(
                        np.count_nonzero(
                            host_of_arr[pr.src] != host_of_arr[pr.dst]
                        )
                    )
                    wire_bytes = float(pr.scaled_bytes.sum())
                stats.comm_volume_bytes += wire_bytes
                stats.num_messages += wire_n
                stats.inter_host_messages += inter_n
                for i, msg in enumerate(out_msgs):
                    heapq.heappush(
                        inbox[msg.header.dst], (float(arrivals[i]), seq, msg)
                    )
                    seq += 1
                    in_flight += 1
                did_work = True

            if tracer is not None:
                tracer.end(
                    r_ev,
                    messages=len(out_msgs),
                    drained=len(drained_candidates),
                    did_work=did_work,
                )
            if did_work or len(frontier):
                local_rounds[p] += 1
            local_time[p] = t
            if watch is not None:
                watch.observe(views, pid=p)

            if local_rounds.sum() > max_local_rounds:
                raise ConvergenceError(
                    f"{app.name} (BASP) exceeded {max_local_rounds} local rounds"
                )

            if topology and not did_work and not len(frontier):
                # quiescent topology partition: mark converged this pass
                residual[p] = 0.0

        # ------------------------------------------------------------------ #
        if check_full:
            # quiescence: no message in flight and every dirty bit drained,
            # so the mid-flight exemption ends — masters must dominate (and
            # write_at="master" fields agree exactly) on every synced field
            for step in plan:
                if step.kind == "broadcast":
                    check_post_sync(comm, step.field, views[step.field])
        stats.execution_time = float(local_time.max())
        stats.per_partition_compute = compute_t
        stats.per_partition_wait = wait_t
        stats.per_partition_device_comm = device_t
        stats.rounds = int(local_rounds.max())
        stats.local_rounds_min = int(local_rounds.min())
        stats.local_rounds_max = int(local_rounds.max())
        stats.max_compute = float(compute_t.max()) if P else 0.0
        stats.min_wait = float(wait_t.min()) if P else 0.0
        stats.device_comm = max(
            stats.execution_time - stats.max_compute - stats.min_wait, 0.0
        )
        if check_cheap:
            check_final_stats(stats)
        if tracer is not None:
            tracer.instant(
                "round_sim",
                "round",
                tid=P,
                args={
                    "compute_s": compute_t.tolist(),
                    "wait_s": wait_t.tolist(),
                    "device_s": device_t.tolist(),
                },
            )
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
